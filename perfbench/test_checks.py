"""The output checks can fail: each corruption of a real report is rejected.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

import checks
import scenarios
from projlind import cli

COL = {name: k for k, name in enumerate(checks.CSV_COLUMNS)}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Reports the CLI writes for a generic compare case, a commuting
    compare case and an approx-only case."""
    generic = scenarios.generate("long-time", 3)[2]
    commuting = next(c for c in scenarios.generate("dense-compare", 3) if c.commuting)
    approx = dataclasses.replace(scenarios.generate("long-time", 4)[0], mode="approx-only")
    cases = {"generic": generic, "commuting": commuting, "approx": approx}
    out = {}
    directory = tmp_path_factory.mktemp("reports")
    for key, case in cases.items():
        (path,) = scenarios.write_configs([case], directory / key)
        csv_path = path[:-len(".json")] + ".csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", path, "--mode", case.mode,
                             "--out", csv_path]) == 0
        header, rows = checks.read_report(csv_path)
        out[key] = (case, header, rows, checks.reference(case))
    return out


def test_reports_pass(reports):
    for case, header, rows, ref in reports.values():
        assert checks.check_report(case, header, rows, ref) == []


def _set(col, value):
    """Corrupt row 5 of ``col``; ``value`` maps the original row to the new value."""
    def corrupt(rows):
        rows[5][COL[col]] = value(rows[5])
    return corrupt


def _shift(col, by):
    return _set(col, lambda r: r[COL[col]] + by)


# label: (report, corruption, part of the message the check must give)
CORRUPTIONS = {
    "shifted approximate trace": ("generic", _shift("approx_trace_re", 1e-6), "approximate trace"),
    "shifted exact trace": ("generic", _shift("exact_trace_re", -1e-6), "exact trace"),
    "gap above indicator": ("generic", _set("frobenius_gap", lambda r: 1.5 * r[COL["bch_indicator"]] + 1e-9),
                            "Lie-Trotter bound"),
    "wrong row count": ("generic", lambda rows: rows.pop(), "rows for a"),
    "negative eigenvalue": ("approx", _set("approx_min_eig", lambda r: -1e-6), "below"),
    "eigenvalue off reference": ("approx", _shift("approx_min_eig", 1e-7), "differs from the reference"),
    "trace distance above one": ("generic", _set("trace_distance", lambda r: 1.5), "outside [0, 1]"),
    "trace distance off reference": ("generic", _shift("trace_distance", 1e-7), "differs from the reference"),
    "gap off reference": ("generic", _set("frobenius_gap", lambda r: 0.5 * r[COL["frobenius_gap"]]),
                          "differs from the reference"),
    "indicator off constant": ("generic", _set("bch_indicator", lambda r: r[COL["bch_indicator"]] * (1 + 1e-6)),
                               "is not t^2/2"),
    "commuting gap above rounding": ("commuting", _set("frobenius_gap", lambda r: 1e-10), "commuting scenario"),
    "time off grid": ("generic", _set("time", lambda r: r[COL["time"]] * (1 + 1e-9)), "grid point"),
    "number where nan is due": ("approx", _set("trace_distance", lambda r: 0.0), "expected nan"),
    "nan where a number is due": ("generic", _set("bch_indicator", lambda r: float("nan")), "expected a number"),
}


@pytest.mark.parametrize("label", sorted(CORRUPTIONS))
def test_corruption_is_rejected(reports, label):
    key, corrupt, message = CORRUPTIONS[label]
    case, header, rows, ref = reports[key]
    rows = [list(r) for r in rows]
    corrupt(rows)
    problems = checks.check_report(case, header, rows, ref)
    assert any(message in p for p in problems), problems


def test_wrong_header_is_rejected(reports):
    case, header, rows, ref = reports["generic"]
    assert checks.check_report(case, header[::-1], rows, ref)


def test_bch_constant_matches_brute_force(reports):
    case = reports["generic"][0]
    n = case.dim
    eye = np.eye(n)
    h = case.hamiltonian
    a = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    b = np.zeros((n * n, n * n), dtype=complex)
    for p, lam in zip(case.projectors, case.rates):
        q = eye - p
        b -= 0.5 * lam * (np.kron(p, q.T) + np.kron(q, p.T))
    assert checks.bch_constant(case) == pytest.approx(np.linalg.norm(a @ b - b @ a), rel=1e-12)
