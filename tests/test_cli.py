import csv
import json
import math

import numpy as np
import pytest

from projlind import analysis, cli, config, presets, propagators
from projlind.model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario

NON_ORTHOGONAL = {
    "dimension": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "projectors": [
        {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 1.0},
        {"matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], "rate": 1.0},
    ],
    "initial_state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    "time_grid": [0.0, 1.0],
}


def write_preset(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(presets.preset_text(name))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_compare_mode_writes_csv(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert len(rows) - 1 == 9  # grid length
        # H = 0 means the approximation is exact on this preset
        assert all(float(r[1]) <= 1e-10 for r in rows[1:])
        stdout = capsys.readouterr().out
        assert "max trace distance" in stdout
        assert "worst positivity violation" in stdout

    def test_driven_qubit_summary_reports_second_order(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "driven-qubit")
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        line = next(l for l in stdout.splitlines() if "convergence order" in l)
        order = float(line.split(":")[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_non_orthogonal_config_exits_1_naming_pair(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(NON_ORTHOGONAL))
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "(0, 1)" in err and "orthogonal" in err
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "no" / "such" / "dir" / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_propagation_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr("projlind.analysis._exact_states", boom)
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "propagation failed" in capsys.readouterr().err

    def test_exact_only_leaves_approx_columns_nan(self, tmp_path):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--mode", "exact-only",
                         "--out", str(out)]) == 0
        rows = read_csv(out)
        header = rows[0]
        for row in rows[1:]:
            rec = dict(zip(header, row))
            assert rec["approx_trace_re"] == "nan"
            assert rec["trace_distance"] == "nan"
            assert abs(float(rec["exact_trace_re"]) - 1.0) <= 1e-10

    def test_approx_only_never_touches_exact_path(self, tmp_path, monkeypatch):
        # n = 16: the exact path would need a 255 x 255 exponential; make
        # certain it is never even called.
        rng = np.random.default_rng(99)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (z + z.conj().T) / 2
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        scen = Scenario(
            Hamiltonian(h),
            ProjectorFamily(((np.diag([1.0] + [0.0] * 15), 1.0),)),
            DensityMatrix(rho),
            [0.0, 0.5, 1.0],
        )
        cfg = tmp_path / "big.json"
        cfg.write_text(config.dumps_config(scen))
        out = tmp_path / "report.csv"

        def boom(*args, **kwargs):
            raise AssertionError("no n^2 x n^2 work may run in approx-only mode")

        monkeypatch.setattr("projlind.analysis._exact_states", boom)
        # Nor is anything exponentiated by Pade: the closed form's unitary
        # factor takes matexp's eigendecomposition route, never this one.
        monkeypatch.setattr("projlind.linalg._pade_expm", boom)
        assert cli.main(["run", "--config", str(cfg), "--mode", "approx-only",
                         "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(r[3] == "nan" for r in rows[1:])  # exact_trace_re column

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_single_path_modes_match_compare(self, tmp_path, name):
        # Each single-path mode writes the compare report's text in the
        # columns it computes and nan in every other column.
        computed = {
            "exact-only": {"time", "exact_trace_re", "exact_trace_im", "bch_indicator"},
            "approx-only": {"time", "approx_trace_re", "approx_trace_im",
                            "approx_min_eig", "bch_indicator"},
        }
        cfg = write_preset(tmp_path, name)
        reports = {}
        for mode in ("compare", *computed):
            out = tmp_path / f"{mode}.csv"
            assert cli.main(["run", "--config", str(cfg), "--mode", mode,
                             "--out", str(out)]) == 0
            reports[mode] = read_csv(out)
        header = reports["compare"][0]
        for mode, columns in computed.items():
            rows = reports[mode]
            assert rows[0] == header
            assert len(rows) == len(reports["compare"])
            for row, ref in zip(rows[1:], reports["compare"][1:]):
                for col, value, expected in zip(header, row, ref):
                    assert value == (expected if col in columns else "nan"), (mode, col)

    def test_csv_row_count_matches_grid(self, tmp_path):
        for name in presets.PRESET_NAMES:
            cfg = write_preset(tmp_path, name)
            out = tmp_path / f"{name}.csv"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            scen = presets.preset_scenario(name)
            assert len(read_csv(out)) - 1 == scen.time_grid.size


def test_repeated_calls_in_one_process(tmp_path, capsys, monkeypatch):
    # The parser is built on the first call and shared by the later ones,
    # an argument error included.
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert cli.main(["presets"]) == 0
    assert capsys.readouterr().out.split() == list(presets.PRESET_NAMES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--mode", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    cfg = write_preset(tmp_path, "driven-qubit")
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote: {out}"
    assert len(read_csv(out)) - 1 == presets.preset_scenario("driven-qubit").time_grid.size
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
    assert built == [1]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(presets.preset_text("driven-qubit").replace("0.025", "0.025\xe9")
                    .encode("latin-1"))
    out = ["--out", str(tmp_path / "report.csv")] if command == "run" else []
    code = cli.main([command, "--config", str(cfg)] + out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert not (tmp_path / "report.csv").exists()


class TestValidate:
    def test_good_family_passes(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "three-projector")
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "result: PASS" in stdout
        assert "projector pair (0, 1)" in stdout

    def test_non_orthogonal_family_fails_with_report(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(NON_ORTHOGONAL))
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        stdout = capsys.readouterr().out
        assert "result: FAIL" in stdout
        assert "(0, 1)" in stdout

    @pytest.mark.parametrize("projector, message", [
        ({"matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
         "error: projector 0 contains NaN or Inf entries"),
        # The Gram matrix overflows to a NaN residual, which must not pass.
        ({"vectors": [[[1e308, 1e308], [0.0, 0.0]]]},
         "error: projectors[0].vectors: vectors are not orthonormal (Gram residual nan)"),
    ], ids=["nan-matrix", "overflowing-vectors"])
    def test_non_finite_projector_is_an_error_line(self, tmp_path, capsys, projector, message):
        doc = json.loads(presets.preset_text("driven-qubit"))
        doc["projectors"][0] = dict(projector, rate=1.0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message


OVERFLOWING_PROJECTOR = {"matrix": [[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]],
                         "rate": 1.0}


def overflowing_config(tmp_path):
    """driven-qubit with a symmetric projector whose square overflows, so
    its idempotency residual is NaN."""
    doc = json.loads(presets.preset_text("driven-qubit"))
    doc["projectors"][0] = OVERFLOWING_PROJECTOR
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestNanResidual:
    def test_validate_prints_fail(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(overflowing_config(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "result: FAIL", "  projector 0: idempotency residual nan exceeds 1e-10"]

    def test_run_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(overflowing_config(tmp_path)),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "idempotency residual nan" in err
        assert not out.exists()


def driven_qubit_with(tmp_path, hamiltonian=None, rate=None):
    """The driven-qubit preset with its Hamiltonian or its projector's rate
    replaced."""
    doc = json.loads(presets.preset_text("driven-qubit"))
    if hamiltonian is not None:
        doc["hamiltonian"] = hamiltonian
    if rate is not None:
        doc["projectors"][0]["rate"] = rate
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    return cfg


HUGE_H = [[[0.0, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.0, 0.0]]]

#: Columns each mode computes; the rest are nan.
COMPUTED = {
    "compare": set(cli.CSV_COLUMNS),
    "exact-only": {"time", "exact_trace_re", "exact_trace_im", "bch_indicator"},
    "approx-only": {"time", "approx_trace_re", "approx_trace_im", "approx_min_eig",
                    "bch_indicator"},
}


def finite_report(path, mode):
    """The rows of the report at ``path``, after checking that every column
    that ``mode`` computes is finite in every row and no other one is."""
    header, *rows = read_csv(path)
    assert rows
    for row in rows:
        for col, value in zip(header, row):
            assert math.isfinite(float(value)) == (col in COMPUTED[mode]), (col, value)
    return rows


class TestExtremeValidConfigs:
    # Valid configs near the float range give a finite report or an error
    # that names the overflow; the suite's warning policy makes any numpy
    # overflow warning a failure of the run instead.
    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_rate_near_the_float_range_gives_a_finite_report(self, tmp_path, mode):
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, rate=1e308)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        assert len(finite_report(out, mode)) == 4

    def test_huge_hamiltonian_gives_a_finite_closed_form(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, hamiltonian=HUGE_H)
        assert cli.main(["run", "--config", str(cfg), "--mode", "approx-only",
                         "--out", str(out)]) == 0
        rows = finite_report(out, "approx-only")
        # (t^2/2) ||[A, B]||_F scales with ||H||: 1e200 times the preset's.
        preset = propagators.bch_error_indicator(presets.preset_scenario("driven-qubit"), 0.025)
        assert float(rows[0][-1]) == pytest.approx(1e200 * preset, rel=1e-14)

    @pytest.mark.parametrize("mode", ["compare", "exact-only"])
    def test_huge_hamiltonian_names_the_exact_overflow(self, tmp_path, capsys, mode):
        # t ||H|| near 1e198 leaves the ladder's squarings nothing but
        # rounding, which they square until it overflows.
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, hamiltonian=HUGE_H)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: propagation failed: exact propagator overflows at t nu = ")
        assert not out.exists()


    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("name", ["driven-qubit", "three-projector"])
    def test_grid_time_near_the_float_range_gives_a_finite_report(self, tmp_path, name, mode):
        # t / tau and the Hermitian part of -i t H' stay within the float
        # range; only the indicator (t^2/2) ||[A, B]||_F overflows, to inf.
        doc = json.loads(presets.preset_text(name))
        doc["time_grid"] = [0.0, 1.0, 1e308]
        cfg, out = tmp_path / "far.json", tmp_path / "report.csv"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        header, *rows = read_csv(out)
        assert [float(row[0]) for row in rows] == [0.0, 1.0, 1e308]
        assert rows[-1][-1] == "inf"
        for row in rows:
            for col, value in zip(header[:-1], row[:-1]):
                assert math.isfinite(float(value)) == (col in COMPUTED[mode]), (col, value)


class TestPresets:
    def test_list(self, capsys):
        assert cli.main(["presets"]) == 0
        listed = capsys.readouterr().out.split()
        assert list(presets.PRESET_NAMES) == listed

    def test_dump_parses_back(self, capsys):
        assert cli.main(["presets", "driven-qubit"]) == 0
        text = capsys.readouterr().out
        scen = config.parse_config(text)
        assert scen.dim == 2

    def test_unknown_name(self, capsys):
        assert cli.main(["presets", "no-such-preset"]) == 1
        assert "unknown preset" in capsys.readouterr().err
