"""Output checks for ``projlind run`` reports.

Everything here is computed apart from the program. The scenario is taken
from the generator, not from the program's parse, and the reference
states come from a different route than the program's: in the basis that
diagonalises the projectors the dissipator acts elementwise,

    d/dt rho' = -i [H', rho'] - G o rho',
    G_ab = (1/2) sum_j lambda_j (p_j(a) (1 - p_j(b)) + (1 - p_j(a)) p_j(b)),

with p_j(a) in {0, 1}. The exact state applies ``scipy.linalg.expm`` to the
generator of that equation, built column by column from basis matrices.
The factorised state is U (W (exp(-tG) o rho0') W^dag) U^dag with
U = ``scipy.linalg.expm(-itH)``. The splitting constant ||[A, B]||_F comes
from the same basis in O(n^3) (see :func:`bch_constant`).
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

# The report's documented column order, kept apart from the program's own
# constant so that a change to it shows.
CSV_COLUMNS = (
    "time", "trace_distance", "frobenius_gap",
    "exact_trace_re", "exact_trace_im",
    "approx_trace_re", "approx_trace_im",
    "approx_min_eig", "bch_indicator",
)

# Allowances, each well above the rounding seen in practice and far below
# the quantity it guards.
TRACE_TOL = 1e-10        # |tr rho - 1| of either path
POSITIVITY_TOL = 1e-10   # approx_min_eig >= -POSITIVITY_TOL
BOUND_TOL = 1e-12        # frobenius_gap <= bch_indicator + BOUND_TOL
ROUNDING_LEVEL = 1e-12   # gap and indicator of a commuting scenario
STATE_TOL = 1e-9         # trace distance, gap and min eigenvalue against the reference
INDICATOR_RTOL = 1e-9    # bch_indicator against (t^2/2) ||[A, B]||_F
GRID_RTOL = 1e-12        # time column against the requested grid

_EXACT_COLS = ("trace_distance", "frobenius_gap", "exact_trace_re", "exact_trace_im")


def decay_matrix(case) -> np.ndarray:
    """G_ab of the elementwise dissipator in the projector basis."""
    n = case.dim
    g = np.zeros((n, n))
    for (a, b), lam in zip(case.blocks, case.rates):
        p = np.zeros(n)
        p[a:b] = 1.0
        g += 0.5 * lam * (np.outer(p, 1.0 - p) + np.outer(1.0 - p, p))
    return g


def bch_constant(case) -> float:
    """||[A, B]||_F for the vectorised generator A + B.

    In the projector basis B is the diagonal -vec(G) and A has entries
    -i (H'_ac d_bd - d_ac H'_db), so [A, B] has entries A_(ab),(cd) (G_ab - G_cd).
    Summing their squares and using the symmetry of G gives

        ||[A, B]||_F^2 = 2 sum_x sum_(a,c) |H'_ac|^2 (G_xa - G_xc)^2.
    """
    w = case.basis
    hp = w.conj().T @ case.hamiltonian @ w
    g = decay_matrix(case)
    diff = g[:, :, None] - g[:, None, :]
    return math.sqrt(2.0 * float(np.sum(np.abs(hp)[None, :, :] ** 2 * diff ** 2)))


def _generator(case) -> np.ndarray:
    """Row-stacked generator of the projector-basis equation, built by
    applying the right-hand side to every basis matrix."""
    n = case.dim
    w = case.basis
    hp = w.conj().T @ case.hamiltonian @ w
    g = decay_matrix(case)
    e = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    f = -1j * (hp @ e - e @ hp) - g * e
    return f.reshape(n * n, n * n).T


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def reference(case) -> dict:
    """Reference grid, factorised states and, in compare mode, exact states."""
    w = case.basis
    g = decay_matrix(case)
    rho0p = w.conj().T @ case.initial_state @ w
    times = case.grid()
    gen = _generator(case) if case.mode == "compare" else None
    out = {"times": times, "bch_constant": bch_constant(case),
           "min_eig": [], "trace_distance": [], "frobenius_gap": []}
    for t in times:
        u = scipy.linalg.expm(-1j * t * case.hamiltonian)
        approx = u @ (w @ (np.exp(-t * g) * rho0p) @ w.conj().T) @ u.conj().T
        out["min_eig"].append(_min_eig(approx))
        if gen is not None:
            vec = scipy.linalg.expm(t * gen) @ rho0p.reshape(-1)
            exact = w @ vec.reshape(case.dim, case.dim) @ w.conj().T
            diff = exact - approx
            out["trace_distance"].append(
                0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum()))
            out["frobenius_gap"].append(float(np.linalg.norm(diff)))
    return out


def read_report(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    return lines[0], [[float(x) for x in line] for line in lines[1:]]


def check_report(case, header, rows, ref) -> list[str]:
    """Every failed check, as one message each; an empty list passes."""
    bad = []
    if tuple(header) != CSV_COLUMNS:
        return [f"header {header} is not {list(CSV_COLUMNS)}"]
    times = ref["times"]
    if len(rows) != len(times):
        return [f"{len(rows)} rows for a {len(times)}-point grid"]
    compare = case.mode == "compare"
    nan_cols = () if compare else _EXACT_COLS
    c = ref["bch_constant"]
    for k, values in enumerate(rows):
        r = dict(zip(CSV_COLUMNS, values))
        t = times[k]
        at = f"row {k} (t={t:.6g})"
        if abs(r["time"] - t) > GRID_RTOL * max(1.0, t):
            bad.append(f"{at}: time {r['time']!r} is not the grid point")
        for col in CSV_COLUMNS:
            if math.isnan(r[col]) != (col in nan_cols):
                want = "nan" if col in nan_cols else "a number"
                bad.append(f"{at}: {col} is {r[col]!r}, expected {want}")
        if any(math.isnan(r[col]) for col in CSV_COLUMNS if col not in nan_cols):
            continue
        if abs(complex(r["approx_trace_re"], r["approx_trace_im"]) - 1.0) > TRACE_TOL:
            bad.append(f"{at}: approximate trace drifts from 1 by more than {TRACE_TOL:g}")
        if r["approx_min_eig"] < -POSITIVITY_TOL:
            bad.append(f"{at}: approx_min_eig {r['approx_min_eig']:.3e} below -{POSITIVITY_TOL:g}")
        if abs(r["approx_min_eig"] - ref["min_eig"][k]) > STATE_TOL:
            bad.append(f"{at}: approx_min_eig {r['approx_min_eig']!r} differs from the "
                       f"reference {ref['min_eig'][k]!r}")
        expected = 0.5 * t * t * c
        if abs(r["bch_indicator"] - expected) > INDICATOR_RTOL * expected + ROUNDING_LEVEL:
            bad.append(f"{at}: bch_indicator {r['bch_indicator']!r} is not t^2/2 * "
                       f"{c!r} = {expected!r}")
        if not compare:
            continue
        if abs(complex(r["exact_trace_re"], r["exact_trace_im"]) - 1.0) > TRACE_TOL:
            bad.append(f"{at}: exact trace drifts from 1 by more than {TRACE_TOL:g}")
        if not 0.0 <= r["trace_distance"] <= 1.0:
            bad.append(f"{at}: trace_distance {r['trace_distance']!r} outside [0, 1]")
        if r["frobenius_gap"] > r["bch_indicator"] + BOUND_TOL:
            bad.append(f"{at}: frobenius_gap {r['frobenius_gap']!r} exceeds the "
                       f"Lie-Trotter bound bch_indicator {r['bch_indicator']!r}")
        if case.commuting and max(r["frobenius_gap"], r["bch_indicator"]) > ROUNDING_LEVEL:
            bad.append(f"{at}: commuting scenario has gap {r['frobenius_gap']:.3e} and "
                       f"indicator {r['bch_indicator']:.3e}, above {ROUNDING_LEVEL:g}")
        for col in ("trace_distance", "frobenius_gap"):
            if abs(r[col] - ref[col][k]) > STATE_TOL:
                bad.append(f"{at}: {col} {r[col]!r} differs from the reference "
                           f"{ref[col][k]!r}")
    return bad
