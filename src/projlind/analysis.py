"""Comparison metrics and time sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import DimensionError, InvalidInputError
from .linalg import VALIDATION_TOL, _hermitian_part, hermiticity_residual
from .model import Scenario
from .propagators import (_approx_states, _bch_constant, _chunks, _exact_states, _frame,
                          _indicator)

#: Gaps below this are treated as rounding noise by the convergence fit.
GAP_NOISE_FLOOR = 1e-14

#: What :func:`sweep` runs: both paths, or only one of them.
MODES = ("compare", "exact-only", "approx-only")

_NAN = float("nan")
_NAN_C = complex(_NAN, _NAN)


@dataclass(frozen=True)
class ErrorRecord:
    """Exact-vs-approximate comparison at one time point; fields that need a
    path the sweep did not run are NaN."""

    time: float
    trace_distance: float
    frobenius_gap: float
    exact_trace: complex
    approx_trace: complex
    approx_min_eigenvalue: float
    bch_indicator: float


def trace_distance(rho, sigma) -> float | np.ndarray:
    """Half the absolute-eigenvalue sum of rho - sigma.

    Both inputs must be Hermitian within the package gate; the difference is
    Hermitian, so the eigenvalue route is exact. Two n x n states give a
    float; two stacks of states of one shape (..., n, n) give the array of
    their distances, and every state of each stack must pass the gate.
    """
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"states must share a square shape, got {a.shape} and {b.shape}")
    for name, m in (("rho", a), ("sigma", b)):
        if not np.all(hermiticity_residual(m) <= VALIDATION_TOL):
            raise InvalidInputError(f"{name} is not Hermitian within {VALIDATION_TOL:g}")
    eigs = np.linalg.eigvalsh(_hermitian_part(a) - _hermitian_part(b))
    distance = 0.5 * np.abs(eigs).sum(-1)
    return float(distance) if a.ndim == 2 else distance


def sweep(scenario: Scenario, mode: str = "compare") -> list[ErrorRecord]:
    """Run the paths that ``mode`` selects over the scenario's time grid and
    record the per-time-point comparison, ordered by time.

    ``compare`` runs the exact and closed-form paths; ``exact-only`` and
    ``approx-only`` run one of them. Fields that need a path the mode does
    not run are NaN; the indicator is computed in every mode. The scenario's
    projector frame is built once, and the states never leave it: every
    metric is unitarily invariant. Each path yields one stack of states per
    chunk of the grid, and every metric is taken once per chunk, so the
    memory that the states take does not grow with the grid. The returned
    records do, by about 330 bytes per point.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    grid = scenario.time_grid
    frame = _frame(scenario)
    exact_chunks = repeat(None) if mode == "approx-only" else _exact_states(frame, grid)
    approx_chunks = repeat(None) if mode == "exact-only" else _approx_states(frame, grid)
    kappa = _bch_constant(frame.g, frame.h)
    records = []
    for times, exact, approx in zip(_chunks(grid), exact_chunks, approx_chunks):
        distance = gap = min_eig = np.full(len(times), _NAN)
        exact_trace = approx_trace = np.full(len(times), _NAN_C)
        if exact is not None:
            exact_trace = np.trace(exact, axis1=-2, axis2=-1)
        if approx is not None:
            approx_trace = np.trace(approx, axis1=-2, axis2=-1)
            min_eig = np.linalg.eigvalsh(_hermitian_part(approx))[:, 0]
        if exact is not None and approx is not None:
            distance = trace_distance(exact, approx)
            gap = np.linalg.norm(exact - approx, axis=(-2, -1))
        ts = np.array(times, dtype=float)
        records.extend(map(ErrorRecord, ts.tolist(), distance.tolist(), gap.tolist(),
                           exact_trace.tolist(), approx_trace.tolist(), min_eig.tolist(),
                           _indicator(ts, kappa).tolist()))
    return records


def convergence_order(records) -> float:
    """Least-squares slope sum (x - xbar)(y - ybar) / sum (x - xbar)^2 of
    y = log(frobenius_gap) against x = log(t).

    Points with t = 0 or a gap below ``GAP_NOISE_FLOOR`` are excluded; the
    usable points must hold at least three distinct values of log(t).
    """
    points = [(r.time, r.frobenius_gap) for r in records
              if r.time > 0.0 and r.frobenius_gap > GAP_NOISE_FLOOR]
    x, y = np.log(points).reshape(-1, 2).T
    if (distinct := len(set(x))) < 3:
        raise InvalidInputError(
            f"need records at 3 distinct times t > 0 with gap above {GAP_NOISE_FLOOR:g}, "
            f"got {distinct}")
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))
