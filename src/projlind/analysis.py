"""Comparison metrics, state diagnostics and time sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import DimensionError, InvalidInputError
from .linalg import HERMITICITY_TOL, hermiticity_residual
from .model import Scenario
from .propagators import _approx_states, _bch_constant, _exact_states, _frame

#: Gaps below this are treated as rounding noise by the convergence fit.
GAP_NOISE_FLOOR = 1e-14

#: What :func:`sweep` runs: both paths, or only one of them.
MODES = ("compare", "exact-only", "approx-only")

_NAN = float("nan")
_NAN_C = complex(_NAN, _NAN)

_SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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


@dataclass(frozen=True)
class StateDiagnostics:
    hermiticity_residual: float
    trace: complex
    min_eigenvalue: float
    purity: float


@dataclass(frozen=True)
class PauliDecomposition:
    """Two-qubit Bloch-type coefficients.

    rho = (1/4) (1 kron 1 + sum_i p_i s_i kron 1 + sum_j q_j 1 kron s_j
                 + sum_ij r_ij s_i kron s_j)

    with s_1 = sigma_x, s_2 = sigma_y, s_3 = sigma_z (stored 0-based).
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray


def _hermitian_part(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    return (a + a.conj().T) / 2.0


def trace_distance(rho, sigma) -> float:
    """Half the absolute-eigenvalue sum of rho - sigma.

    Both inputs must be Hermitian within the package gate; the difference is
    Hermitian, so the eigenvalue route is exact.
    """
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"states must share a square shape, got {a.shape} and {b.shape}")
    for name, m in (("rho", a), ("sigma", b)):
        if hermiticity_residual(m) > HERMITICITY_TOL:
            raise InvalidInputError(f"{name} is not Hermitian within {HERMITICITY_TOL:g}")
    eigs = np.linalg.eigvalsh(_hermitian_part(a) - _hermitian_part(b))
    return 0.5 * float(np.abs(eigs).sum())


def state_diagnostics(rho) -> StateDiagnostics:
    """Hermiticity residual, trace, minimum eigenvalue and purity tr(rho^2)."""
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"state must be square, got shape {a.shape}")
    return StateDiagnostics(
        hermiticity_residual=hermiticity_residual(a),
        trace=complex(np.trace(a)),
        min_eigenvalue=float(np.linalg.eigvalsh(_hermitian_part(a))[0]),
        purity=float(np.trace(a @ a).real),
    )


def pauli_decompose(rho) -> PauliDecomposition:
    """Coefficients p_i = tr(rho (s_i kron 1)), q_j = tr(rho (1 kron s_j)),
    r_ij = tr(rho (s_i kron s_j)) of a two-qubit state."""
    a = np.asarray(rho, dtype=complex)
    if a.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 two-qubit state, got shape {a.shape}")
    if hermiticity_residual(a) > HERMITICITY_TOL:
        raise InvalidInputError("two-qubit state is not Hermitian")
    eye = np.eye(2, dtype=complex)
    p = np.array([np.trace(a @ np.kron(s, eye)).real for s in _SIGMAS])
    q = np.array([np.trace(a @ np.kron(eye, s)).real for s in _SIGMAS])
    r = np.array([[np.trace(a @ np.kron(si, sj)).real for sj in _SIGMAS] for si in _SIGMAS])
    for coeffs in (p, q, r):
        coeffs.setflags(write=False)
    return PauliDecomposition(p=p, q=q, r=r)


def pauli_reconstruct(d: PauliDecomposition) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`."""
    eye = np.eye(2, dtype=complex)
    out = np.kron(eye, eye)
    for i, s in enumerate(_SIGMAS):
        out += d.p[i] * np.kron(s, eye)
        out += d.q[i] * np.kron(eye, s)
    for i, si in enumerate(_SIGMAS):
        for j, sj in enumerate(_SIGMAS):
            out += d.r[i, j] * np.kron(si, sj)
    return out / 4.0


def sweep(scenario: Scenario, mode: str = "compare") -> list[ErrorRecord]:
    """Run the paths that ``mode`` selects over the scenario's time grid and
    record the per-time-point comparison, ordered by time.

    ``compare`` runs the exact and closed-form paths; ``exact-only`` and
    ``approx-only`` run one of them. Fields that need a path the mode does
    not run are NaN; the indicator is computed in every mode. The scenario's
    projector frame is built once, and the states never leave it: every
    metric is unitarily invariant.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    grid = scenario.time_grid
    frame = _frame(scenario)
    exact_states = repeat(None) if mode == "approx-only" else _exact_states(frame, grid)
    approx_states = repeat(None) if mode == "exact-only" else _approx_states(frame, grid)
    kappa = _bch_constant(frame)
    records = []
    for t, exact, approx in zip(grid, exact_states, approx_states):
        t = float(t)
        both = exact is not None and approx is not None
        records.append(ErrorRecord(
            time=t,
            trace_distance=trace_distance(exact, approx) if both else _NAN,
            frobenius_gap=float(np.linalg.norm(exact - approx)) if both else _NAN,
            exact_trace=_NAN_C if exact is None else complex(np.trace(exact)),
            approx_trace=_NAN_C if approx is None else complex(np.trace(approx)),
            approx_min_eigenvalue=_NAN if approx is None
            else float(np.linalg.eigvalsh(_hermitian_part(approx))[0]),
            bch_indicator=0.5 * t * t * kappa,
        ))
    return records


def convergence_order(records) -> float:
    """Least-squares slope of log(frobenius_gap) against log(t).

    Points with t = 0 or a gap below ``GAP_NOISE_FLOOR`` are excluded; at
    least three usable points are required.
    """
    ts = [r.time for r in records if r.time > 0.0 and r.frobenius_gap > GAP_NOISE_FLOOR]
    gaps = [r.frobenius_gap for r in records if r.time > 0.0 and r.frobenius_gap > GAP_NOISE_FLOOR]
    if len(ts) < 3:
        raise InvalidInputError(
            f"need at least 3 records with t > 0 and gap above {GAP_NOISE_FLOOR:g}, "
            f"got {len(ts)}")
    slope, _ = np.polyfit(np.log(ts), np.log(gaps), 1)
    return float(slope)
