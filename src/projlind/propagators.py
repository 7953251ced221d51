"""The exact and factorized propagation paths and the splitting-error indicator.

Writing the vectorized master equation as d/dt vec(rho) = (A + B) vec(rho)
with

    A = -i (H kron 1 - 1 kron H^T)          (unitary part)
    B = - sum_j (lambda_j/2) (P_j kron Q_j^T + Q_j kron P_j^T)   (dissipative part)

the exact solution is vec(rho(t)) = exp(t (A + B)) vec(rho(0)). The
approximate path replaces exp(t(A+B)) by exp(tA) exp(tB), which is exact
whenever [A, B] = 0 (in particular for H = 0 or [H, P_j] = 0 for all j).
The factor exp(tB) is evaluated in closed form. The projectors share one
eigenbasis V; with the remainder 1 - sum_j P_j as an extra block of rate 0,
every column of V lies in exactly one block, and B multiplies block pair
(a, b) of V^dag rho V by -(r_a + r_b)/2 when the blocks differ and by 0 when
they agree. So exp(tB) is a Schur product with a block mask,

    exp(tB) rho = V (M o V^dag rho V) V^dag,
    M_ab = 1 if a and b lie in the same block, else e^{-(r_a + r_b) t/2},

which is the paper's pair expansion prod_j (1 + (e^{-lambda_j t/2} - 1) R_j),
R_j = P_j kron Q_j^T + Q_j kron P_j^T, summed in closed form. The literal
product and the multiplied-out pair sum are kept as independent oracles in
the test suite. The dropped Baker-Campbell-Hausdorff interaction term starts
at -(1/2) [tA, tB], so the splitting error is second order in t;
:func:`bch_error_indicator` turns that leading term into a scalar
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .linalg import commutator, devectorize, matexp, vectorize
from .model import ProjectorFamily, Scenario, dissipator_superop, hamiltonian_superop

METHOD_EXACT = "exact"
METHOD_APPROX_CLOSED = "approx-closed"


@dataclass(frozen=True)
class PropagationResult:
    """State at one time point.

    ``state`` is stored raw (not re-validated as a density matrix) so that
    downstream diagnostics can measure constraint violations instead of
    masking them.
    """

    time: float
    state: np.ndarray
    method: str


def _check_time(t) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"time must be a finite non-negative real, got {t}")
    return t


def exact_propagate(scenario: Scenario, t) -> PropagationResult:
    """Exact solution by exponentiating the full n^2 x n^2 generator.

    This is the reference path: a single general matrix exponential of
    t (A + B), deliberately free of structure exploitation.
    """
    t = _check_time(t)
    gen = hamiltonian_superop(scenario.hamiltonian) + dissipator_superop(scenario.family)
    vec = matexp(t * gen) @ vectorize(scenario.initial_state.matrix)
    return PropagationResult(t, devectorize(vec, scenario.dim), METHOD_EXACT)


def _dissipative_factor(family: ProjectorFamily, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(tB) applied to rho0 as the block-mask Schur product.

    The eigenvalues of sum_j j P_j (j from 1) label the columns of V: j for
    the range of P_j, 0 for the remainder. Family validation holds them
    within 1e-10 of those integers, so rounding recovers the labels.
    """
    n = family.dim
    weights = sum((j * p for j, p in enumerate(family.projectors, start=1)),
                  np.zeros((n, n), dtype=complex))
    w, v = np.linalg.eigh(weights)
    labels = np.rint(w).astype(int)
    rates = np.array((0.0,) + family.rates)[labels]
    mask = np.where(labels[:, None] == labels[None, :], 1.0,
                    np.exp(-(rates[:, None] + rates[None, :]) * t / 2.0))
    vh = v.conj().T
    return v @ (mask * (vh @ rho0 @ v)) @ vh


def approx_propagate_closed(scenario: Scenario, t) -> PropagationResult:
    """Closed-form splitting approximation, entirely in matrix form:

        rho(t) ~= U V (M o V^dag rho0 V) V^dag U^dag

    with U = exp(-i t H) and the block mask M of the module docstring.
    Costs two Hermitian eigendecompositions and a few n x n products,
    whatever the number of projectors.
    """
    t = _check_time(t)
    body = _dissipative_factor(scenario.family, scenario.initial_state.matrix, t)
    # Eigendecomposition path keeps the factor unitary to rounding.
    u = matexp(-1j * t * scenario.hamiltonian.matrix, assume="anti_hermitian")
    return PropagationResult(t, u @ body @ u.conj().T, METHOD_APPROX_CLOSED)


def bch_error_indicator(scenario: Scenario, t) -> float:
    """Size of the leading term dropped by the splitting:

        (1/2) || [t A, t B] ||_F  =  (t^2 / 2) || [A, B] ||_F.

    Zero exactly when the scenario commutes; grows quadratically in t.
    """
    t = _check_time(t)
    a = hamiltonian_superop(scenario.hamiltonian)
    b = dissipator_superop(scenario.family)
    return 0.5 * float(np.linalg.norm(commutator(t * a, t * b)))
