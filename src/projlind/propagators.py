"""The exact and factorized propagation paths and the splitting-error indicator.

Writing the vectorized master equation as d/dt vec(rho) = (A + B) vec(rho)
with

    A = -i (H kron 1 - 1 kron H^T)          (unitary part)
    B = - sum_j (lambda_j/2) (P_j kron Q_j^T + Q_j kron P_j^T)   (dissipative part)

the exact solution is vec(rho(t)) = exp(t (A + B)) vec(rho(0)). The
approximate path replaces exp(t(A+B)) by exp(tA) exp(tB), which is exact
whenever [A, B] = 0 (in particular for H = 0 or [H, P_j] = 0 for all j).
The dissipator has one n x n form. The projectors share one eigenbasis V;
with the remainder 1 - sum_j P_j as an extra block of rate 0, every column
of V lies in one block, and B rho = -V (G o V^dag rho V) V^dag with
G_ab = 0 inside a block and (r_a + r_b)/2 between blocks of rates r_a, r_b.
So exp(tB) rho = V (exp(-tG) o V^dag rho V) V^dag,
which is the paper's pair expansion prod_j (1 + (e^{-lambda_j t/2} - 1) R_j),
R_j = P_j kron Q_j^T + Q_j kron P_j^T, summed in closed form. The literal
product and the multiplied-out pair sum are kept as independent oracles in
the test suite. The dropped Baker-Campbell-Hausdorff interaction term starts
at -(1/2) [tA, tB], so the splitting error is second order in t;
:func:`bch_error_indicator` turns that leading term into a scalar that
bounds the error. From the same (V, G) and H' = V^dag H V,

    (1/2) ||[tA, tB]||_F = (t^2/2) sqrt(2 sum_{a,c} |H'_ac|^2 D_ac),
    D_ac = sum_x (G_xa - G_xc)^2,

so the approximate path and its indicator cost O(n^3) per time point and
never form an n^2 x n^2 array. Only :func:`exact_propagate`, the unstructured
reference, builds the n^2 x n^2 matrices A and B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .linalg import devectorize, matexp, vectorize
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


def _decay_basis(family: ProjectorFamily) -> tuple[np.ndarray, np.ndarray]:
    """(V, G) of the module docstring.

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
    g = np.where(labels[:, None] == labels[None, :], 0.0,
                 (rates[:, None] + rates[None, :]) / 2.0)
    return v, g


def approx_propagate_closed(scenario: Scenario, t) -> PropagationResult:
    """Closed-form splitting approximation U exp(tB)(rho0) U^dag with
    U = exp(-i t H): two Hermitian eigendecompositions and a few n x n
    products, whatever the number of projectors."""
    t = _check_time(t)
    v, g = _decay_basis(scenario.family)
    vh = v.conj().T
    body = v @ (np.exp(-t * g) * (vh @ scenario.initial_state.matrix @ v)) @ vh
    # Eigendecomposition path keeps the factor unitary to rounding.
    u = matexp(-1j * t * scenario.hamiltonian.matrix, assume="anti_hermitian")
    return PropagationResult(t, u @ body @ u.conj().T, METHOD_APPROX_CLOSED)


def bch_error_indicator(scenario: Scenario, t) -> float:
    """(1/2) ||[tA, tB]||_F from (V, G), by the formula of the module docstring.

    Zero exactly when the scenario commutes; grows quadratically in t. It
    bounds the splitting error: A is anti-Hermitian and B Hermitian negative
    semidefinite, so both semigroups contract, and variation of constants
    gives ||rho_exact(t) - rho_approx(t)||_F <= (t^2/2) ||[A, B]||_2 ||rho0||_F,
    at most this value since ||rho0||_F <= 1 and ||.||_2 <= ||.||_F
    (Jahnke & Lubich, BIT 40 (2000); Childs et al., PRX 11, 011020 (2021)).
    """
    t = _check_time(t)
    v, g = _decay_basis(scenario.family)
    h = v.conj().T @ scenario.hamiltonian.matrix @ v
    # Direct differences: equal-label columns give D = 0 exactly, where an
    # expansion into squares would leave cancellation noise.
    d = ((g[:, :, None] - g[:, None, :]) ** 2).sum(0)
    return 0.5 * t * t * float(np.sqrt(2.0 * np.sum(np.abs(h) ** 2 * d)))
