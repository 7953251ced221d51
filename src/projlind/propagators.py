"""The exact and factorized propagation paths and the splitting-error indicator.

Writing the vectorized master equation as d/dt vec(rho) = (A + B) vec(rho)
with

    A = -i (H kron 1 - 1 kron H^T)          (unitary part)
    B = - sum_j (lambda_j/2) (P_j kron Q_j^T + Q_j kron P_j^T)   (dissipative part)

the exact solution is vec(rho(t)) = exp(t (A + B)) vec(rho(0)). The
approximate path replaces exp(t(A+B)) by exp(tA) exp(tB), which is exact
whenever [A, B] = 0 (in particular for H = 0 or [H, P_j] = 0 for all j).

All three results live in one frame, built once per scenario. The
projectors share one eigenbasis V; with the remainder 1 - sum_j P_j as an
extra block of rate 0, every column of V lies in one block, and
B rho = -V (G o V^dag rho V) V^dag with G_ab = 0 inside a block and
(r_a + r_b)/2 between blocks of rates r_a, r_b. The frame is (V, G,
H' = V^dag H V, X0 = V^dag rho0 V); a state rho appears in it as V^dag rho V.

There the factorized state is U' (exp(-tG) o X0) U'^dag with
U' = exp(-i t H'), one eigendecomposition of H' per time point. The Schur
factor is the paper's pair expansion prod_j (1 + (e^{-lambda_j t/2} - 1) R_j),
R_j = P_j kron Q_j^T + Q_j kron P_j^T, summed in closed form; the literal
product and the multiplied-out pair sum are independent oracles in the test
suite. The dropped Baker-Campbell-Hausdorff term starts at -(1/2) [tA, tB],
so the splitting error is second order in t, and :func:`bch_error_indicator`
bounds it by

    (1/2) ||[tA, tB]||_F = (t^2/2) sqrt(2 sum_{a,c} |H'_ac|^2 D_ac),
    D_ac = sum_x (G_xa - G_xc)^2,

whose square root is computed once per scenario. Neither forms an
n^2 x n^2 array.

The exact generator in the frame, L(X) = -i (H'X - XH') - G o X, preserves
Hermiticity, so it is a real matrix in any orthonormal basis of Hermitian
matrices (Alicki & Lendi, Quantum Dynamical Semigroups, LNP 286). The basis
used here is 1/sqrt(n) and the n^2 - 1 traceless matrices F_k: diag(q) for
the columns q of a Householder reflection orthogonal to the all-ones
vector, and (E_jk + E_kj)/sqrt2 and i (E_jk - E_kj)/sqrt2 for j < k. Since
L(1) = 0 and L preserves the trace, the row and column of 1/sqrt(n) are
zero, and the rest is a real (n^2 - 1)-square matrix M: skew-symmetric from
the commutator minus the non-negative diagonal G_jk of the off-diagonal
elements, so exp(hM) is a contraction. M is built once per scenario, in
O(n^5), and the coordinates x of X0 are walked along the grid by one
ladder of squarings. Its base beta is the first positive step scaled by a
power of two to 1/2 <= ||beta M||_1 < 1; E_0 = exp(beta M) is the
scenario's one Pade exponential, and E_{j+1} = E_j E_j is squared only as
far as the largest step needs. (A base far below 1/||M||_1 would carry the
rounding of E_0 through more squarings than the steps need.) A step
h = m beta + delta, 0 <= delta < beta, applies E_j for each set bit of m and
then exp(delta M) x by a truncated Taylor series, matrix-vector products
only; a remainder equal to the previous step's takes exp(delta M) once and
reuses it. A grid that is uniform up to the rounding of its points, with a
step of at least 1/(2 ||M||_1), takes no remainder, so it costs one
exponential and the squarings up to its step; a finer uniform grid takes
one Taylor action and one exponential of its step. Each state
1/n + sum_k x_k F_k is Hermitian by construction and has trace 1 to
rounding, however stiff t L is. The unstructured route exp(t (A + B)) is an
oracle in the test suite.

The exact path takes one Pade exponential per scenario for its ladder,
through :func:`projlind.linalg.matexp`, whatever its grid, and one more
only when a remainder repeats; the closed form takes one eigendecomposition
of H' per time point. Both work on chunks of at most _CHUNK consecutive
times and yield one (b, n, n) stack of states per chunk: the exact walk
rebuilds a chunk's states from its coordinate vectors in one call, and the
closed form applies its unitary factors as stacked products. A sweep so
holds O(n^4 + _CHUNK n^2) numbers whatever the length of its grid. Only
the public functions rotate a frame state back to the lab frame.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError
from .linalg import _taylor_action, matexp
from .model import Scenario

#: Most time points in one stack of states; bounds the memory of a sweep.
_CHUNK = 64


class _Frame(NamedTuple):
    """(V, G, H', X0) of the module docstring."""

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray
    x0: np.ndarray


def _frame(scenario: Scenario) -> _Frame:
    """The scenario's frame, from one eigendecomposition.

    The eigenvalues of sum_j j P_j (j from 1) label the columns of V: j for
    the range of P_j, 0 for the remainder. Family validation holds them
    within 1e-10 of those integers, so rounding recovers the labels.
    """
    family = scenario.family
    n = family.dim
    weights = sum((j * p for j, p in enumerate(family.projectors, start=1)),
                  np.zeros((n, n), dtype=complex))
    w, v = np.linalg.eigh(weights)
    labels = np.rint(w).astype(int)
    rates = np.array((0.0,) + family.rates)[labels]
    g = np.where(labels[:, None] == labels[None, :], 0.0,
                 (rates[:, None] + rates[None, :]) / 2.0)
    vh = v.conj().T
    return _Frame(v, g, vh @ scenario.hamiltonian.matrix @ v,
                  vh @ scenario.initial_state.matrix @ v)


def _check_time(t) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"time must be a finite non-negative real, got {t}")
    return t


def exact_propagate(scenario: Scenario, t) -> np.ndarray:
    """Exact solution exp(t (A + B)) rho0 from the real trace-deflated
    generator of the module docstring.

    Returns the lab-frame state as a plain ndarray, still unvalidated."""
    return _propagate(scenario, t, _exact_states)


def approx_propagate_closed(scenario: Scenario, t) -> np.ndarray:
    """Closed-form splitting approximation U exp(tB)(rho0) U^dag with
    U = exp(-i t H): the frame's V U' (exp(-tG) o X0) U'^dag V^dag, at the
    cost of one eigendecomposition of H' and a few n x n products, whatever
    the number of projectors.

    Returns the lab-frame state as a plain ndarray, still unvalidated."""
    return _propagate(scenario, t, _approx_states)


def _propagate(scenario: Scenario, t, states) -> np.ndarray:
    """The state that ``states`` yields at ``t``, rotated back to the lab frame."""
    t = _check_time(t)
    frame = _frame(scenario)
    return frame.v @ next(states(frame, [t]))[0] @ frame.v.conj().T


def bch_error_indicator(scenario: Scenario, t) -> float:
    """(1/2) ||[tA, tB]||_F from the frame's G and H', by the module docstring.

    Zero exactly when the scenario commutes; grows quadratically in t. It
    bounds the splitting error: A is anti-Hermitian and B Hermitian negative
    semidefinite, so both semigroups contract, and variation of constants
    gives ||rho_exact(t) - rho_approx(t)||_F <= (t^2/2) ||[A, B]||_2 ||rho0||_F,
    at most this value since ||rho0||_F <= 1 and ||.||_2 <= ||.||_F
    (Jahnke & Lubich, BIT 40 (2000); Childs et al., PRX 11, 011020 (2021)).
    """
    t = _check_time(t)
    return 0.5 * t * t * _bch_constant(_frame(scenario))


def _bch_constant(frame: _Frame) -> float:
    """||[A, B]||_F = sqrt(2 sum_{a,c} |H'_ac|^2 D_ac), independent of t."""
    # Direct differences: equal-label columns give D = 0 exactly, where an
    # expansion into squares would leave cancellation noise.
    d = ((frame.g[:, :, None] - frame.g[:, None, :]) ** 2).sum(0)
    return float(np.sqrt(2.0 * np.sum(np.abs(frame.h) ** 2 * d)))


def _chunks(times):
    """Consecutive lists of at most _CHUNK of the ``times``; reads no time
    beyond the chunk it returns."""
    times = iter(times)
    while chunk := list(islice(times, _CHUNK)):
        yield chunk


def _approx_states(frame: _Frame, times):
    """Yield the factorized states U' (exp(-tG) o X0) U'^dag in the frame
    at the ``times``, one (b, n, n) stack per chunk."""
    for chunk in _chunks(times):
        # Eigendecomposition path keeps each factor unitary to rounding.
        u = np.stack([matexp(-1j * t * frame.h, assume="anti_hermitian") for t in chunk])
        decayed = np.exp(-np.array(chunk)[:, None, None] * frame.g) * frame.x0
        yield u @ decayed @ u.conj().swapaxes(-1, -2)


def _traceless_basis(n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The diagonal vectors q (columns 2..n of the Householder reflection
    that maps e_1 to the all-ones vector over sqrt(n)) and the index pairs
    j < k of the off-diagonal basis elements."""
    u = np.full(n, n ** -0.5)
    w = u - np.eye(n)[0]
    q = np.eye(n) - np.outer(w, w) / (1.0 - u[0]) if n > 1 else np.eye(1)
    return q[:, 1:], np.triu_indices(n, 1)


def _coordinates(x: np.ndarray, q: np.ndarray, pairs) -> np.ndarray:
    """Coordinates tr(F_k X) of Hermitian matrices X stacked on the last two
    axes, in the order: diagonal, symmetric, antisymmetric elements."""
    off = np.sqrt(2.0) * x[..., pairs[0], pairs[1]]
    diag = np.diagonal(x, axis1=-2, axis2=-1).real @ q
    return np.concatenate([diag, off.real, off.imag], axis=-1)


def _traceless(c: np.ndarray, q: np.ndarray, pairs) -> np.ndarray:
    """sum_k c_k F_k for coordinate vectors c stacked on the last axis."""
    n, m = q.shape
    z = (c[..., m:m + len(pairs[0])] + 1j * c[..., m + len(pairs[0]):]) / np.sqrt(2.0)
    x = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
    x[..., pairs[0], pairs[1]] = z
    x[..., pairs[1], pairs[0]] = z.conj()
    x[..., np.arange(n), np.arange(n)] = c[..., :m] @ q.T
    return x


def _exact_states(frame: _Frame, times):
    """Yield the exact states in the frame at the ascending non-negative
    ``times``, one (b, n, n) stack per chunk, walking the real generator M
    of the module docstring along them by its ladder of squarings."""
    n = frame.v.shape[0]
    h = frame.h
    q, pairs = _traceless_basis(n)
    basis = _traceless(np.eye(n * n - 1), q, pairs)
    gen = _coordinates(-1j * (h @ basis - basis @ h) - frame.g * basis, q, pairs).T
    norm = np.linalg.norm(gen, 1)
    x = _coordinates(frame.x0, q, pairs)
    eps = np.finfo(float).eps
    prev, beta, ladder = 0.0, None, []
    rem, rem_prop = None, None
    for chunk in _chunks(times):
        coords = []
        for t in chunk:
            dt = t - prev
            if dt > 0.0:
                if beta is None:
                    # dt ||M||_1 = f 2^e with 1/2 <= f < 1, so ||beta M||_1 = f.
                    beta = math.ldexp(dt, -math.frexp(dt * norm)[1])
                m, delta = divmod(dt, beta)
                # Grid spacing is uniform up to the rounding of the grid
                # points: a remainder that close to beta or to 0 is
                # rounding, not time.
                if beta - delta <= 8.0 * eps * t:
                    m, delta = m + 1.0, 0.0
                elif delta <= 8.0 * eps * t:
                    delta = 0.0
                m = int(m)
                for j in range(m.bit_length()):
                    if j == len(ladder):
                        ladder.append(ladder[-1] @ ladder[-1] if ladder
                                      else matexp(beta * gen))
                    if m >> j & 1:
                        x = ladder[j] @ x
                if delta > 0.0:
                    # A remainder that repeats the previous one, as every
                    # step of a fine uniform grid does, takes one exponential.
                    if rem is not None and abs(delta - rem) <= 8.0 * eps * t:
                        if rem_prop is None:
                            rem_prop = matexp(rem * gen)
                        x = rem_prop @ x
                    else:
                        rem, rem_prop = delta, None
                        x = _taylor_action(gen, norm, delta, x)
            prev = t
            coords.append(x)
        yield _traceless(np.array(coords), q, pairs) + np.eye(n) / n
