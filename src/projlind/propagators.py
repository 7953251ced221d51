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
Hermiticity and the trace, and it has two kernels. Both walk the grid
on one lattice of points j tau, each with its own step tau. At the
lattice point x_j a kernel takes the terms T_k = (tau L)^k x_j / k! of
one truncated Taylor series, by the stopping rule of
:func:`projlind.linalg._taylor_action`, once for all the grid times
inside the cell. A grid time t = (j + sigma) tau, 0 <= sigma < 1, gets the
dense output sum_k sigma^k T_k, the series of exp(sigma tau L) x_j, whose
truncation bound (sigma tau nu)^(k+1) / (k+1)! is no larger than the
cell's. A cell whose series is taken is crossed by its sum; the walk
crosses any other m cells by the kernel's own advance. A time within
8 eps s of a lattice point, s = t / tau and eps = 2^-52, is that point:
the rest is the rounding of the grid's points, not time. Where s
overflows, as at t = 1e308, the lattice index is the exact integer
quotient, so grid times reach the float maximum.

The matrix-free kernel applies L to the n x n frame state, one n x n
product per application: with Z = -i tau H' T,

    tau L(T) = Z + Z^dag - (tau G) o T

for Hermitian T, and each such sum is exactly Hermitian, so every state
walked from the Hermitian part of X0 is Hermitian to the last bit. Its
lattice is a fixed one of substeps tau = _THETA / nu, _THETA = 3, where

    nu = (w_max - w_min) + max G,   w the eigenvalues of H',

bounds ||L|| in the norm induced by the Frobenius norm: in the eigenbasis
of H' the commutator part multiplies the (a, b) element by -i (w_a - w_b),
so it is normal with spectral radius w_max - w_min, and the decay part
multiplies the (a, b) element by -G_ab, so its norm is max G; the
triangle inequality adds them. nu costs one eigvalsh of H' per scenario,
and nu = 0 (n = 1, or H' a multiple of 1 with no decay) takes no series.
Each series goes up to degree 28 at tau nu = 3, and the kernel advances
a cell by summing one. The dense output's weights are real, so it is as
Hermitian as the terms. Up to time t the kernel takes ceil(t nu / 3)
series whatever the number of grid points: about 9.3 t nu n x n
products, plus one weighted sum per point.

The terms' norms sum to at most e^3 ||X_j||, so one substep rounds by
about c n u e^3 ||X_j||, u the unit roundoff, and the weights sigma^k <= 1
keep the dense output within the same bound. exp(tau L) is a contraction,
so over the ceil(t nu / 3) substeps the rounding adds up to at most about
c n u (e^3 / 3) t nu ||X0||, with about u t nu more from rounding sigma.
Against 40-digit references (n <= 3, t nu up to 50) the states agree
within 1e-14; the frame's own rounding, about u t nu, is most of that.

The dense kernel writes L as a real matrix in an orthonormal basis of
Hermitian matrices (Alicki & Lendi, Quantum Dynamical Semigroups, LNP 286):
1/sqrt(n) and the n^2 - 1 traceless matrices F_k, diag(q) for the columns q
of a Householder reflection orthogonal to the all-ones vector, and
(E_jk + E_kj)/sqrt2 and i (E_jk - E_kj)/sqrt2 for j < k. Since L(1) = 0 and
L preserves the trace, the row and column of 1/sqrt(n) are zero, and the
rest is a real (n^2 - 1)-square matrix M: skew-symmetric from the
commutator minus the non-negative diagonal G_jk of the off-diagonal
elements, so exp(hM) is a contraction. M is built once per scenario, in
O(n^5), by applying L to the basis; it is L in an orthonormal basis, so
||M||_2 <= nu. The coordinates x of X0 are walked on the lattice of its
base beta: the first positive grid time scaled by a power of two to
1/2 <= beta nu < 1. (A base far below 1/nu would carry the rounding of
E_0 through more squarings than the walk needs.) An advance of m cells
applies E_j for each set bit of m, on one ladder of squarings:
E_0 = exp(beta M) is the scenario's one Pade exponential, through
:func:`projlind.linalg.matexp`, and E_{j+1} = E_j E_j is squared only as
far as the largest advance needs. A cell's series has the bound
beta nu < 1, at most degree 18, and takes matrix-vector products only.
Every point of a uniform grid from 0 with a step of at least 1/(2 nu) is
a lattice point, so such a grid takes no series and costs the
exponential and the squarings up to its step; a finer one takes a series
for each cell that holds one of its points. Each state
1/n + sum_k x_k F_k is Hermitian by construction and has trace 1 to
rounding, however stiff t L is. Its cost, O(n^6) for the Pade
exponential and the squarings, hardly depends on the grid. An advance
whose squarings overflow, as when t ||H|| is so far beyond 1/u that they
amplify nothing but rounding, raises an error that gives the t nu it
spans instead of yielding non-finite states.

A scenario's exact states come from the matrix-free kernel when

    17 (t nu + b) <= n^3 / 3

for a grid of b points ending at t: the Taylor kernel's n x n products
against the dense kernel's build, Pade exponential and squarings, in units
of n^3, as measured on one BLAS thread. Its 17 is the terms per unit of
t nu of substeps with tau nu <= 1, about twice the lattice's 9.3, so the
rule errs toward the dense kernel; at n = 10 the two kernels measure about
even. The rule reads only the scenario and its grid, never a clock, so a
run repeats to the bit. A 12-point grid
with t nu near 15 goes matrix-free from n = 12 up, which reaches n = 64;
a grid with t nu in the thousands stays dense below n = 59.
Both kernels share one applicator of L, the bound nu, the Taylor
stopping rule and the lattice walk with its dense output. The unstructured
route exp(t (A + B)) is an oracle in the test suite.

The closed form takes one eigendecomposition of H' per time point. Both
paths work on chunks of at most _CHUNK consecutive times and yield one
(b, n, n) stack of states per chunk: the exact kernels collect a chunk's
states (the dense one rebuilds them from its coordinate vectors in one
call), and the closed form applies its unitary factors as stacked
products. A sweep so holds O(n^4 + _CHUNK n^2) numbers whatever the length
of its grid. Only the public functions rotate a frame state back to the
lab frame.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError
from .linalg import _hermitian_part, _taylor_action, matexp
from .model import Scenario

#: Most time points in one stack of states; bounds the memory of a sweep.
_CHUNK = 64

#: tau nu of the matrix-free kernel's substeps.
_THETA = 3.0


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
    # Halved before the sum, so rates near the float range cannot overflow.
    g = np.where(labels[:, None] == labels[None, :], 0.0,
                 rates[:, None] / 2.0 + rates[None, :] / 2.0)
    vh = v.conj().T
    return _Frame(v, g, vh @ scenario.hamiltonian.matrix @ v,
                  vh @ scenario.initial_state.matrix @ v)


def _check_time(t) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"time must be a finite non-negative real, got {t}")
    return t


def exact_propagate(scenario: Scenario, t) -> np.ndarray:
    """Exact solution exp(t (A + B)) rho0, by the kernel that the cost rule
    of the module docstring picks for the single time t.

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
    return _indicator(t, _bch_constant(_frame(scenario)))


def _indicator(t: float, kappa: float) -> float:
    """(t^2/2) kappa, exactly 0 for a commuting scenario even where t^2
    overflows."""
    return 0.5 * t * t * kappa if kappa else 0.0


def _bch_constant(frame: _Frame) -> float:
    """||[A, B]||_F = sqrt(2 sum_{a,c} |H'_ac|^2 D_ac), independent of t."""
    # |H'| and G scaled by powers of two to at most 1, so no square
    # overflows and no digit changes; only the result may overflow, to inf.
    eh, eg = np.frexp(np.abs(frame.h).max())[1], np.frexp(frame.g.max())[1]
    h, g = np.ldexp(np.abs(frame.h), -eh), np.ldexp(frame.g, -eg)
    # Direct differences: equal-label columns give D = 0 exactly, where an
    # expansion into squares would leave cancellation noise.
    d = ((g[:, :, None] - g[:, None, :]) ** 2).sum(0)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(2.0 * np.sum(h ** 2 * d)), eh + eg))


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
    ``times``, a sequence, one (b, n, n) stack per chunk, from the kernel
    that the cost rule of the module docstring picks for the grid."""
    nu = _norm_bound(frame)
    if 17.0 * (float(times[-1]) * nu + len(times)) <= frame.v.shape[0] ** 3 / 3.0:
        return _taylor_states(frame, times, nu)
    return _ladder_states(frame, times, nu)


def _norm_bound(frame: _Frame) -> float:
    """nu = (w_max - w_min) + max G >= ||L|| of the module docstring."""
    w = np.linalg.eigvalsh(frame.h)
    return float(w[-1] - w[0] + frame.g.max())


def _generator(frame: _Frame):
    """X -> L(X) = Z + Z^dag - G o X, Z = -i H' X, for Hermitian X or a stack
    of them; each L(X) is exactly Hermitian."""
    mih = -1j * _hermitian_part(frame.h)
    # Complex, so the Schur product takes no mixed-type loop; same values.
    g = frame.g.astype(complex)

    def apply(x):
        z = mih @ x
        z += z.conj().swapaxes(-1, -2)
        z -= g * x
        return z

    return apply


def _lattice_walk(x, times, lattice):
    """Yield the states at the ascending non-negative ``times``, one stack
    per chunk, walking the state ``x`` from t = 0 along a lattice of points
    j tau.

    ``lattice(t)``, called at the first positive time t, returns tau and
    two functions: ``series(y)``, the stacked terms of the Taylor series of
    exp(tau L) y, and ``advance(y, m)``, the state m lattice points on. A
    time inside a cell weights the terms of the cell's series, taken once;
    a cell whose series is taken is crossed by its sum.
    """
    eps = np.finfo(float).eps
    tau, j, terms = None, 0, None
    for chunk in _chunks(times):
        states = []
        for t in chunk:
            if tau is None and t > 0.0:
                tau, series, advance = lattice(t)
            # t = (i + sigma) tau with 0 <= sigma < 1. A time within
            # 8 eps s of a lattice point is that point: the rest is the
            # rounding of the grid, not time.
            s = float(t) / tau if tau else 0.0
            if s == math.inf:
                # Past the float range t is an integer, and 8 eps s is far
                # over a cell: i is the floor of the exact quotient.
                num, den = tau.as_integer_ratio()
                i, sigma = int(t) * den // num, 0.0
            else:
                i, sigma = round(s), 0.0
                if abs(s - i) > 8.0 * eps * s:
                    i, sigma = math.floor(s), s - math.floor(s)
            if i > j:
                if terms is not None:
                    x, j = terms.sum(0), j + 1
                x, j, terms = advance(x, i - j), i, None
            if sigma > 0.0:
                if terms is None:
                    terms = series(x)
                weights = sigma ** np.arange(len(terms))
                states.append((weights @ terms.reshape(len(terms), -1)).reshape(x.shape))
            else:
                states.append(x)
        yield np.array(states)


def _taylor_states(frame: _Frame, times, nu: float):
    """Yield the exact states in the frame at the ascending non-negative
    ``times``, one (b, n, n) stack per chunk, by matrix-free Taylor series on
    the lattice of substeps tau = _THETA / nu, for a bound ``nu`` >= ||L||."""
    gen = _generator(frame)
    # nu = 0 puts every time on the lattice point 0.
    tau = _THETA / nu if nu > 0.0 else math.inf

    def step(y, k):
        # (tau/k) L(y), exactly Hermitian for Hermitian y.
        z = gen(y)
        z *= tau / k
        return z

    def series(y):
        return np.array(_taylor_action(step, _THETA, y))

    def advance(y, m):
        for _ in range(m):
            y = series(y).sum(0)
        return y

    yield from _lattice_walk(_hermitian_part(frame.x0), times, lambda t: (tau, series, advance))


def _ladder_states(frame: _Frame, times, nu: float):
    """Yield the exact states in the frame at the ascending non-negative
    ``times``, one (b, n, n) stack per chunk, walking the coordinates under
    the real generator M of the module docstring on the lattice of its base
    beta, for a bound ``nu`` >= ||M||_2 that sets beta and the series' bound."""
    n = frame.v.shape[0]
    q, pairs = _traceless_basis(n)
    basis = _traceless(np.eye(n * n - 1), q, pairs)
    gen = _coordinates(_generator(frame)(basis), q, pairs).T

    def lattice(t):
        # t nu = f 2^e with 1/2 <= f < 1, so beta nu = f; e is taken from
        # the factors, since t nu may overflow. E_0 = exp(beta M) is the
        # scenario's one Pade exponential.
        (ft, et), (fn, en) = math.frexp(t), math.frexp(nu)
        beta = math.ldexp(t, -(math.frexp(ft * fn)[1] + et + en))
        ladder = [matexp(beta * gen)]

        def series(y):
            return np.array(_taylor_action(lambda z, k: (beta / k) * (gen @ z), beta * nu, y))

        def advance(y, m):
            # E_{j+1} = E_j E_j, squared only as far as m needs; a squaring
            # that overflows is reported, not walked on.
            for j in range(m.bit_length()):
                if j == len(ladder):
                    with np.errstate(over="ignore", invalid="ignore"):
                        ladder.append(ladder[-1] @ ladder[-1])
                    if not np.isfinite(ladder[-1]).all():
                        # Decimal, as m beta nu may be past the float range;
                        # imported here, off the start-up path of every run.
                        from decimal import Decimal
                        raise FloatingPointError("exact propagator overflows at t nu = "
                                                 f"{m * Decimal(beta * nu):.3g}")
                if m >> j & 1:
                    y = ladder[j] @ y
            return y

        return beta, series, advance

    for coords in _lattice_walk(_coordinates(frame.x0, q, pairs), times, lattice):
        yield _traceless(coords, q, pairs) + np.eye(n) / n
