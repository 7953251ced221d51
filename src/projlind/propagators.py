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
H' = V^dag H V, X0 = V^dag rho0 V), with H' and X0 taken as the Hermitian
parts of those products, so both equal their conjugate transposes to the
bit; a state rho appears in it as V^dag rho V. The frame also keeps the
one eigendecomposition H' = W diag(w) W^dag, w ascending, that every
later use of the spectrum of H' reads.

There the factorized state is U' (exp(-tG) o X0) U'^dag with
U' = exp(-i t H'). Only differences of the eigenvalues w enter it, so the
phases are centred on the midpoint c = (w_min + w_max)/2 of the spectrum:
U' is taken as W diag(exp(-i t (w - c))) W^dag, by
:func:`projlind.linalg.matexp` once per chunk of times, and
|w_k - c| <= (w_max - w_min)/2 (Moler & Van Loan, SIAM Rev. 45, 3 (2003),
on the eigenvector route to exp(tM) for normal M). Where t (w_k - c)
overflows, there is no factor to take, and the closed form raises an error
that gives that t; a common phase, as of H = 2 * 1, never overflows.
The Schur factor is the paper's pair expansion
prod_j (1 + (e^{-lambda_j t/2} - 1) R_j), with
R_j = P_j kron Q_j^T + Q_j kron P_j^T, summed in closed form; the literal
product and the multiplied-out pair sum are independent oracles in the test
suite. The dropped Baker-Campbell-Hausdorff term starts at -(1/2) [tA, tB],
so the splitting error is second order in t, and :func:`bch_error_indicator`
bounds it by

    (1/2) ||[tA, tB]||_F = (t^2/2) sqrt(2 sum_{a,c} |H'_ac|^2 D_ac),
    D_ac = sum_x (G_xa - G_xc)^2,

whose square root is computed once per scenario, as a mantissa and a
binary exponent: the indicator is then finite wherever (t^2/2) ||[A, B]||_F
is, even where ||[A, B]||_F itself overflows. Neither forms an n^2 x n^2
array.

The exact generator in the frame, L(X) = -i (H'X - XH') - G o X, preserves
Hermiticity and the trace, and it has two kernels. Each walks the grid on
a lattice of points j tau with its own step tau. At the lattice point x_j
of a cell that holds grid times, a kernel takes the terms
T_k = (tau L)^k x_j / k! of one truncated Taylor series, by the stopping
rule of :func:`projlind.linalg._taylor_action`, once for all the grid
times inside the cell. A grid time t = (j + sigma) tau, 0 <= sigma < 1,
gets the dense output sum_k sigma^k T_k, the series of
exp(sigma tau L) x_j, whose truncation bound (sigma tau nu)^(k+1) / (k+1)!
is no larger than the cell's. A time within 8 eps s of a lattice point,
s = t / tau and eps = 2^-52, is that point: the rest is the rounding of
the grid's points, not time. Where s overflows, as at t = 1e308, the
lattice index is the exact integer quotient, so grid times reach the float
maximum. The two kernels share this cell rule and differ in how they
cross cells: the matrix-free kernel takes its series cell by cell and
crosses each such cell by its sum; the dense kernel crosses every cell by
its ladder and takes one series per chunk, on the stack of the chunk's
distinct cell starts.

The matrix-free kernel applies L to the n x n frame state, one n x n
product per application: with Z = -i tau H' T,

    tau L(T) = Z + Z^dag - (tau G) o T

for Hermitian T, and each such sum is exactly Hermitian, so every state
walked from X0 is Hermitian to the last bit. Its lattice is a fixed one
of substeps tau = _THETA / nu, _THETA = 3, where

    nu = (w_max - w_min) + max G,   w the eigenvalues of H',

bounds ||L|| in the norm induced by the Frobenius norm: in the eigenbasis
of H' the commutator part multiplies the (a, b) element by -i (w_a - w_b),
so it is normal with spectral radius w_max - w_min, and the decay part
multiplies the (a, b) element by -G_ab, so its norm is max G; the
triangle inequality adds them. nu reads w from the frame, and nu = 0
(n = 1, or H' a multiple of 1 with no decay) takes no series.
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
E_0 through more squarings than the walk needs.) The walk goes from
one point's cell start to the next, and an advance of m cells applies E_j
for each set bit of m, on one ladder of squarings: E_0 = exp(beta M) is
the scenario's one matrix polynomial, :func:`projlind.linalg._taylor_expm`:
the Taylor polynomial of degree 18, whose remainder at
||beta M||_2 <= beta nu < 1 is below the series' stopping bound, in 7
matrix products. E_{j+1} = E_j E_j is squared only as far as the largest
advance needs, and never past an E_j with no nonzero entry: every later
square is 0 too, so an advance that needs one applies that 0 once. A far
horizon of a decaying scenario so holds only the squarings that reach 0,
not log2(t / beta) of them. Each chunk then takes one series, with the
same bound beta nu < 1 and so at most degree 18, on the (u, N) stack of its u
distinct cell starts that hold points inside their cells; each term is
one product of the stack with M^T (Al-Mohy & Higham's Taylor action on a
block of vectors, SIAM J. Sci. Comput. 33 (2011)). Every point of a
uniform grid from 0 with a step of at least 1/(2 nu) is a lattice point,
so such a grid takes no series and costs the polynomial and the
squarings up to its step; a finer one takes one series per chunk that
holds one of its points inside a cell. Each state
1/n + sum_k x_k F_k is Hermitian by construction and has trace 1 to
rounding, however stiff t L is. Its cost, O(n^6) for the polynomial and
the squarings, hardly depends on the grid.

exp(tM) is a contraction, so the dense kernel checks each chunk's
coordinate vectors once, before they become states: an x_t that is not
finite, or longer than ||x_0||_2 (1 + c n^2 u (1 + t nu)) with
c = _CONTRACTION_SLACK, raises an error that gives t. That happens where
the squarings amplify the rounding of an undamped mode (a conserved
quantity or an undamped coherence, an eigenvalue of M on the imaginary
axis) past the bound or until it overflows: E_0 rounds the modulus of its
eigenvalue to 1 + O(u), and each squaring doubles the excess (Baumgartner
& Narnhofer, J. Phys. A 41, 395303 (2008), on that peripheral spectrum).
Decaying modes damp their own rounding. Short of the bound, no norm check
sees the rounding of undamped modes: past t nu ~ 1e14 their phases carry
about u t nu of it, on the closed form as well, and their moduli may
shrink, or grow up to the bound. The matrix-free kernel takes no check: the cost rule gives it only
t nu <= n^3 / 51, where its rounding stays near c n u t nu.

A scenario's exact states come from the matrix-free kernel when nu = 0 or

    17 (t nu + b) <= n^3 / 3

for a grid of b points ending at t: the Taylor kernel's n x n products
against the dense kernel's build, polynomial and squarings, in units
of n^3, as measured on one BLAS thread. Its 17 is the terms per unit of
t nu of substeps with tau nu <= 1, about twice the lattice's 9.3, so the
rule errs toward the dense kernel; at n = 10 the two kernels measure about
even. A scenario with nu = 0 has no dynamics (H' a multiple of 1 and no
decay): the matrix-free kernel puts every time on lattice point 0 and
returns X0 with no series at any horizon, where the dense kernel's ladder
of exact identities would never reach a zero top. The rule reads only
the scenario and its grid, never a clock, so a run repeats to the bit. A
12-point grid with t nu near 15 goes matrix-free from n = 12 up, which
reaches n = 64; a grid with t nu in the thousands stays dense below
n = 59.
Both kernels share one applicator of L, the bound nu, the Taylor
stopping rule, the cell rule and the dense output. The unstructured route
exp(t (A + B)) is an oracle in the test suite.

The closed form takes no eigendecomposition of its own. Both paths
work on chunks of at most _CHUNK consecutive times and yield one
(b, n, n) stack of states per chunk: the exact kernels collect a chunk's
states (the dense one rebuilds them from its coordinate vectors in one
call), and the closed form applies its unitary factors as stacked
products. The states of a sweep so take O(n^4 + _CHUNK n^2) numbers
whatever the length of its grid; the records that
:func:`projlind.analysis.sweep` returns still grow with it, by about 330
bytes per point. Only the public functions rotate a frame state back to the
lab frame.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError
from .linalg import _hermitian_part, _taylor_action, _taylor_expm, matexp
from .model import Scenario

#: Most time points in one stack of states; bounds the memory of a sweep.
_CHUNK = 64

#: tau nu of the matrix-free kernel's substeps.
_THETA = 3.0

#: c of the dense kernel's contraction check ||x_t|| <= ||x_0|| (1 + c n^2 u
#: (1 + t nu)), u the unit roundoff: 20 times the largest excess over the
#: walks of the test suite.
_CONTRACTION_SLACK = 16.0


class _Frame(NamedTuple):
    """(V, G, H', X0) of the module docstring, and the eigendecomposition
    H' = W diag(w) W^dag, w ascending."""

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    wv: np.ndarray


def _rotation(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, G and H' of the frame, from one eigendecomposition: that of the
    projectors' weights for V. H' is made exactly Hermitian here, and
    nowhere else.

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
    return v, g, _hermitian_part(v.conj().T @ scenario.hamiltonian.matrix @ v)


def _frame(scenario: Scenario) -> _Frame:
    """The scenario's frame: _rotation's V, G and H', X0 made exactly
    Hermitian here and nowhere else, and a second eigendecomposition, of H'
    for its spectrum."""
    v, g, h = _rotation(scenario)
    x0 = _hermitian_part(v.conj().T @ scenario.initial_state.matrix @ v)
    return _Frame(v, g, h, x0, *np.linalg.eigh(h))


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
    cost of the frame and a few n x n products, whatever the number of
    projectors.

    Returns the lab-frame state as a plain ndarray, still unvalidated."""
    return _propagate(scenario, t, _approx_states)


def _propagate(scenario: Scenario, t, states) -> np.ndarray:
    """The state that ``states`` yields at ``t``, rotated back to the lab frame."""
    t = _check_time(t)
    frame = _frame(scenario)
    return frame.v @ next(states(frame, [t]))[0] @ frame.v.conj().T


def bch_error_indicator(scenario: Scenario, t) -> float:
    """(1/2) ||[tA, tB]||_F from the frame's G and H', by the module docstring;
    it takes neither the spectrum of H' nor X0.

    Zero exactly when the scenario commutes; grows quadratically in t. It
    bounds the splitting error: A is anti-Hermitian and B Hermitian negative
    semidefinite, so both semigroups contract, and variation of constants
    gives ||rho_exact(t) - rho_approx(t)||_F <= (t^2/2) ||[A, B]||_2 ||rho0||_F,
    at most this value since ||rho0||_F <= 1 and ||.||_2 <= ||.||_F
    (Jahnke & Lubich, BIT 40 (2000); Childs et al., PRX 11, 011020 (2021)).
    """
    t = _check_time(t)
    return float(_indicator(t, _bch_constant(*_rotation(scenario)[1:])))


def _indicator(ts, kappa: tuple[float, int]) -> np.ndarray:
    """(t^2/2) kappa at the times ``ts``, for kappa = s 2^e given as (s, e).

    The mantissas of t and kappa are multiplied and the exponents added, so
    the result is 0 at t = 0 and for a commuting scenario, finite wherever
    the product is, even where t^2 or kappa overflows, and inf only where
    the product does; elsewhere it is 0.5 t t kappa to the bit.
    """
    (ft, et), (s, e) = np.frexp(ts), kappa
    with np.errstate(over="ignore"):
        return np.ldexp(0.5 * ft * ft * s, 2 * et + e)


def _bch_constant(g: np.ndarray, h: np.ndarray) -> tuple[float, int]:
    """||[A, B]||_F = sqrt(2 sum_{a,c} |H'_ac|^2 D_ac), independent of t, as
    (s, e) with ||[A, B]||_F = s 2^e, which may lie past the float range."""
    # |H'| and G scaled by powers of two to at most 1, so no square
    # overflows and no digit changes.
    eh, eg = np.frexp(np.abs(h).max())[1], np.frexp(g.max())[1]
    h, g = np.ldexp(np.abs(h), -eh), np.ldexp(g, -eg)
    # Direct differences: equal-label columns give D = 0 exactly, where an
    # expansion into squares would leave cancellation noise.
    d = ((g[:, :, None] - g[:, None, :]) ** 2).sum(0)
    return float(np.sqrt(2.0 * np.sum(h ** 2 * d))), int(eh + eg)


def _chunks(times):
    """Consecutive lists of at most _CHUNK of the ``times``; reads no time
    beyond the chunk it returns."""
    times = iter(times)
    while chunk := list(islice(times, _CHUNK)):
        yield chunk


def _approx_states(frame: _Frame, times):
    """Yield the factorized states U' (exp(-tG) o X0) U'^dag in the frame
    at the ``times``, one (b, n, n) stack per chunk.

    U' is W diag(exp(-i t (w - c))) W^dag, from the frame's H' = W diag(w)
    W^dag, with c the midpoint of the spectrum: only differences of the
    eigenvalues enter the state, and the centred phases t (w_k - c)
    overflow only where t (w_max - w_min) / 2 does.
    """
    c = frame.w[-1] / 2.0 + frame.w[0] / 2.0
    for chunk in _chunks(times):
        ts = np.array(chunk)
        # Where t (w_k - c) overflows there is no factor to take. t G may
        # overflow to inf, where the decay is exactly 0.
        with np.errstate(over="ignore", invalid="ignore"):
            u = matexp(frame.wv, frame.w - c, -ts)
            decayed = np.exp(-ts[:, None, None] * frame.g) * frame.x0
        finite = np.isfinite(u).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError("closed-form propagator overflows at t = "
                                     f"{chunk[np.argmin(finite)]:.3g}")
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
    if nu == 0.0 or 17.0 * (float(times[-1]) * nu + len(times)) <= frame.v.shape[0] ** 3 / 3.0:
        return _taylor_states(frame, times, nu)
    return _ladder_states(frame, times, nu)


def _norm_bound(frame: _Frame) -> float:
    """nu = (w_max - w_min) + max G >= ||L|| of the module docstring."""
    return float(frame.w[-1] - frame.w[0] + frame.g.max())


def _generator(frame: _Frame):
    """X -> L(X) = Z + Z^dag - G o X, Z = -i H' X, for Hermitian X or a stack
    of them; each L(X) is exactly Hermitian."""
    mih = -1j * frame.h
    # Complex, so the Schur product takes no mixed-type loop; same values.
    g = frame.g.astype(complex)

    def apply(x):
        z = mih @ x
        z += z.conj().swapaxes(-1, -2)
        z -= g * x
        return z

    return apply


def _cell(t, tau: float) -> tuple[int, float]:
    """(i, sigma) with t = (i + sigma) tau and 0 <= sigma < 1, on the
    lattice of points i tau, tau > 0 and possibly inf.

    A time within 8 eps s of a lattice point, s = t / tau, is that point:
    the rest is the rounding of the grid, not time. Past the float range t
    is an integer, and 8 eps s is far over a cell: i is the floor of the
    exact quotient.
    """
    eps = 2.0 ** -52
    s = float(t) / tau
    if s == math.inf:
        num, den = tau.as_integer_ratio()
        return int(t) * den // num, 0.0
    i = round(s)
    if abs(s - i) <= 8.0 * eps * s:
        return i, 0.0
    return math.floor(s), s - math.floor(s)


def _taylor_states(frame: _Frame, times, nu: float):
    """Yield the exact states in the frame at the ascending non-negative
    ``times``, one (b, n, n) stack per chunk, by matrix-free Taylor series
    on the lattice of substeps tau = _THETA / nu, for a bound ``nu`` >= ||L||.

    A time inside a cell weights the terms of the cell's series, taken once;
    the walk crosses a cell by the sum of its series, the one taken for a
    time inside it or a new one.
    """
    gen = _generator(frame)
    # nu = 0 puts every time on the lattice point 0.
    tau = _THETA / nu if nu > 0.0 else math.inf
    x, j, terms = frame.x0, 0, None
    for chunk in _chunks(times):
        states = []
        for t in chunk:
            i, sigma = _cell(t, tau)
            while j < i:
                if terms is None:
                    terms = np.array(_taylor_action(gen, tau, _THETA, x))
                x, j, terms = terms.sum(0), j + 1, None
            if sigma == 0.0:
                states.append(x)
                continue
            if terms is None:
                terms = np.array(_taylor_action(gen, tau, _THETA, x))
            weights = sigma ** np.arange(len(terms))
            states.append((weights @ terms.reshape(len(terms), -1)).reshape(x.shape))
        yield np.array(states)


def _ladder_states(frame: _Frame, times, nu: float):
    """Yield the exact states in the frame at the ascending non-negative
    ``times``, one (b, n, n) stack per chunk, walking the coordinates under
    the real generator M of the module docstring on the lattice of its base
    beta, for a bound ``nu`` >= ||M||_2 that sets beta and the series' bound."""
    n = frame.v.shape[0]
    q, pairs = _traceless_basis(n)
    basis = _traceless(np.eye(n * n - 1), q, pairs)
    gen = _coordinates(_generator(frame)(basis), q, pairs).T
    x = x0 = _coordinates(frame.x0, q, pairs)
    # exp(tM) is a contraction: ||x_t|| exceeds ||x_0|| by at most the walk's
    # rounding, c n^2 u ||x_0|| (1 + t nu). A longer or non-finite x_t is
    # rounding that the walk amplified, not a state. Where t nu overflows,
    # the bound is void (inf, or nan for x_0 = 0) and only finiteness counts.
    r0 = np.linalg.norm(x0)
    slack = r0 * _CONTRACTION_SLACK * n * n * np.finfo(float).eps / 2.0
    # Times before the first positive one are all 0, on lattice point 0.
    beta, ladder, j = math.inf, [], 0
    for chunk in _chunks(times):
        coords = np.empty((len(chunk), len(x0)))
        # The chunk's distinct cell starts that hold points inside their
        # cell, and (point, start, sigma) for each such point.
        starts, inside = [], []
        # Squarings that amplify rounding until it overflows are left to
        # the contraction check on the states walked.
        with np.errstate(over="ignore", invalid="ignore"):
            for p, t in enumerate(chunk):
                if not ladder and t > 0.0:
                    # t nu = f 2^e with 1/2 <= f < 1, so beta nu = f; e is
                    # taken from the factors, since t nu may overflow.
                    # E_0 = exp(beta M), with ||beta M||_2 <= beta nu < 1, is
                    # the scenario's one polynomial.
                    (ft, et), (fn, en) = math.frexp(t), math.frexp(nu)
                    beta = math.ldexp(t, -(math.frexp(ft * fn)[1] + et + en))
                    ladder.append(_taylor_expm(beta * gen))
                i, sigma = _cell(t, beta)
                # An advance of m cells applies E_b for each set bit b of m;
                # E_{b+1} = E_b E_b is squared only as far as m needs.
                m, j = i - j, i
                for b in range(m.bit_length()):
                    if b == len(ladder):
                        if not ladder[-1].any():
                            # Every later square is 0 too, and m has a set
                            # bit from b on: the advance applies 0 once.
                            x = ladder[-1] @ x
                            break
                        ladder.append(ladder[-1] @ ladder[-1])
                    if m >> b & 1:
                        x = ladder[b] @ x
                if sigma == 0.0:
                    coords[p] = x
                    continue
                # x is a new array exactly where the walk entered a new cell.
                if not starts or starts[-1] is not x:
                    starts.append(x)
                inside.append((p, len(starts) - 1, sigma))
            if inside:
                # One series on the stack of starts; each point weights the
                # terms of its own cell.
                terms = np.array(_taylor_action(lambda z: z @ gen.T, beta, beta * nu,
                                                np.array(starts)))
                p, c, sigma = (np.array(col) for col in zip(*inside))
                coords[p] = np.einsum("pk,kpn->pn", sigma[:, None] ** np.arange(len(terms)),
                                      terms[:, c])
            norms = np.linalg.norm(coords, axis=-1)
            bad = ~np.isfinite(norms) | (norms > r0 + slack * (1.0 + np.array(chunk) * nu))
        if bad.any():
            raise FloatingPointError("exact propagator lost accuracy at t = "
                                     f"{chunk[np.argmax(bad)]:.3g}")
        yield _traceless(coords, q, pairs) + np.eye(n) / n
