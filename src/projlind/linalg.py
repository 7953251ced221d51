"""Dense matrix kernel.

The Hermiticity gate and Hermitian part, the Taylor series shared by both
exact kernels, the dense kernel's Taylor polynomial and the closed form's
stack of unitary exponentials, on plain ``numpy`` arrays: ``complex128``, except that
the polynomial keeps its input's dtype. Every function is pure; inputs are
never modified.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionError, InvalidInputError

#: Tolerance of every validation gate in the package (relative for Hermiticity).
VALIDATION_TOL = 1e-10

#: 1/k! for k = 0..18, the coefficients of the Taylor polynomial of degree 18.
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(19))


def hermiticity_residual(m) -> float | np.ndarray:
    """Relative Hermiticity defect ||m - m^dag||_F / max(1, ||m||_F).

    A float for an n x n matrix; for a stack (..., n, n), the array of the
    defects of its matrices. Dividing a matrix whose largest real or
    imaginary part is at least 1 by a power of two that keeps that part at
    least 1 changes no bit of its defect (unless an entry underflows). So a
    stack, and a single matrix whose squared norms overflow, is scaled
    matrix by matrix to a largest part in [1, 2) before any norm is
    squared, and no squared norm overflows. A NaN or infinite entry gives a
    NaN or infinite defect, which fails every gate, and no numpy warning.
    """
    a = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if a.ndim == 2:
            # One BLAS dot per squared norm, as long as they stay finite:
            # the stacked reduction below costs a few microseconds more on
            # a single matrix.
            d, flat = (a - a.conj().T).ravel(), a.ravel()
            dd, ff = np.vdot(d, d).real, np.vdot(flat, flat).real
            if math.isfinite(dd + ff):
                return math.sqrt(dd) / max(1.0, math.sqrt(ff))
        largest = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1), keepdims=True)
        a = a / 2.0 ** np.maximum(np.frexp(largest)[1] - 1, 0)
        return (np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
                / np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1))))


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag) / 2 of a matrix or of each matrix of a stack (..., n, n).

    Halved before the sum, so entries near the float range cannot overflow;
    otherwise the result is (m + m^dag) / 2 to the bit, unless an entry is
    subnormal.
    """
    a = np.asarray(m, dtype=complex) / 2.0
    return a + a.conj().swapaxes(-1, -2)


def _taylor_action(step, nu: float, x) -> list:
    """The terms x, S x, S^2 x / 2!, ..., S^k x / k! of the truncated Taylor
    series of exp(S) x, for an operator S with a norm bound ``nu`` >= ||S||;
    ``step(y, k)`` returns S y / k. Their sum is the series.

    The series stops at the first degree k with nu^(k+1) / (k+1)! <= u/2, u
    the unit roundoff, which bounds the relative truncation error (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011)); at nu = 1 that is degree 18, at
    nu = 3 degree 28, and nu = 0 returns x alone. Each term costs one call of
    ``step``: for the dense exact kernel in :mod:`projlind.propagators` one
    product with the stack of a chunk's cell starts, for the matrix-free
    kernel one n x n product. Both weight the terms for the grid points
    inside a cell of their lattice; the matrix-free kernel also sums them to
    cross the cell.
    """
    half_u = np.finfo(float).eps / 4.0
    terms = [x]
    k, bound = 0, nu
    while bound > half_u:
        k += 1
        terms.append(step(terms[-1], k))
        bound *= nu / (k + 1)
    return terms


def _taylor_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square ``a`` with ||a||_2 < 1, in the dtype of ``a``.

    The Taylor polynomial of degree 18, sum_k a^k / k!, in Paterson-Stockmeyer
    form (SIAM J. Comput. 2 (1973)): blocks B_j = sum_i a^i / (4j + i)! of
    degree at most 3, summed by Horner's rule in a^4, so it takes 7 matrix
    products. Its remainder sum_{k > 18} ||a||^k / k! is below
    (20/19) / 19! < u/2, u the unit roundoff: the stopping bound of
    :func:`_taylor_action` at nu = 1, where that series also stops at
    degree 18.
    """
    a2 = a @ a
    powers = (np.eye(a.shape[0], dtype=a.dtype), a, a2, a2 @ a)
    a4 = a2 @ a2
    blocks = [sum(c * p for c, p in zip(_INV_FACTORIALS[k:k + 4], powers))
              for k in range(0, 19, 4)]
    out = blocks.pop()
    while blocks:
        out = a4 @ out + blocks.pop()
    return out


def matexp(m, ts) -> np.ndarray:
    """The stack of exp(t m) for the times t of the 1-d ``ts``, for a square
    ``complex128`` matrix m that equals minus its conjugate transpose to the
    bit, m = i h with h Hermitian: one eigendecomposition h = V diag(w) V^dag
    serves every t, as V diag(exp(i t w)) V^dag, unitary to rounding.

    Where t w_k overflows, that factor is not finite (numpy warns unless the
    caller silences it). Every other m raises :class:`InvalidInputError`, a
    real one included: this is the closed form's exp(-i t H'), and the exact
    kernels take their exponentials by Taylor series.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matexp input contains NaN or Inf entries")
    if a.dtype != complex or not np.array_equal(a, -a.conj().T):
        raise InvalidInputError("matexp input must be complex and exactly anti-Hermitian")
    w, v = np.linalg.eigh(-1j * a)
    phases = np.exp(1j * np.multiply.outer(np.asarray(ts, dtype=float), w))
    return (v * phases[:, None, :]) @ v.conj().T
