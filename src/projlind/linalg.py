"""Dense matrix kernel.

The Hermiticity gate and Hermitian part, the Taylor series shared by both
exact kernels, the dense kernel's Taylor polynomial (the stack of the first
four powers times a table of inverse factorials, then Horner's rule) and
the closed form's stack of unitary exponentials, which takes an
eigendecomposition and takes none itself, on plain ``numpy`` arrays:
``complex128``, except that the polynomial keeps its input's dtype. Every
function is pure; inputs are never modified.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance of every validation gate in the package (relative for Hermiticity).
VALIDATION_TOL = 1e-10

#: 1/k! for k = 0..18, the coefficients of the Taylor polynomial of degree 18.
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(19))


def hermiticity_residual(m) -> float | np.ndarray:
    """Relative Hermiticity defect ||m - m^dag||_F / max(1, ||m||_F).

    A float for an n x n matrix; for a stack (..., n, n), the array of the
    defects of its matrices. Dividing a matrix whose largest real or
    imaginary part is at least 1 by a power of two that keeps that part at
    least 1 changes no bit of its defect (unless an entry underflows). So
    each matrix is scaled to a largest part in [1, 2) before any norm is
    squared, and no squared norm overflows. A NaN or infinite entry gives a
    NaN or infinite defect, which fails every gate, and no numpy warning.
    """
    a = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        largest = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1), keepdims=True)
        a = a / 2.0 ** np.maximum(np.frexp(largest)[1] - 1, 0)
        residual = (np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
                    / np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1))))
    return float(residual) if a.ndim == 2 else residual


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag) / 2 of a matrix or of each matrix of a stack (..., n, n).

    Halved before the sum, so entries near the float range cannot overflow;
    otherwise the result is (m + m^dag) / 2 to the bit, unless an entry is
    subnormal.
    """
    a = np.asarray(m, dtype=complex) / 2.0
    return a + a.conj().swapaxes(-1, -2)


def _taylor_action(op, h: float, nu: float, x) -> list:
    """The terms x, h S x, (h S)^2 x / 2!, ..., (h S)^k x / k! of the
    truncated Taylor series of exp(h S) x, for an operator S, applied as
    ``op(y)`` = S y, a step ``h`` and a norm bound ``nu`` >= ||h S||. Their
    sum is the series. ``op`` returns a new array, which is scaled in place
    by h / k into the term of degree k.

    The series stops at the first degree k with nu^(k+1) / (k+1)! <= u/2, u
    the unit roundoff, which bounds the relative truncation error (Al-Mohy &
    Higham's expmv(t, A, b), SIAM J. Sci. Comput. 33 (2011)); at nu = 1 that
    is degree 18, at nu = 3 degree 28, and nu = 0 returns x alone. Each term
    costs one call of ``op``: for the dense exact kernel in
    :mod:`projlind.propagators` one product with the stack of a chunk's cell
    starts, for the matrix-free kernel one n x n product. Both weight the
    terms for the grid points inside a cell of their lattice; the
    matrix-free kernel also sums them to cross the cell.
    """
    half_u = np.finfo(float).eps / 4.0
    terms = [x]
    k, bound = 0, nu
    while bound > half_u:
        k += 1
        z = op(terms[-1])
        z *= h / k
        terms.append(z)
        bound *= nu / (k + 1)
    return terms


def _taylor_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square ``a`` with ||a||_2 < 1, in the dtype of ``a``.

    The Taylor polynomial of degree 18, sum_k a^k / k!, in Paterson-Stockmeyer
    form (SIAM J. Comput. 2 (1973)). The blocks B_j = sum_i a^i / (4j + i)!,
    i = 0..3, are one product of the 5 x 4 table of the 1/k! (k = 0..18,
    padded with one 0) with the stack (1, a, a^2, a^3); Horner's rule in a^4
    sums them in place, so the polynomial takes 7 matrix products. Its
    remainder sum_{k > 18} ||a||^k / k! is below (20/19) / 19! < u/2, u the
    unit roundoff: the stopping bound of :func:`_taylor_action` at nu = 1,
    where that series also stops at degree 18.
    """
    a2 = a @ a
    blocks = np.tensordot(np.reshape(_INV_FACTORIALS + (0.0,), (5, 4)),
                          np.stack((np.eye(len(a), dtype=a.dtype), a, a2, a2 @ a)), 1)
    a4 = a2 @ a2
    out = blocks[4]
    for b in blocks[3::-1]:
        out = np.add(b, a4 @ out, out=b)
    # A copy, so that exp(a) does not hold the other four blocks.
    return out.copy()


def matexp(v: np.ndarray, w: np.ndarray, ts) -> np.ndarray:
    """The stack of exp(i t h) = V diag(exp(i t w)) V^dag for the times t of
    the 1-d ``ts``, from the eigendecomposition h = V diag(w) V^dag of a
    Hermitian h: the n x n unitary ``v`` and the real eigenvalues ``w``. One
    decomposition serves every t, and each factor is unitary to rounding.

    Where t w_k overflows, that factor is not finite (numpy warns unless the
    caller silences it). This is the closed form's exp(-i t H'), from the
    frame's one eigendecomposition of H'; the exact kernels take their
    exponentials by Taylor series.
    """
    phases = np.exp(1j * np.multiply.outer(np.asarray(ts, dtype=float), w))
    return (v * phases[:, None, :]) @ v.conj().T
