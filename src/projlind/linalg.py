"""Dense matrix kernel.

The Hermiticity gate and Hermitian part, the matrix exponential and the
Taylor series shared by both exact kernels, on plain ``numpy`` arrays:
``complex128``, except that :func:`matexp` keeps ``float64`` input real.
Every function is pure; inputs are never modified.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionError, InvalidInputError

#: Tolerance of every validation gate in the package (relative for Hermiticity).
VALIDATION_TOL = 1e-10

# Diagonal Pade approximant coefficients and the 1-norm thresholds below
# which each degree keeps the exponential at machine accuracy.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}
_PADE_THETA = (
    (3, 0.01495585217958292),
    (5, 0.2539398330063230),
    (7, 0.9504178996162932),
    (9, 2.097847961257068),
    (13, 5.371920351148152),
)


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


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a diagonal Pade approximant.

    Degree is chosen from the 1-norm of the input; norms above the degree-13
    threshold are scaled down by a power of two and squared back. The
    arithmetic stays in the input's dtype, so a real input stays real.
    """
    n = a.shape[0]
    ident = np.eye(n, dtype=a.dtype)
    norm = np.linalg.norm(a, 1)

    squarings = 0
    if norm > _PADE_THETA[-1][1]:
        squarings = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[-1][1]))))
        a = a / (2.0 ** squarings)
        degree = 13
    else:
        degree = next(m for m, theta in _PADE_THETA if norm <= theta)

    # Even powers I, A^2, A^4, ...; U collects odd coefficients, V even.
    c = _PADE_COEFFS[degree]
    powers = [ident, a @ a]
    for _ in range((degree - 1) // 2 - 1):
        powers.append(powers[-1] @ powers[1])
    u = a @ sum(c[j] * powers[(j - 1) // 2] for j in range(1, degree + 1, 2))
    v = sum(c[j] * powers[j // 2] for j in range(0, degree + 1, 2))

    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def _taylor_action(step, nu: float, x) -> list:
    """The terms x, S x, S^2 x / 2!, ..., S^k x / k! of the truncated Taylor
    series of exp(S) x, for an operator S with a norm bound ``nu`` >= ||S||;
    ``step(y, k)`` returns S y / k. Their sum is the series.

    The series stops at the first degree k with nu^(k+1) / (k+1)! <= u/2, u
    the unit roundoff, which bounds the relative truncation error (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011)); at nu = 1 that is degree 18, at
    nu = 3 degree 28, and nu = 0 returns x alone. Each term costs one call of
    ``step``: a matrix-vector product for the dense exact kernel, or one
    n x n product for the matrix-free kernel in :mod:`projlind.propagators`.
    Both sum the terms to cross a cell of their lattice and weight them for
    the grid points inside it.
    """
    half_u = np.finfo(float).eps / 4.0
    terms = [x]
    k, bound = 0, nu
    while bound > half_u:
        k += 1
        terms.append(step(terms[-1], k))
        bound *= nu / (k + 1)
    return terms


def matexp(m) -> np.ndarray:
    """Matrix exponential exp(m) of a square matrix with finite entries.

    ``float64`` input stays real; anything else is computed in
    ``complex128``. A complex input that equals minus its conjugate
    transpose to the bit, m = i h with h Hermitian, takes one
    eigendecomposition of h, so its result is unitary to rounding; every
    other input takes scaling-and-squaring Pade.
    """
    a = np.asarray(m)
    a = a.astype(float if a.dtype == np.float64 else complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matexp input contains NaN or Inf entries")
    if a.dtype == complex and np.array_equal(a, -a.conj().T):
        w, v = np.linalg.eigh(-1j * a)
        return (v * np.exp(1j * w)) @ v.conj().T
    return _pade_expm(a)
