"""Dense complex-matrix kernel.

Kronecker products, row-stacking vectorization, matrix exponentials and
Hermitian eigenvalues, all on plain ``numpy`` arrays of ``complex128``.
Every function is pure; inputs are never modified.

The vectorization convention is row stacking: an n x n matrix X maps to
the length n^2 vector (x11, x12, ..., x1n, ..., xn1, ..., xnn). Under
this convention vec(A X B) = (A kron B^T) vec(X), which fixes the
A kron B^T form used by the superoperator builders elsewhere in the
package. Column stacking would silently flip it to B^T kron A.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, InvalidInputError

#: Relative tolerance of every "is Hermitian" gate in the package.
HERMITICITY_TOL = 1e-10

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


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Frobenius norm of a matrix or vector."""
    return float(np.linalg.norm(np.asarray(m)))


def hermiticity_residual(m) -> float:
    """Relative Hermiticity defect ||m - m^dag||_F / max(1, ||m||_F)."""
    a = np.asarray(m, dtype=complex)
    return frobenius(a - a.conj().T) / max(1.0, frobenius(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices.

    Block (i, j) of the result equals a[i, j] * b; the output shape is
    (a.rows * b.rows, a.cols * b.cols).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("kron expects two 2-D matrices")
    return np.kron(a, b)


def vectorize(x) -> np.ndarray:
    """Row-stack a square matrix into a length n^2 vector."""
    a = _as_square(x)
    return a.reshape(-1).copy()


def devectorize(v, n: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: reshape a length n^2 vector to n x n."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {a.shape}")
    if a.shape[0] != n * n:
        raise DimensionError(f"vector of length {a.shape[0]} cannot fill a {n}x{n} matrix")
    return a.reshape(n, n).copy()


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a diagonal Pade approximant.

    Degree is chosen from the 1-norm of the input; norms above the degree-13
    threshold are scaled down by a power of two and squared back.
    """
    n = a.shape[0]
    ident = np.eye(n, dtype=complex)
    norm = np.linalg.norm(a, 1)

    squarings = 0
    if norm > _PADE_THETA[-1][1]:
        squarings = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[-1][1]))))
        a = a / (2.0 ** squarings)
        degree = 13
    else:
        degree = next(m for m, theta in _PADE_THETA if norm <= theta)

    c = _PADE_COEFFS[degree]
    if degree == 13:
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * ident)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
             + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * ident)
    else:
        # Even powers I, A^2, A^4, ...; U collects odd coefficients, V even.
        powers = [ident, a @ a]
        for _ in range((degree - 1) // 2 - 1):
            powers.append(powers[-1] @ powers[1])
        u = sum(c[j] * powers[(j - 1) // 2] for j in range(1, degree + 1, 2))
        u = a @ u
        v = sum(c[j] * powers[j // 2] for j in range(0, degree + 1, 2))

    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def matexp(m, assume: str | None = None) -> np.ndarray:
    """Matrix exponential exp(m).

    Parameters
    ----------
    m : array_like
        Square complex matrix with finite entries.
    assume : {None, "hermitian", "anti_hermitian"}, optional
        With ``None`` the general scaling-and-squaring Pade path is used.
        The other two values select an eigendecomposition path and require
        the input to actually have the claimed symmetry (checked against
        the relative tolerance ``HERMITICITY_TOL``).
    """
    a = _as_square(m)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError("matexp input contains NaN or Inf entries")

    if assume is None:
        return _pade_expm(a)
    if assume == "hermitian":
        if hermiticity_residual(a) > HERMITICITY_TOL:
            raise InvalidInputError("matrix flagged hermitian fails the Hermiticity gate")
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
        return (v * np.exp(w)) @ v.conj().T
    if assume == "anti_hermitian":
        anti = frobenius(a + a.conj().T) / max(1.0, frobenius(a))
        if anti > HERMITICITY_TOL:
            raise InvalidInputError("matrix flagged anti_hermitian fails the symmetry gate")
        h = -1j * a  # Hermitian generator: m = i h
        w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
        return (v * np.exp(1j * w)) @ v.conj().T
    raise ValueError(f"unknown assume={assume!r}")


def hermitian_eigenvalues(m) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending.

    The input must pass the Hermiticity gate; the symmetrized matrix is
    handed to a dense Hermitian solver.
    """
    a = _as_square(m)
    if hermiticity_residual(a) > HERMITICITY_TOL:
        raise InvalidInputError(
            f"matrix is not Hermitian within {HERMITICITY_TOL:g} "
            f"(residual {hermiticity_residual(a):.3e})"
        )
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)
