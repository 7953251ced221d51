"""Domain types and superoperator builders for the projector-dissipator model.

The master equation handled by this package is

    d/dt rho = -i [H, rho] - D(rho),
    D(rho) = (1/2) sum_j lambda_j (P_j rho Q_j + Q_j rho P_j),  Q_j = 1 - P_j,

with mutually orthogonal Hermitian projectors P_j and positive rates
lambda_j. This module owns the validated value types (states, Hamiltonians,
projector families, scenarios) and the builders that lift the generator into
the n^2-dimensional vectorized representation.

The vectorization convention is row stacking: an n x n matrix X maps to
the length n^2 vector X.reshape(-1) = (x11, x12, ..., x1n, ..., xnn).
Under this convention vec(A X B) = (A kron B^T) vec(X), which fixes the
A kron B^T form of the builders below. Column stacking would silently
flip it to B^T kron A.

All types are immutable after construction: arrays are copied in and marked
read-only, so instances may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, InvalidInputError
from .linalg import VALIDATION_TOL, _hermitian_part, hermiticity_residual

# Every gate reads "not residual <= tol", so a NaN residual fails it. Entries
# near the float limit overflow to such a residual; numpy need not warn about
# it as well, so residuals are taken with those warnings off, as in linalg.


def _frozen_complex(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of the system.

    Validated at construction: Hermiticity residual, |trace - 1| and the
    most negative eigenvalue must all be within ``VALIDATION_TOL``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _frozen_complex(self.matrix, "density matrix")
        residual = hermiticity_residual(a)
        if not residual <= VALIDATION_TOL:
            raise InvalidInputError(f"density matrix is not Hermitian (residual {residual:.3e})")
        with np.errstate(over="ignore", invalid="ignore"):
            tr = np.trace(a)
            if not abs(tr - 1.0) <= VALIDATION_TOL:
                raise InvalidInputError(f"density matrix trace is {tr:.12g}, expected 1")
            min_eig = float(np.linalg.eigvalsh(_hermitian_part(a))[0])
        if not min_eig >= -VALIDATION_TOL:
            kind = "negative" if np.isfinite(min_eig) else "non-finite"
            raise InvalidInputError(f"density matrix has {kind} eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of the unitary part (hbar = 1 convention)."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _frozen_complex(self.matrix, "Hamiltonian")
        residual = hermiticity_residual(a)
        if not residual <= VALIDATION_TOL:
            raise InvalidInputError(f"Hamiltonian is not Hermitian (residual {residual:.3e})")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FamilyValidation:
    """Per-member residual report produced by :func:`validate_family`."""

    hermiticity: tuple[float, ...]
    idempotency: tuple[float, ...]
    orthogonality: tuple[tuple[int, int, float], ...]
    rates: tuple[float, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        """Human-readable report, one line per checked quantity."""
        out = [f"tolerance: {VALIDATION_TOL:g}"]
        for j, (h, i, r) in enumerate(zip(self.hermiticity, self.idempotency, self.rates)):
            out.append(f"projector {j}: hermiticity {h:.3e}  idempotency {i:.3e}  rate {r:g}")
        for j, k, res in self.orthogonality:
            out.append(f"projector pair ({j}, {k}): orthogonality {res:.3e}")
        out.append("result: PASS" if self.passed else "result: FAIL")
        out.extend(f"  {msg}" for msg in self.failures)
        return out


def validate_family(members) -> FamilyValidation:
    """Check projector-family axioms and report residuals.

    ``members`` is a sequence of (matrix, rate) pairs. Each projector must be
    Hermitian and idempotent, distinct projectors must be mutually orthogonal
    (P_j P_k = 0), all within ``VALIDATION_TOL``, and every rate must be a
    positive finite number. The report never raises on numeric violations;
    structural problems (non-square or mismatched shapes) do raise.
    """
    mats = []
    rates = []
    for j, (m, rate) in enumerate(members):
        mats.append(_frozen_complex(m, f"projector {j}"))
        rates.append(float(rate))
    dims = {m.shape[0] for m in mats}
    if len(dims) > 1:
        raise DimensionError(f"projectors have mixed dimensions {sorted(dims)}")

    with np.errstate(over="ignore", invalid="ignore"):
        herm = [float(np.linalg.norm(p - p.conj().T)) for p in mats]
        idem = [float(np.linalg.norm(p @ p - p)) for p in mats]
        ortho = [(j, k, float(np.linalg.norm(mats[j] @ mats[k])))
                 for j in range(len(mats)) for k in range(j + 1, len(mats))]
    failures = []
    for j in range(len(mats)):
        for what, res in (("hermiticity", herm[j]), ("idempotency", idem[j])):
            if not res <= VALIDATION_TOL:
                failures.append(
                    f"projector {j}: {what} residual {res:.3e} exceeds {VALIDATION_TOL:g}")
    for j, k, res in ortho:
        if not res <= VALIDATION_TOL:
            failures.append(
                f"projector pair ({j}, {k}): not mutually orthogonal "
                f"(residual {res:.3e} exceeds {VALIDATION_TOL:g})")
    for j, rate in enumerate(rates):
        if not np.isfinite(rate) or rate <= 0.0:
            failures.append(f"projector {j}: rate must be a positive number, got {rate!r}")

    return FamilyValidation(
        hermiticity=tuple(herm),
        idempotency=tuple(idem),
        orthogonality=tuple(ortho),
        rates=tuple(rates),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ProjectorFamily:
    """Ordered family of mutually orthogonal projectors with decay rates.

    Construction is fail-fast: the axioms checked by :func:`validate_family`
    must hold or ``InvalidInputError`` is raised. An empty family is allowed
    (pure unitary evolution) but then ``dim`` must be given explicitly.
    Projector ranks may exceed one; completeness (sum P_j = 1) is not
    required.
    """

    members: tuple
    dim: int = field(default=0)

    def __post_init__(self):
        pairs = [( _frozen_complex(p, f"projector {j}"), float(rate))
                 for j, (p, rate) in enumerate(self.members)]
        if pairs:
            n = pairs[0][0].shape[0]
        elif self.dim > 0:
            n = int(self.dim)
        else:
            raise InvalidInputError("empty family needs an explicit dim")
        if self.dim and pairs and self.dim != n:
            raise DimensionError(f"dim={self.dim} does not match projector size {n}")
        report = validate_family(pairs)
        if not report.passed:
            raise InvalidInputError("invalid projector family: " + "; ".join(report.failures))
        object.__setattr__(self, "members", tuple(pairs))
        object.__setattr__(self, "dim", n)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def projectors(self) -> tuple:
        return tuple(p for p, _ in self.members)

    @property
    def rates(self) -> tuple:
        return tuple(rate for _, rate in self.members)


@dataclass(frozen=True)
class Scenario:
    """A propagation problem: Hamiltonian, projector family, initial state
    and the time grid on which to evaluate the solutions."""

    hamiltonian: Hamiltonian
    family: ProjectorFamily
    initial_state: DensityMatrix
    time_grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.time_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidInputError("time grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(grid)):
            raise InvalidInputError("time grid contains NaN or Inf")
        if grid[0] < 0.0:
            raise InvalidInputError(f"time grid starts at {grid[0]}, must be >= 0")
        if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
            raise InvalidInputError("time grid must be strictly ascending")
        grid.setflags(write=False)
        object.__setattr__(self, "time_grid", grid)
        dims = {self.hamiltonian.dim, self.family.dim, self.initial_state.dim}
        if len(dims) != 1:
            raise DimensionError(
                f"dimension mismatch: H is {self.hamiltonian.dim}, family is "
                f"{self.family.dim}, state is {self.initial_state.dim}")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def projector_from_vectors(vectors) -> np.ndarray:
    """Build P = sum_k v_k v_k^dag from an orthonormal list of column vectors.

    The vectors must be pairwise orthonormal within ``VALIDATION_TOL``;
    convenient for entering rank > 1 projectors.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vs:
        raise InvalidInputError("need at least one vector")
    n = vs[0].size
    if any(v.size != n for v in vs):
        raise DimensionError("vectors have mixed lengths")
    # Entries near the float limit overflow to a NaN residual, which the
    # gate below rejects; numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.array([[vj.conj() @ vk for vk in vs] for vj in vs])
        residual = np.linalg.norm(gram - np.eye(len(vs)))
    if not residual <= VALIDATION_TOL:
        raise InvalidInputError(f"vectors are not orthonormal (Gram residual {residual:.3e})")
    p = np.zeros((n, n), dtype=complex)
    for v in vs:
        p += np.outer(v, v.conj())
    return p


def hamiltonian_superop(h) -> np.ndarray:
    """Vectorized commutator generator -i (H kron 1 - 1 kron H^T).

    Applied to vec(rho) this equals vec(-i [H, rho]). The result is
    anti-Hermitian.
    """
    m = h.matrix if isinstance(h, Hamiltonian) else Hamiltonian(h).matrix
    eye = np.eye(m.shape[0], dtype=complex)
    return -1j * (np.kron(m, eye) - np.kron(eye, m.T))


def dissipator_superop(family: ProjectorFamily) -> np.ndarray:
    """Vectorized dissipator with the sign folded in:

        B = - sum_j (lambda_j / 2) (P_j kron Q_j^T + Q_j kron P_j^T)

    so that B vec(rho) = vec(-D(rho)) and exp(t B) is the pure-decoherence
    semigroup.
    """
    n = family.dim
    out = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for p, lam in family:
        q = eye - p
        out -= (lam / 2.0) * (np.kron(p, q.T) + np.kron(q, p.T))
    return out
