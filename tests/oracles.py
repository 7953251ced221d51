"""Independent brute-force oracles and random generators for the test suite.

Nothing here calls into ``projlind``; the exponential oracle, the
reference log-log fit, the paper's coherence-block algebra R_j, the
two-qubit Pauli decomposition, the random model builders and the
benchmark's scenario generator are deliberately separate routes so the
package can be checked against them.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_expm(m):
    """Brute-force matrix exponential: scale below norm 1/2, sum the Taylor
    series to machine precision, square back up."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a)
    k = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    k = max(k, 0)
    a = a / (2.0 ** k)
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for j in range(1, 80):
        term = term @ a / j
        out = out + term
        if np.linalg.norm(term) < 1e-20 * max(1.0, np.linalg.norm(out)):
            break
    for _ in range(k):
        out = out @ out
    return out


def loglog_slope(times, gaps):
    """np.polyfit's least-squares slope of log(gaps) against log(times): the
    reference fit of the convergence order."""
    return float(np.polyfit(np.log(times), np.log(gaps), 1)[0])


def rand_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_hermitian(n, rng, scale=1.0):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (z + z.conj().T) / 2.0


def rand_density(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def rand_orthogonal_projectors(n, ranks, rng):
    """Mutually orthogonal projectors with the given ranks (sum <= n),
    built from disjoint column blocks of one random unitary."""
    assert sum(ranks) <= n
    u = rand_unitary(n, rng)
    out, start = [], 0
    for r in ranks:
        v = u[:, start:start + r]
        out.append(v @ v.conj().T)
        start += r
    return out


def rand_ranks(n, n_members, rng):
    """Random positive ranks for n_members orthogonal projectors in dim n."""
    ranks = []
    left = n
    for j in range(n_members):
        hi = left - (n_members - 1 - j)
        ranks.append(int(rng.integers(1, hi + 1)) if hi > 1 else 1)
        left -= ranks[-1]
    return ranks


def near_orthogonal_pair(eps):
    """P_1 = e_0 e_0^dag and P_2 = v v^dag with v = (eps, sqrt(1 - eps^2)),
    so that ||P_1 P_2||_F = eps; each is Hermitian and idempotent."""
    v = np.array([eps, np.sqrt(1.0 - eps * eps)])
    return np.diag([1.0, 0.0]), np.outer(v, v)


def perfbench_configs(workload, seed):
    """The config documents that ``perfbench/scenarios.py`` generates for
    ``workload`` and ``seed``, one per slot of the workload."""
    module = sys.modules.get("perfbench_scenarios")
    if module is None:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"
        spec = importlib.util.spec_from_file_location("perfbench_scenarios", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return [module.to_config(case) for case in module.generate(workload, seed)]


def apply_dissipator(members, rho):
    """D(rho) = (1/2) sum_j lambda_j (P_j rho Q_j + Q_j rho P_j), Q_j = 1 - P_j,
    for (P_j, lambda_j) pairs, summed term by term."""
    r = np.asarray(rho, dtype=complex)
    out = np.zeros_like(r)
    for p, lam in members:
        p = np.asarray(p, dtype=complex)
        q = np.eye(r.shape[0]) - p
        out = out + (lam / 2.0) * (p @ r @ q + q @ r @ p)
    return out


def dissipator_reference(members, rho):
    """Anticommutator form of the dissipator: (1/2) sum lam (P rho + rho P - 2 P rho P).

    This is the algebraic form NOT used by the implementation, kept here as
    the dual-route check.
    """
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for p, lam in members:
        p = np.asarray(p, dtype=complex)
        out = out + (lam / 2.0) * (p @ rho + rho @ p - 2.0 * p @ rho @ p)
    return out


def _unitary(h, t):
    """exp(-i t H) from the eigendecomposition of the Hermitian H."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def coherence_block_projector(p):
    """R = P kron Q^T + Q kron P^T, Q = 1 - P, the superoperator of
    rho -> P rho Q + Q rho P on row-stacked states. It is a projector, and
    across a mutually orthogonal family these commute, multiply pairwise to
    P_j kron P_k^T + P_k kron P_j^T and vanish in triples: the algebra that
    collapses exp(tB) into the closed form."""
    p = np.asarray(p, dtype=complex)
    q = np.eye(p.shape[0]) - p
    return np.kron(p, q.T) + np.kron(q, p.T)


def projector_exp(scale, r):
    """exp(scale R) = 1 + (e^scale - 1) R for a projector R."""
    r = np.asarray(r, dtype=complex)
    return np.eye(r.shape[0]) + (np.exp(scale) - 1.0) * r


def pauli_decompose(rho):
    """Two-qubit Bloch-type coefficients (p, q, r) with
    p_i = tr(rho (s_i kron 1)), q_j = tr(rho (1 kron s_j)) and
    r_ij = tr(rho (s_i kron s_j)), s = (SX, SY, SZ), so that

        rho = (1/4) (1 + sum_i p_i s_i kron 1 + sum_j q_j 1 kron s_j
                     + sum_ij r_ij s_i kron s_j)."""
    rho = np.asarray(rho, dtype=complex)
    eye = np.eye(2)
    p = np.array([np.trace(rho @ np.kron(s, eye)).real for s in (SX, SY, SZ)])
    q = np.array([np.trace(rho @ np.kron(eye, s)).real for s in (SX, SY, SZ)])
    r = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in (SX, SY, SZ)]
                  for si in (SX, SY, SZ)])
    return p, q, r


def pauli_reconstruct(p, q, r):
    """The state with the coefficients of :func:`pauli_decompose`."""
    eye = np.eye(2)
    sigmas = (SX, SY, SZ)
    out = np.kron(eye, eye).astype(complex)
    for i, s in enumerate(sigmas):
        out += p[i] * np.kron(s, eye) + q[i] * np.kron(eye, s)
        for j, sj in enumerate(sigmas):
            out += r[i, j] * np.kron(s, sj)
    return out / 4.0


def _factorized(h, superop, rho0, t):
    """(U kron U*) S vec(rho0) reshaped back, with row-stacking vec."""
    n = rho0.shape[0]
    u = _unitary(h, t)
    return (np.kron(u, u.conj()) @ superop @ np.asarray(rho0, dtype=complex).reshape(-1)) \
        .reshape(n, n)


def approx_product(h, members, rho0, t):
    """Factorized map exp(tA) exp(tB) rho0 with exp(tB) as the literal product

        prod_j (1 + (e^{-lambda_j t/2} - 1) R_j)

    of the exponentials of the commuting coherence-block projectors R_j,
    taken in family order."""
    n = np.asarray(rho0).shape[0]
    op = np.eye(n * n, dtype=complex)
    for p, lam in members:
        op = op @ projector_exp(-lam * t / 2.0, coherence_block_projector(p))
    return _factorized(h, op, rho0, t)


def approx_expanded(h, members, rho0, t):
    """Same map with the product multiplied out: cross terms R_j R_k collapse
    to P_j kron P_k^T + P_k kron P_j^T and triple products vanish, so

        exp(tB) = 1 + sum_j c_j R_j + sum_{j<k} c_j c_k (P_j kron P_k^T + P_k kron P_j^T)

    with c_j = e^{-lambda_j t/2} - 1."""
    n = np.asarray(rho0).shape[0]
    ps = [np.asarray(p, dtype=complex) for p, _ in members]
    c = [np.exp(-lam * t / 2.0) - 1.0 for _, lam in members]
    op = np.eye(n * n, dtype=complex)
    for j, p in enumerate(ps):
        op += c[j] * coherence_block_projector(p)
    for j in range(len(ps)):
        for k in range(j + 1, len(ps)):
            op += c[j] * c[k] * (np.kron(ps[j], ps[k].T) + np.kron(ps[k], ps[j].T))
    return _factorized(h, op, rho0, t)


def _superops(h, members):
    """A = -i (H kron 1 - 1 kron H^T) and B = -sum_j (lambda_j/2) R_j, with
    row-stacking vec."""
    h = np.asarray(h, dtype=complex)
    ident = np.eye(h.shape[0])
    a = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    b = np.zeros_like(a)
    for p, lam in members:
        b -= (lam / 2.0) * coherence_block_projector(p)
    return a, b


def vectorized_generator(h, members):
    """The complex n^2 x n^2 generator A + B of the vectorized master
    equation d/dt vec(rho) = (A + B) vec(rho), row-stacking vec."""
    a, b = _superops(h, members)
    return a + b


def bch_indicator_superop(h, members, t):
    """(1/2) ||[tA, tB]||_F from the n^2 x n^2 superoperators of
    :func:`vectorized_generator`: the brute-force route of the splitting
    indicator."""
    a, b = _superops(h, members)
    a, b = t * a, t * b
    return 0.5 * float(np.linalg.norm(a @ b - b @ a))


def bch_interaction_term(a, b):
    """Interaction term of the splitting exp(A+B) = exp(A) exp(I) exp(B),
    truncated after third order:

        I(A, B) ~= -(1/2)[A, B] + (1/6)([[A, B], B] + [A, [A, B]]).

    The series continues with higher nested commutators that are not
    computed here; for A, B of order t the truncation error in exp(I) is
    O(t^4)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"operands must share a shape, got {a.shape} and {b.shape}")
    ab = a @ b - b @ a
    return -0.5 * ab + ((ab @ b - b @ ab) + (a @ ab - ab @ a)) / 6.0
