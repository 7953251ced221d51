"""The superoperator algebra that makes the closed form possible.

Each projector P, with Q = 1 - P, lifts to a coherence-block
projector R = P kron Q^T + Q kron P^T acting on row-stacked states. Across
a mutually orthogonal family these operators (a) are projectors, commuting
with each other, (b) exponentiate in closed form, (c) multiply pairwise to
P_j kron P_k^T + P_k kron P_j^T, and (d) annihilate in triples. Those four
facts collapse exp(tB) into a three-term polynomial, which is the entire
trick behind the fast propagator. Here we watch each fact hold numerically
on a random rank-mixed family in dimension 5.
"""

import numpy as np

from projlind import coherence_block_projector, projector_exp

rng = np.random.default_rng(7)

# Random orthogonal family: ranks 2, 1, 1 out of a random unitary's columns
z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
u, _ = np.linalg.qr(z)
ps = [u[:, :2] @ u[:, :2].conj().T,
      u[:, 2:3] @ u[:, 2:3].conj().T,
      u[:, 3:4] @ u[:, 3:4].conj().T]
rs = [coherence_block_projector(p) for p in ps]

print("(a) projectors, commuting:")
for j, r in enumerate(rs):
    print(f"    ||R{j}^2 - R{j}|| = {np.linalg.norm(r @ r - r):.2e}"
          f"   ||R{j} - R{j}^dag|| = {np.linalg.norm(r - r.conj().T):.2e}")
for j in range(3):
    for k in range(j + 1, 3):
        print(f"    ||[R{j}, R{k}]|| = {np.linalg.norm(rs[j] @ rs[k] - rs[k] @ rs[j]):.2e}")

print("\n(b) closed-form exponential vs the eigendecomposition of the Hermitian R:")
w, v = np.linalg.eigh(rs[0])
for scale in (-3.0, -0.5, 1.0):
    eig_exp = (v * np.exp(scale * w)) @ v.conj().T
    gap = np.linalg.norm(projector_exp(scale, rs[0]) - eig_exp)
    print(f"    scale {scale:5.2f}: ||formula - eigh exponential|| = {gap:.2e}")

print("\n(c) pair products collapse to P kron P terms:")
for j in range(3):
    for k in range(j + 1, 3):
        expected = np.kron(ps[j], ps[k].T) + np.kron(ps[k], ps[j].T)
        print(f"    ||R{j} R{k} - (P{j} kron P{k}^T + P{k} kron P{j}^T)|| ="
              f" {np.linalg.norm(rs[j] @ rs[k] - expected):.2e}")

print("\n(d) triple products vanish:")
print(f"    ||R0 R1 R2|| = {np.linalg.norm(rs[0] @ rs[1] @ rs[2]):.2e}")

# Consequence: the product of the three exponential factors multiplies out
# to 1 + sum c_j R_j + sum_{j<k} c_j c_k R_j R_k, nothing deeper.
ts, lams = 0.8, (1.0, 0.5, 0.25)
c = [np.exp(-lam * ts / 2) - 1 for lam in lams]
product = np.eye(25, dtype=complex)
for cj, r in zip(c, rs):
    product = product @ (np.eye(25) + cj * r)
expanded = np.eye(25, dtype=complex)
for cj, r in zip(c, rs):
    expanded += cj * r
for j in range(3):
    for k in range(j + 1, 3):
        expanded += c[j] * c[k] * (np.kron(ps[j], ps[k].T) + np.kron(ps[k], ps[j].T))
print(f"\nproduct vs multiplied-out polynomial: {np.linalg.norm(product - expanded):.2e}")
