"""Two qubits under a rank-2 decoherence channel, watched in Pauli coordinates.

The two-qubit-rank2 preset dephases the first qubit (rank-2 projector onto
its |0> subspace, entered as two orthonormal vectors) while sigma_x drives
it. Any two-qubit state is fixed by its Bloch-type coefficients

    rho = (1/4) sum_ab c_ab s_a x s_b,   c_ab = tr(rho (s_a x s_b)),

with s_0 = 1 and s_1, s_2, s_3 the Pauli matrices: p = c_a0 and q = c_0b
(a, b >= 1) describe each qubit, r = c_ab their correlations. So instead of
staring at 16 complex entries we track the three coefficient blocks along
the evolution and compare the exact and factorized paths.
"""

import numpy as np

from projlind import approx_propagate_closed, exact_propagate, preset_scenario

S = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
BASIS = np.array([[np.kron(sa, sb) for sb in S] for sa in S])   # s_a x s_b


def coefficients(rho):
    """The 4 x 4 array c_ab = tr(rho (s_a x s_b))."""
    return np.einsum("ij,abji->ab", rho, BASIS).real


scenario = preset_scenario("two-qubit-rank2")

print("t       |p|       |q|       |r|_F     coeff gap (exact vs closed)")
for t in scenario.time_grid:
    exact = coefficients(exact_propagate(scenario, t))
    closed = coefficients(approx_propagate_closed(scenario, t))
    p, q, r = closed[1:, 0], closed[0, 1:], closed[1:, 1:]
    d = exact - closed
    gap = max(np.linalg.norm(d[1:, 0]), np.linalg.norm(d[0, 1:]), np.linalg.norm(d[1:, 1:]))
    print(f"{t:5.2f}   {np.linalg.norm(p):.5f}   {np.linalg.norm(q):.5f}"
          f"   {np.linalg.norm(r):.5f}   {gap:.2e}")

# The coefficients fix the state: the sum rebuilds it.
rho_end = approx_propagate_closed(scenario, scenario.time_grid[-1])
c = coefficients(rho_end)
back = np.einsum("ab,abij->ij", c, BASIS) / 4.0
print(f"\nreconstruction residual at final time: {np.linalg.norm(back - rho_end):.2e}")
print(f"final p = {np.round(c[1:, 0], 4)}")
print(f"final q = {np.round(c[0, 1:], 4)}")
print(f"final r =\n{np.round(c[1:, 1:], 4)}")
