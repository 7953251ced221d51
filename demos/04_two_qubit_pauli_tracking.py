"""Two qubits under a rank-2 decoherence channel, watched in Pauli coordinates.

The two-qubit-rank2 preset dephases the first qubit (rank-2 projector onto
its |0> subspace, entered as two orthonormal vectors) while sigma_x drives
it. Any two-qubit state is fixed by its Bloch-type coefficients

    rho = (1/4) (1 + p_i s_i x 1 + q_j 1 x s_j + r_ij s_i x s_j),

so instead of staring at 16 complex entries we track the three coefficient
blocks along the evolution and compare the exact and factorized paths.
"""

import numpy as np

from projlind import (
    approx_propagate_closed,
    exact_propagate,
    pauli_decompose,
    pauli_reconstruct,
    preset_scenario,
)

scenario = preset_scenario("two-qubit-rank2")

print("t       |p|       |q|       |r|_F     coeff gap (exact vs closed)")
for t in scenario.time_grid:
    exact = pauli_decompose(exact_propagate(scenario, t))
    closed = pauli_decompose(approx_propagate_closed(scenario, t))
    gap = max(np.linalg.norm(exact.p - closed.p),
              np.linalg.norm(exact.q - closed.q),
              np.linalg.norm(exact.r - closed.r))
    print(f"{t:5.2f}   {np.linalg.norm(closed.p):.5f}   {np.linalg.norm(closed.q):.5f}"
          f"   {np.linalg.norm(closed.r):.5f}   {gap:.2e}")

# The decomposition is exactly invertible.
rho_end = approx_propagate_closed(scenario, scenario.time_grid[-1])
back = pauli_reconstruct(pauli_decompose(rho_end))
print(f"\nreconstruction residual at final time: {np.linalg.norm(back - rho_end):.2e}")

d = pauli_decompose(rho_end)
print(f"final p = {np.round(d.p, 4)}")
print(f"final q = {np.round(d.q, 4)}")
print(f"final r =\n{np.round(d.r, 4)}")
