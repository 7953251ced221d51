"""Dephasing of a single qubit.

A qubit prepared in the |+> state loses its off-diagonal coherence under a
single projector channel P = |0><0| with rate lam, while the populations
stay put. With no Hamiltonian the factorized propagator is not an
approximation at all, so the exact path and the closed form land on the
same state, and the coherence follows the analytic exp(-lam t / 2) / 2.
"""

import numpy as np

from projlind import (
    DensityMatrix,
    Hamiltonian,
    ProjectorFamily,
    Scenario,
    approx_propagate_closed,
    exact_propagate,
)

lam = 2.0
scenario = Scenario(
    hamiltonian=Hamiltonian(np.zeros((2, 2))),
    family=ProjectorFamily(((np.diag([1.0, 0.0]), lam),)),
    initial_state=DensityMatrix(0.5 * np.ones((2, 2))),
    time_grid=np.linspace(0.0, 2.0, 9),
)

print("t      coherence    exp(-lam t/2)/2   |exact-closed|  |closed-analytic|  purity")
for t in scenario.time_grid:
    exact = exact_propagate(scenario, t)
    closed = approx_propagate_closed(scenario, t)
    analytic = 0.5 * np.exp(-lam * t / 2)
    purity = np.trace(closed @ closed).real
    print(f"{t:4.2f}   {abs(closed[0, 1]):.6f}     {analytic:.6f}"
          f"          {np.linalg.norm(exact - closed):8.1e}        "
          f"{abs(closed[0, 1] - analytic):8.1e}       {purity:.4f}")

# At t = ln 4 the decay factor is exactly 1/4: the hand-checkable value.
t_star = np.log(4.0)
rho = exact_propagate(scenario, t_star)
print(f"\nat t = ln 4: rho =\n{np.round(rho.real, 6)}")
print("off-diagonal is 1/4 of its initial value 0.5, i.e. 0.125")
