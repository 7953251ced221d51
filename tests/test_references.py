"""40-digit references for the exact path.

Each reference takes one mpmath exponential of the generator over the grid
step, built from the scenario's own float64 numbers, and walks the grid by
powers of it, so it shares no code and no rounding with the package.
"""

import mpmath
import numpy as np
import pytest

from projlind import model, propagators

from oracles import rand_density, rand_hermitian, rand_orthogonal_projectors, rand_ranks

DIGITS = 40


def mp_generator(h, members):
    """The n^2 x n^2 generator of L(rho) = -i [H, rho] -
    sum_j (lambda_j / 2) (P_j rho Q_j + Q_j rho P_j) on the row-stacked
    vec(rho), in mpmath numbers, column by column from the units E_ab."""
    n = h.shape[0]
    mp_h = mpmath.matrix(h.tolist())
    ident = mpmath.eye(n)
    lifted = [(mpmath.matrix(p.tolist()), mpmath.mpf(lam) / 2) for p, lam in members]
    gen = mpmath.matrix(n * n, n * n)
    for a in range(n):
        for b in range(n):
            unit = mpmath.matrix(n, n)
            unit[a, b] = 1
            out = -1j * (mp_h * unit - unit * mp_h)
            for p, half_rate in lifted:
                q = ident - p
                out -= half_rate * (p * unit * q + q * unit * p)
            for c in range(n):
                for d in range(n):
                    gen[c * n + d, a * n + b] = out[c, d]
    return gen


def mp_states(h, members, rho0, step, points):
    """exp(k step L) rho0 for k = 0, ..., points - 1, rounded to complex128."""
    with mpmath.workdps(DIGITS):
        prop = mpmath.expm(mpmath.mpf(step) * mp_generator(h, members))
        x = mpmath.matrix(rho0.reshape(-1).tolist())
        out = []
        for _ in range(points):
            out.append(np.array(x.tolist(), dtype=complex).reshape(rho0.shape))
            x = prop * x
    return out


def reference_scenario(rng, n, commuting):
    """n x n, 1 to n projectors, rates in [0.2, 1.5], ||H||_2 = 1, or H a
    combination of the projectors."""
    ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, n + 1)), rng), rng)
    members = [(p, float(rng.uniform(0.2, 1.5))) for p in ps]
    if commuting:
        h = sum((float(rng.normal()) * p for p in ps), np.zeros((n, n), complex))
    else:
        h = rand_hermitian(n, rng)
        h = h / np.linalg.norm(h, 2)
    return h, members, rand_density(n, rng)


@pytest.mark.parametrize("trial", range(8))
def test_matrix_free_kernel_matches_40_digits(trial):
    # n = 2 or 3 and uniform grids of 40 points to t nu between 25 and 50,
    # so the walk crosses the lattice of substeps many times and its grid
    # points fall on and between lattice points. The dyadic step keeps
    # every grid time exact in float64. The frame's own rounding, about
    # u t nu, is most of the error that remains.
    rng = np.random.default_rng(400 + trial)
    n = 2 + trial % 2
    h, members, rho0 = reference_scenario(rng, n, commuting=trial % 4 == 3)
    scen = model.Scenario(model.Hamiltonian(h),
                          model.ProjectorFamily(tuple(members), dim=n),
                          model.DensityMatrix(rho0), (0.0,))
    frame = propagators._frame(scen)
    nu = propagators._norm_bound(frame)
    step = 2.0 ** np.floor(np.log2(50.0 / (39 * nu)))
    grid = step * np.arange(40)
    assert 25.0 < grid[-1] * nu <= 50.0
    walked = np.concatenate(list(propagators._taylor_states(frame, grid, nu)))
    refs = mp_states(scen.hamiltonian.matrix, scen.family.members,
                     scen.initial_state.matrix, step, len(grid))
    for state, ref in zip(walked, refs):
        assert np.linalg.norm(frame.v @ state @ frame.v.conj().T - ref) <= 1e-14
