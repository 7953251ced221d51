import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import linalg, model, propagators
from projlind.exceptions import InvalidInputError

from oracles import (
    SX,
    approx_expanded,
    approx_product,
    bch_indicator_superop,
    bch_interaction_term,
    rand_density,
    rand_hermitian,
    rand_orthogonal_projectors,
    rand_ranks,
    rand_unitary,
    taylor_expm,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = 0.5 * np.ones((2, 2), dtype=complex)


def make_scenario(h, members, rho0, grid=(0.0, 1.0), dim=0):
    n = np.asarray(h).shape[0]
    return model.Scenario(
        model.Hamiltonian(h),
        model.ProjectorFamily(tuple(members), dim=dim or n),
        model.DensityMatrix(rho0),
        np.asarray(grid, dtype=float),
    )


def rand_scenario(rng, max_dim=6, min_members=1, max_members=3):
    n = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(min_members, min(max_members, n) + 1))
    ps = rand_orthogonal_projectors(n, rand_ranks(n, k, rng), rng)
    members = [(p, float(rng.uniform(0.2, 3.0))) for p in ps]
    h = rand_hermitian(n, rng)
    rho0 = rand_density(n, rng)
    return make_scenario(h, members, rho0)


DEPHASING = make_scenario(np.zeros((2, 2)), [(P0, 2.0)], PLUS)
DRIVEN = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]))

ALL_PATHS = (
    propagators.exact_propagate,
    propagators.approx_propagate_closed,
)


def product(scen, t):
    return approx_product(scen.hamiltonian.matrix, scen.family, scen.initial_state.matrix, t)


def expanded(scen, t):
    return approx_expanded(scen.hamiltonian.matrix, scen.family, scen.initial_state.matrix, t)


class TestExactPropagate:
    def test_t_zero_returns_initial_state(self):
        out = propagators.exact_propagate(DEPHASING, 0.0)
        assert out.method == "exact"
        assert np.linalg.norm(out.state - PLUS) <= 1e-12

    def test_empty_family_is_unitary_evolution(self):
        rng = np.random.default_rng(2)
        h = rand_hermitian(3, rng)
        rho0 = rand_density(3, rng)
        scen = make_scenario(h, [], rho0, dim=3)
        for t in (0.3, 1.7):
            out = propagators.exact_propagate(scen, t).state
            u = taylor_expm(-1j * t * h)
            assert np.linalg.norm(out - u @ rho0 @ u.conj().T) <= 1e-10

    def test_dephasing_hand_value(self):
        # off-diagonal decays by e^{-lam t / 2} = 1/4 at lam=2, t=ln 4;
        # oracle: direct 4x4 generator exponential, written out by hand.
        t = np.log(4.0)
        gen = np.zeros((4, 4), dtype=complex)
        gen[1, 1] = gen[2, 2] = -1.0  # -(lam/2) on the coherence components
        rho_ref = (taylor_expm(t * gen) @ PLUS.reshape(-1)).reshape(2, 2)
        assert_allclose(rho_ref, [[0.5, 0.125], [0.125, 0.5]], atol=1e-14)
        out = propagators.exact_propagate(DEPHASING, t).state
        assert np.linalg.norm(out - rho_ref) <= 1e-12

    def test_output_is_physical(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            scen = rand_scenario(rng)
            out = propagators.exact_propagate(scen, float(rng.uniform(0.1, 2.0))).state
            assert linalg.hermiticity_residual(out) <= 1e-8
            assert abs(np.trace(out) - 1.0) <= 1e-8
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scen = rand_scenario(rng)
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            once = propagators.exact_propagate(scen, t1 + t2).state
            mid = propagators.exact_propagate(scen, t1).state
            # restart from the midpoint state (hermitize rounding residue)
            mid_state = model.DensityMatrix((mid + mid.conj().T) / 2)
            scen2 = model.Scenario(scen.hamiltonian, scen.family, mid_state, scen.time_grid)
            twice = propagators.exact_propagate(scen2, t2).state
            assert np.linalg.norm(once - twice) <= 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidInputError):
            propagators.exact_propagate(DEPHASING, -0.1)


class TestApproxClosed:
    def test_t_zero_returns_initial_state(self):
        out = propagators.approx_propagate_closed(DEPHASING, 0.0)
        assert np.linalg.norm(out.state - PLUS) <= 1e-14

    def test_pure_decoherence_matches_exact(self):
        for t in DEPHASING.time_grid.tolist() + [0.4, 2.5]:
            exact = propagators.exact_propagate(DEPHASING, t).state
            approx = propagators.approx_propagate_closed(DEPHASING, t).state
            assert np.linalg.norm(exact - approx) <= 1e-10

    def test_dephasing_hand_value(self):
        out = propagators.approx_propagate_closed(DEPHASING, np.log(4.0)).state
        assert_allclose(out, [[0.5, 0.125], [0.125, 0.5]], atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            scen = rand_scenario(rng)
            t = float(rng.uniform(0.0, 3.0))
            out = propagators.approx_propagate_closed(scen, t).state
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.norm(out - out.conj().T) <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            scen = rand_scenario(rng)
            t = float(rng.uniform(0.0, 3.0))
            out = propagators.approx_propagate_closed(scen, t).state
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10


class TestApproxProduct:
    def test_t_zero_returns_initial_state(self):
        out = product(DEPHASING, 0.0)
        assert np.linalg.norm(out - PLUS) <= 1e-14

    def test_single_projector_matches_closed(self):
        for t in (0.0, 0.3, 1.2):
            a = propagators.approx_propagate_closed(DRIVEN, t).state
            b = product(DRIVEN, t)
            assert np.linalg.norm(a - b) <= 1e-12

    def test_three_projector_matches_closed(self):
        rng = np.random.default_rng(19)
        ps = rand_orthogonal_projectors(4, [1, 1, 1], rng)
        scen = make_scenario(
            rand_hermitian(4, rng),
            [(p, float(rng.uniform(0.3, 2.0))) for p in ps],
            rand_density(4, rng),
        )
        for t in (0.2, 0.9, 1.7):
            a = propagators.approx_propagate_closed(scen, t).state
            b = product(scen, t)
            assert np.linalg.norm(a - b) <= 1e-12


class TestThreeFormEquivalence:
    def test_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            scen = rand_scenario(rng, min_members=2)
            t = float(rng.uniform(0.0, 2.0))
            closed = propagators.approx_propagate_closed(scen, t).state
            prod = product(scen, t)
            expa = expanded(scen, t)
            assert np.linalg.norm(closed - prod) <= 1e-12
            assert np.linalg.norm(closed - expa) <= 1e-12
            assert np.linalg.norm(prod - expa) <= 1e-12


class TestExactnessInCommutingCases:
    def test_zero_hamiltonian(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, 3)), rng), rng)
            scen = make_scenario(
                np.zeros((n, n)),
                [(p, float(rng.uniform(0.2, 3.0))) for p in ps],
                rand_density(n, rng),
                grid=np.linspace(0.0, 2.0, 5),
            )
            for t in scen.time_grid:
                gap = np.linalg.norm(
                    propagators.exact_propagate(scen, t).state
                    - propagators.approx_propagate_closed(scen, t).state)
                assert gap <= 1e-10

    def test_commuting_hamiltonian(self):
        # H diagonal and projectors diagonal: [H, P_j] = 0 exactly
        rng = np.random.default_rng(31)
        h = np.diag(rng.normal(size=4))
        members = [(np.diag([1.0, 0, 0, 0]), 0.8), (np.diag([0, 1.0, 0, 0]), 1.7)]
        scen = make_scenario(h, members, rand_density(4, rng),
                             grid=np.linspace(0.0, 2.0, 5))
        for t in scen.time_grid:
            gap = np.linalg.norm(
                propagators.exact_propagate(scen, t).state
                - propagators.approx_propagate_closed(scen, t).state)
            assert gap <= 1e-10


class TestSecondOrderGap:
    def test_log_log_slope_near_two(self):
        ts = np.geomspace(1e-3, 1e-1, 7)
        gaps = []
        for t in ts:
            gap = np.linalg.norm(
                propagators.exact_propagate(DRIVEN, t).state
                - propagators.approx_propagate_closed(DRIVEN, t).state)
            gaps.append(gap)
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestBchInteractionTerm:
    def test_commuting_inputs_give_zero(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([-1.0, 0.5, 2.0])
        assert_allclose(bch_interaction_term(a, b), np.zeros((3, 3)), atol=0)

    def test_leading_term_dominates_at_small_t(self):
        rng = np.random.default_rng(37)
        x = rand_hermitian(3, rng)
        y = rand_hermitian(3, rng)
        for t in (1e-3, 1e-4):
            full = bch_interaction_term(t * x, t * y)
            leading = -0.5 * (t * x @ (t * y) - t * y @ (t * x))
            assert np.linalg.norm(full - leading) <= 10 * t * np.linalg.norm(leading)

    def test_truncation_residual_is_fourth_order(self):
        # exp(A) exp(I_trunc) exp(B) deviates from exp(A+B) at O(t^4):
        # halving t should shrink the residual by about 16.
        a_gen = model.hamiltonian_superop(SX)
        b_gen = model.dissipator_superop(model.ProjectorFamily(((P0, 1.0),)))
        residuals = []
        for t in (0.2, 0.1, 0.05):
            a, b = t * a_gen, t * b_gen
            inter = bch_interaction_term(a, b)
            lhs = linalg.matexp(a) @ linalg.matexp(inter) @ linalg.matexp(b)
            residuals.append(np.linalg.norm(lhs - linalg.matexp(a + b)))
        assert residuals[0] > 0
        for r_big, r_small in zip(residuals, residuals[1:]):
            assert 10.0 <= r_big / r_small <= 22.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bch_interaction_term(np.eye(2), np.eye(3))


def split_scenario(rng, max_dim):
    """Random scenario with n in [2, max_dim] and 0 to n projectors taken
    from column blocks of one unitary; a third of the families leave part of
    the space uncovered, and a third of the Hamiltonians are block diagonal
    in the same unitary, so they commute with every projector."""
    n = int(rng.integers(2, max_dim + 1))
    ranks = rand_ranks(n, int(rng.integers(0, n + 1)), rng)
    if ranks and rng.random() < 1 / 3:
        ranks.pop()
    u = rand_unitary(n, rng)
    edges = np.cumsum([0, *ranks, n - sum(ranks)])
    blocks = [u[:, a:b] for a, b in zip(edges, edges[1:])]
    members = [(v @ v.conj().T, float(rng.uniform(0.2, 3.0))) for v in blocks[:len(ranks)]]
    if rng.random() < 1 / 3:
        h = sum(v @ rand_hermitian(v.shape[1], rng) @ v.conj().T for v in blocks if v.shape[1])
    else:
        h = rand_hermitian(n, rng)
    return make_scenario(h, members, rand_density(n, rng))


class TestBchErrorIndicator:
    def test_commuting_scenario_gives_zero(self):
        scen = make_scenario(np.diag([1.0, -1.0]), [(P0, 1.0)], np.diag([1.0, 0.0]))
        assert propagators.bch_error_indicator(scen, 1.3) == 0.0
        # A rank-n projector is the identity up to rounding: no dissipation.
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            u = rand_unitary(n, rng)
            scen = make_scenario(rand_hermitian(n, rng), [(u @ u.conj().T, 1.0)],
                                 rand_density(n, rng))
            assert propagators.bch_error_indicator(scen, 500.0) == 0.0

    def test_matches_superoperator_commutator(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            scen = split_scenario(rng, max_dim=10)
            h = scen.hamiltonian.matrix
            for t in (0.0, float(rng.uniform(0.0, 3.0)), 500.0):
                ref = bch_indicator_superop(h, scen.family, t)
                got = propagators.bch_error_indicator(scen, t)
                assert abs(got - ref) <= 1e-12 * ref + 1e-13 * max(1.0, t * t)

    def test_bounds_the_splitting_gap(self):
        # ||rho_exact - rho_approx||_F <= (t^2/2)||[A, B]||_F; the allowance
        # covers rounding in the two propagated states.
        rng = np.random.default_rng(47)
        for _ in range(500):
            scen = split_scenario(rng, max_dim=6)
            for t in (float(rng.uniform(0.0, 3.0)), 10.0 ** rng.uniform(-3.0, 0.0)):
                gap = np.linalg.norm(propagators.exact_propagate(scen, t).state
                                     - propagators.approx_propagate_closed(scen, t).state)
                assert gap <= propagators.bch_error_indicator(scen, t) + 1e-12

    def test_zero_time_gives_zero(self):
        assert propagators.bch_error_indicator(DRIVEN, 0.0) == 0.0

    def test_exact_quadratic_scaling(self):
        base = propagators.bch_error_indicator(DRIVEN, 0.5)
        half = propagators.bch_error_indicator(DRIVEN, 0.25)
        assert base == pytest.approx(4.0 * half, rel=1e-12)

    def test_monotone_in_time(self):
        vals = [propagators.bch_error_indicator(DRIVEN, t) for t in np.linspace(0, 2, 9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_time(self, t):
        with pytest.raises(InvalidInputError):
            propagators.bch_error_indicator(DRIVEN, t)


def test_methods_are_tagged():
    tags = {f(DEPHASING, 0.5).method for f in ALL_PATHS}
    assert tags == {"exact", "approx-closed"}


def test_propagation_is_deterministic():
    a = propagators.exact_propagate(DRIVEN, 0.7).state
    b = propagators.exact_propagate(DRIVEN, 0.7).state
    assert np.array_equal(a, b)
