import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import analysis, config, linalg, model, presets, propagators
from projlind.exceptions import InvalidInputError

from oracles import (
    SX,
    approx_expanded,
    approx_product,
    bch_indicator_superop,
    bch_interaction_term,
    loglog_slope,
    perfbench_configs,
    rand_density,
    rand_hermitian,
    rand_orthogonal_projectors,
    rand_ranks,
    rand_unitary,
    taylor_expm,
    vectorized_generator,
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

def product(scen, t):
    return approx_product(scen.hamiltonian.matrix, scen.family, scen.initial_state.matrix, t)


def expanded(scen, t):
    return approx_expanded(scen.hamiltonian.matrix, scen.family, scen.initial_state.matrix, t)


class TestExactPropagate:
    def test_t_zero_returns_initial_state(self):
        out = propagators.exact_propagate(DEPHASING, 0.0)
        assert type(out) is np.ndarray
        assert np.linalg.norm(out - PLUS) <= 1e-12

    def test_empty_family_is_unitary_evolution(self):
        rng = np.random.default_rng(2)
        h = rand_hermitian(3, rng)
        rho0 = rand_density(3, rng)
        scen = make_scenario(h, [], rho0, dim=3)
        for t in (0.3, 1.7):
            out = propagators.exact_propagate(scen, t)
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
        out = propagators.exact_propagate(DEPHASING, t)
        assert np.linalg.norm(out - rho_ref) <= 1e-12

    def test_output_is_physical(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            scen = rand_scenario(rng)
            out = propagators.exact_propagate(scen, float(rng.uniform(0.1, 2.0)))
            assert linalg.hermiticity_residual(out) <= 1e-8
            assert abs(np.trace(out) - 1.0) <= 1e-8
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scen = rand_scenario(rng)
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            once = propagators.exact_propagate(scen, t1 + t2)
            mid = propagators.exact_propagate(scen, t1)
            # restart from the midpoint state (hermitize rounding residue)
            mid_state = model.DensityMatrix((mid + mid.conj().T) / 2)
            scen2 = model.Scenario(scen.hamiltonian, scen.family, mid_state, scen.time_grid)
            twice = propagators.exact_propagate(scen2, t2)
            assert np.linalg.norm(once - twice) <= 1e-10

    def test_long_horizon_reaches_the_stationary_state(self):
        # t nu near 2.5e17: the driven, dephased qubit has forgotten rho0.
        out = propagators.exact_propagate(DRIVEN, 1e17)
        assert np.linalg.norm(out - np.eye(2) / 2) <= 1e-12

    @pytest.mark.parametrize("t", [1e308, 1.7e308])
    def test_horizon_past_the_float_range_reaches_the_stationary_state(self, t):
        # t nu and t / beta overflow: the ladder's base and the lattice
        # index come from exponents and integers, and the walk takes about
        # 1,025 squarings.
        out = propagators.exact_propagate(DRIVEN, t)
        assert np.linalg.norm(out - np.eye(2) / 2) <= 1e-12

    def test_overflow_past_the_float_range_names_its_time(self):
        # An undamped coherence leaves the squarings rounding to amplify
        # until it overflows; the contraction check names the time.
        scen = presets.preset_scenario("two-qubit-rank2")
        with pytest.raises(FloatingPointError, match=r"lost accuracy at t = 1e\+308$"):
            propagators.exact_propagate(scen, 1e308)

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidInputError):
            propagators.exact_propagate(DEPHASING, -0.1)

    def test_matches_dense_generator_oracle(self):
        # The unstructured route: exp(t (A + B)) on row-stacked vec(rho0).
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(0, n + 1)), rng),
                                            rng)
            members = [(p, float(rng.uniform(0.2, 3.0))) for p in ps]
            h = rand_hermitian(n, rng)
            rho0 = rand_density(n, rng)
            t = float(rng.uniform(0.0, 3.0))
            ref = taylor_expm(t * vectorized_generator(h, members)) @ rho0.reshape(-1)
            out = propagators.exact_propagate(make_scenario(h, members, rho0, dim=n), t)
            assert np.linalg.norm(out - ref.reshape(n, n)) <= 1e-12


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    arguments; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def long_time_scenario(rng, scale):
    """n in [2, 5], 1 to n projectors, ||H||_2 = scale and rates in
    scale * [0.2, 1.5]."""
    n = int(rng.integers(2, 6))
    ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, n + 1)), rng), rng)
    h = rand_hermitian(n, rng)
    return make_scenario(scale * h / np.linalg.norm(h, 2),
                         [(p, scale * float(rng.uniform(0.2, 1.5))) for p in ps],
                         rand_density(n, rng))


def taylor_states(frame, times):
    """The matrix-free exact kernel, whatever the cost rule would pick."""
    return propagators._taylor_states(frame, times, propagators._norm_bound(frame))


def ladder_states(frame, times):
    """The dense exact kernel, whatever the cost rule would pick."""
    return propagators._ladder_states(frame, times, propagators._norm_bound(frame))


class TestExactWalk:
    @pytest.mark.parametrize("stop, count", [(2.0, 12), (500.0, 400)])
    def test_uniform_grid_takes_one_exponential(self, monkeypatch, stop, count):
        # Steps of dt nu >= 1/2 put every grid point on the ladder's lattice
        # up to its rounding, so no cell takes a Taylor series: a point just
        # short of a lattice point is that point, not one inside a cell.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(3)
        scen = rand_scenario(rng)
        scen = model.Scenario(scen.hamiltonian, scen.family, scen.initial_state,
                              np.linspace(0.0, stop, count))
        records = analysis.sweep(scen, "exact-only")
        assert len(records) == count
        assert [a.shape for a, in expm] == [(scen.dim ** 2 - 1,) * 2]
        assert taylor == []

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_fine_grid_takes_one_series_per_chunk(self, monkeypatch, start):
        # Steps of dt nu < 1/2 put many grid times inside each cell of the
        # ladder's lattice: each chunk takes one Taylor series, on the stack
        # of its distinct cells that hold such times. From 0 and from an
        # offset start alike, the ladder takes one exponential.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(3)
        scen = rand_scenario(rng)
        grid = np.linspace(start, 2.0, 400)
        frame = propagators._frame(scen)
        walked = np.concatenate(list(propagators._exact_states(frame, grid)))
        assert len(expm) == 1
        # beta: the first positive time scaled by 2^k to 1/2 <= beta nu < 1.
        nu = propagators._norm_bound(frame)
        beta = grid[grid > 0][0]
        while beta * nu < 0.5:
            beta *= 2.0
        while beta * nu >= 1.0:
            beta /= 2.0
        chunk = propagators._CHUNK
        cells = [{math.floor(s) for s in grid[k:k + chunk] / beta if abs(s - round(s)) > 1e-9}
                 for k in range(0, len(grid), chunk)]
        assert len(cells) == 7 and all(cells) and sum(map(len, cells)) > 10
        assert [x.shape for *_, x in taylor] == [(len(c), scen.dim ** 2 - 1) for c in cells]
        for t, state in zip(grid[::37], walked[::37]):
            single = propagators.exact_propagate(scen, t)
            assert np.linalg.norm(frame.v @ state @ frame.v.conj().T - single) <= 1e-12

    def test_states_stream_one_chunk_at_a_time(self):
        # Each exact kernel and the closed form yield one stack per chunk of
        # _CHUNK times and hold no array over the grid, so they read no time
        # beyond the chunk they are asked for.
        grid = 0.03 * np.arange(propagators._CHUNK + 3)
        read = []

        def times():
            for t in grid:
                read.append(t)
                yield t
            raise AssertionError("read a time beyond the last chunk asked for")

        rng = np.random.default_rng(23)
        scen = rand_scenario(rng)
        frame = propagators._frame(scen)
        for states in (ladder_states, taylor_states, propagators._approx_states):
            read.clear()
            first = next(states(frame, times()))
            assert len(read) == propagators._CHUNK
            assert first.shape == (propagators._CHUNK, scen.dim, scen.dim)
            for t, state in zip(grid, first):
                assert np.linalg.norm(state - next(states(frame, [t]))[0]) <= 1e-12

    def test_log_grid_takes_one_exponential(self, monkeypatch):
        # Every step of a log grid differs; the ladder serves them all.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        rng = np.random.default_rng(19)
        scen = rand_scenario(rng)
        scen = model.Scenario(scen.hamiltonian, scen.family, scen.initial_state,
                              np.geomspace(1e-2, 500.0, 16))
        assert len(analysis.sweep(scen, "compare")) == 16
        assert len(expm) == 1

    def test_ladder_takes_one_bound(self, monkeypatch):
        # nu >= ||M||_2 sets the ladder's base and bounds every cell's
        # Taylor series; the points of a log grid fall inside cells.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        # Each call's step, bound, S x and x, recorded at the call.
        taylor = []
        action = propagators._taylor_action

        def recorded(op, h, bound, x):
            taylor.append((h, bound, op(x), x))
            return action(op, h, bound, x)

        monkeypatch.setattr(propagators, "_taylor_action", recorded)
        rng = np.random.default_rng(19)
        scen = rand_scenario(rng)
        frame = propagators._frame(scen)
        nu = propagators._norm_bound(frame)
        list(propagators._exact_states(frame, np.geomspace(1e-2, 500.0, 16)))
        # M from the commutator form of L.
        n, h = scen.dim, frame.h
        q, pairs = propagators._traceless_basis(n)
        basis = propagators._traceless(np.eye(n * n - 1), q, pairs)
        gen = propagators._coordinates(-1j * (h @ basis - basis @ h) - frame.g * basis,
                                       q, pairs).T
        assert np.linalg.norm(gen, 2) <= nu
        [(a,)] = expm
        beta = np.vdot(gen, a) / np.vdot(gen, gen)
        assert np.linalg.norm(a - beta * gen) <= 1e-14 * np.linalg.norm(a)
        assert 0.5 <= beta * nu < 1.0
        assert taylor
        for h, bound, sx, x in taylor:
            # The step is beta, and the bound beta nu.
            assert 0.0 < bound < 1.0 and bound == h * nu
            # x is the stack of a chunk's cell starts, one per row.
            assert (np.linalg.norm(sx - x @ gen.T)
                    <= 1e-14 * np.linalg.norm(gen) * np.linalg.norm(x))

    @pytest.mark.parametrize("grid, scale", [
        (np.geomspace(1e-2, 500.0, 16), 1.0),
        # A large first step, then points inside cells.
        ((1e3, 2e3 + 0.5, 2.5e3), 0.2),
    ])
    def test_walk_matches_dense_generator_oracle(self, monkeypatch, grid, scale):
        # Both routes round like u t ||A + B||, so the norms are scaled to
        # keep t ||A + B||_1 near 1e3 at the last point.
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(53)
        for _ in range(10):
            scen = long_time_scenario(rng, scale)
            members = list(zip(scen.family.projectors, scen.family.rates))
            gen = vectorized_generator(scen.hamiltonian.matrix, members)
            rho0 = scen.initial_state.matrix
            frame = propagators._frame(scen)
            walked = np.concatenate(list(propagators._exact_states(frame, grid)))
            assert len(walked) == len(grid)
            for t, state in zip(grid, walked):
                ref = (taylor_expm(t * gen) @ rho0.reshape(-1)).reshape(rho0.shape)
                assert np.linalg.norm(frame.v @ state @ frame.v.conj().T - ref) <= 1e-12
        assert taylor

    def test_fine_multi_chunk_grid_matches_dense_generator_oracle(self, monkeypatch):
        # About ten points in each cell of the ladder's lattice, over three
        # chunks: each chunk takes one series on the stack of its distinct
        # cells, and each point weights the terms of its own cell.
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(67)
        grid = np.linspace(0.0, 3.0, 2 * propagators._CHUNK + 5)
        for _ in range(5):
            taylor.clear()
            scen = long_time_scenario(rng, 1.0)
            members = list(zip(scen.family.projectors, scen.family.rates))
            gen = vectorized_generator(scen.hamiltonian.matrix, members)
            rho0 = scen.initial_state.matrix
            frame = propagators._frame(scen)
            walked = np.concatenate(list(ladder_states(frame, grid)))
            assert len(walked) == len(grid)
            widths = [len(x) for *_, x in taylor]
            assert len(widths) == 3 and 3 * len(widths) <= sum(widths) <= len(grid) / 4
            for t, state in zip(grid, walked):
                ref = (taylor_expm(t * gen) @ rho0.reshape(-1)).reshape(rho0.shape)
                assert np.linalg.norm(frame.v @ state @ frame.v.conj().T - ref) <= 1e-12

    def test_far_horizon_keeps_no_square_of_zero(self):
        # The ladder of the seed-1 long-time n = 8 scenario is exactly 0 long
        # before t = 1e20; squaring on to t = 1e308 would keep about 1,000
        # zero matrices of side 63.
        scen = perfbench_scenarios("long-time", 1)[2]
        peaks = []
        for t in (1e20, 1e308):
            scen = model.Scenario(scen.hamiltonian, scen.family, scen.initial_state,
                                  [0.0, 1.0, t])
            tracemalloc.start()
            try:
                analysis.sweep(scen, "exact-only")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert scen.dim == 8
        assert peaks[1] <= 2.0 * peaks[0]

    def test_walk_matches_single_points(self):
        rng = np.random.default_rng(17)
        for grid in (np.linspace(0.0, 2.0, 12), np.geomspace(1e-2, 50.0, 9)):
            scen = rand_scenario(rng)
            frame = propagators._frame(scen)
            walked = np.concatenate(list(propagators._exact_states(frame, grid)))
            assert len(walked) == len(grid)
            for t, state in zip(grid, walked):
                single = propagators.exact_propagate(scen, t)
                lab = frame.v @ state @ frame.v.conj().T
                assert np.linalg.norm(lab - single) <= 1e-12


class TestFrame:
    def test_frame_is_exactly_hermitian(self):
        # Projectors cut from a random unitary: V^dag H V and V^dag rho0 V
        # are Hermitian only to rounding, the frame's H' and X0 to the bit.
        rng = np.random.default_rng(29)
        rounded = 0
        for _ in range(20):
            scen = rand_scenario(rng, max_dim=8)
            frame = propagators._frame(scen)
            assert np.array_equal(frame.h, frame.h.conj().T)
            assert np.array_equal(frame.x0, frame.x0.conj().T)
            raw = frame.v.conj().T @ scen.hamiltonian.matrix @ frame.v
            rounded += not np.array_equal(raw, raw.conj().T)
        assert rounded

    def test_kernels_take_no_hermitian_part(self, monkeypatch):
        # The frame decides Hermiticity once; neither exact kernel redoes it.
        scen = rand_scenario(np.random.default_rng(31))
        frame = propagators._frame(scen)
        parts = counting(monkeypatch, propagators, "_hermitian_part")
        grid = np.linspace(0.0, 2.0, 12)
        for states in (taylor_states, ladder_states):
            assert np.concatenate(list(states(frame, grid))).shape == (12, scen.dim, scen.dim)
        assert not parts

    def test_closed_form_never_takes_taylor_expm(self, monkeypatch):
        # Every unitary factor comes from the frame's eigendecomposition of
        # H'.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        rng = np.random.default_rng(37)
        for _ in range(10):
            frame = propagators._frame(rand_scenario(rng, max_dim=8))
            list(propagators._approx_states(frame, [0.0, 1e-3, 1.0, 1e8, 1e200]))
        assert not expm

    def test_generator_norm_is_bounded_by_nu(self, monkeypatch):
        # ||M||_2 <= nu for the real generator M of the dense kernel: n from
        # 1 to 8, no projector to n of them, spanning and non-spanning
        # families (one of rank n among them), generic and commuting H. So
        # the ladder's polynomial E_0 = exp(beta M) gets ||beta M||_2 < 1
        # whatever first positive time sets beta.
        norms = []

        class Recorded(Exception):
            pass

        def recorded(a):
            # E_0's input is all this test reads, so the walk stops there.
            norms.append(np.linalg.norm(a, 2) if a.size else 0.0)
            raise Recorded

        monkeypatch.setattr(propagators, "_taylor_expm", recorded)
        rng = np.random.default_rng(47)
        for trial in range(100):
            n = 1 + trial % 8
            if trial % 4 == 0:
                ranks = [n]
            else:
                k = int(rng.integers(0, n + 1))
                ranks = rand_ranks(n, k, rng) if k else []
                if ranks and trial % 4 == 1 and sum(ranks) == n and ranks[-1] > 1:
                    ranks[-1] -= 1
            ps = rand_orthogonal_projectors(n, ranks, rng)
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            h = rand_hermitian(n, rng, scale)
            if trial % 5 == 0:
                # Commutes with every projector: block diagonal in their basis.
                blocks = ps + [np.eye(n) - sum(ps, np.zeros((n, n)))]
                h = sum(b @ h @ b for b in blocks)
                h = (h + h.conj().T) / 2.0
            members = [(p, float(10.0 ** rng.uniform(-2.0, 2.0))) for p in ps]
            frame = propagators._frame(make_scenario(h, members, rand_density(n, rng), dim=n))
            nu = propagators._norm_bound(frame)
            q, pairs = propagators._traceless_basis(n)
            basis = propagators._traceless(np.eye(n * n - 1), q, pairs)
            gen = propagators._coordinates(propagators._generator(frame)(basis), q, pairs).T
            norm = np.linalg.norm(gen, 2) if gen.size else 0.0
            assert norm <= nu * (1.0 + 1e-13), (trial, norm, nu)
            for t in (5e-324, 1e-300, 1.0, 1e308):
                with pytest.raises(Recorded):
                    next(propagators._ladder_states(frame, [t], nu))
        assert len(norms) == 400
        assert max(norms) < 1.0


class TestApproxClosed:
    def test_t_zero_returns_initial_state(self):
        out = propagators.approx_propagate_closed(DEPHASING, 0.0)
        assert type(out) is np.ndarray
        assert np.linalg.norm(out - PLUS) <= 1e-14

    def test_pure_decoherence_matches_exact(self):
        for t in DEPHASING.time_grid.tolist() + [0.4, 2.5]:
            exact = propagators.exact_propagate(DEPHASING, t)
            approx = propagators.approx_propagate_closed(DEPHASING, t)
            assert np.linalg.norm(exact - approx) <= 1e-10

    def test_dephasing_hand_value(self):
        out = propagators.approx_propagate_closed(DEPHASING, np.log(4.0))
        assert_allclose(out, [[0.5, 0.125], [0.125, 0.5]], atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            scen = rand_scenario(rng)
            t = float(rng.uniform(0.0, 3.0))
            out = propagators.approx_propagate_closed(scen, t)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.norm(out - out.conj().T) <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            scen = rand_scenario(rng)
            t = float(rng.uniform(0.0, 3.0))
            out = propagators.approx_propagate_closed(scen, t)
            assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10


    def test_log_grid_matches_the_product_oracle(self):
        # 2 _CHUNK + 5 points to t = 1e4: all three chunks take their
        # unitary factors from the frame's one eigendecomposition of H'.
        # Both routes round the phases like u t ||H||_2, so ||H||_2 = 0.1
        # keeps that near 1e-13.
        rng = np.random.default_rng(61)
        grid = np.geomspace(1e-3, 1e4, 2 * propagators._CHUNK + 5)
        for _ in range(5):
            scen = rand_scenario(rng)
            h = scen.hamiltonian.matrix
            members = [(p, 0.1 * r) for p, r in zip(scen.family.projectors, scen.family.rates)]
            scen = make_scenario(0.1 * h / np.linalg.norm(h, 2), members,
                                 scen.initial_state.matrix, grid)
            frame = propagators._frame(scen)
            states = np.concatenate(list(propagators._approx_states(frame, grid)))
            assert len(states) == len(grid)
            for t, state in zip(grid, states):
                lab = frame.v @ state @ frame.v.conj().T
                assert np.linalg.norm(lab - product(scen, t)) <= 1e-12


@pytest.mark.parametrize("case", ["n = 1", "nu = 0", "all zeros"])
@pytest.mark.parametrize("path", ["dense", "matrix-free", "closed form"])
def test_no_motion_gives_the_initial_state(path, case):
    # n = 1, or H a multiple of 1 with no projector, leaves every state at
    # X0 up to t = 1e300; so does a grid of zeros over three chunks, which
    # no scenario holds but the kernels take.
    states = {"dense": ladder_states, "matrix-free": taylor_states,
              "closed form": propagators._approx_states}[path]
    rng = np.random.default_rng(73)
    grid = (0.0, 0.5, 7.0, 1e300)
    if case == "n = 1":
        scen = make_scenario(np.eye(1), [(np.eye(1), 2.0)], np.eye(1), grid)
    elif case == "nu = 0":
        scen = make_scenario(2.0 * np.eye(3), [], rand_density(3, rng), grid, dim=3)
    else:
        scen, grid = rand_scenario(rng), np.zeros(2 * propagators._CHUNK + 5)
    frame = propagators._frame(scen)
    walked = np.concatenate(list(states(frame, grid)))
    assert walked.shape == (len(grid), scen.dim, scen.dim)
    assert np.abs(walked - frame.x0).max() <= 1e-15


class TestApproxProduct:
    def test_t_zero_returns_initial_state(self):
        out = product(DEPHASING, 0.0)
        assert np.linalg.norm(out - PLUS) <= 1e-14

    def test_single_projector_matches_closed(self):
        for t in (0.0, 0.3, 1.2):
            a = propagators.approx_propagate_closed(DRIVEN, t)
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
            a = propagators.approx_propagate_closed(scen, t)
            b = product(scen, t)
            assert np.linalg.norm(a - b) <= 1e-12


class TestThreeFormEquivalence:
    def test_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            scen = rand_scenario(rng, min_members=2)
            t = float(rng.uniform(0.0, 2.0))
            closed = propagators.approx_propagate_closed(scen, t)
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
                    propagators.exact_propagate(scen, t)
                    - propagators.approx_propagate_closed(scen, t))
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
                propagators.exact_propagate(scen, t)
                - propagators.approx_propagate_closed(scen, t))
            assert gap <= 1e-10


class TestSecondOrderGap:
    def test_log_log_slope_near_two(self):
        ts = np.geomspace(1e-3, 1e-1, 7)
        gaps = []
        for t in ts:
            gap = np.linalg.norm(
                propagators.exact_propagate(DRIVEN, t)
                - propagators.approx_propagate_closed(DRIVEN, t))
            gaps.append(gap)
        assert loglog_slope(ts, gaps) == pytest.approx(2.0, abs=0.1)


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
            lhs = taylor_expm(a) @ taylor_expm(inter) @ taylor_expm(b)
            residuals.append(np.linalg.norm(lhs - taylor_expm(a + b)))
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
        # t^2 overflows; the indicator is still 0, not inf * 0 = nan.
        assert propagators.bch_error_indicator(scen, 1e308) == 0.0
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
                gap = np.linalg.norm(propagators.exact_propagate(scen, t)
                                     - propagators.approx_propagate_closed(scen, t))
                assert gap <= propagators.bch_error_indicator(scen, t) + 1e-12

    def test_zero_time_gives_zero(self):
        assert propagators.bch_error_indicator(DRIVEN, 0.0) == 0.0

    def test_one_eigh_per_call(self, monkeypatch):
        # The indicator reads only G and H': one n x n eigh per call, of the
        # projectors' weights for V, and neither the spectrum of H' nor X0.
        # The values are those the whole frame gave, to the bit.
        scen = presets.preset_scenario("three-projector")
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        got = [propagators.bch_error_indicator(scen, t).hex() for t in (1.0, 3.5)]
        assert calls == [(4, 4), (4, 4)]
        assert got == ["0x1.465655f122ff6p+0", "0x1.f3b433993d971p+3"]

    def test_constant_past_the_float_range(self):
        # H = 1e200 sigma_x at rate 1e200: ||[A, B]||_F = sqrt(2) 1e400 is no
        # float, yet (t^2/2) ||[A, B]||_F is 0 at t = 0, finite where the
        # product is and inf only past the float range.
        scen = make_scenario(1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]), [(P0, 1e200)],
                             np.diag([1.0, 0.0]))
        assert propagators.bch_error_indicator(scen, 0.0) == 0.0
        for t in (1e-300, 1e-250, 1e-50):
            assert propagators.bch_error_indicator(scen, t) \
                == pytest.approx(0.5 ** 0.5 * (1e200 * t) ** 2, rel=1e-14)
        assert propagators.bch_error_indicator(scen, 1e-40) == math.inf

    def test_scaled_product_is_the_plain_one_to_the_bit(self):
        # Wherever 0.5 t t kappa is a normal float, the product of mantissas
        # scaled by the summed exponents is that float.
        rng = np.random.default_rng(53)
        ts = 10.0 ** rng.uniform(-150.0, 150.0, 2000)
        checked = 0
        for kappa in 10.0 ** rng.uniform(-100.0, 100.0, 50):
            with np.errstate(over="ignore", under="ignore"):
                plain = 0.5 * ts * ts * kappa
            normal = np.isfinite(plain) & (plain >= np.finfo(float).tiny)
            got = propagators._indicator(ts, math.frexp(kappa))
            assert np.array_equal(got[normal], plain[normal])
            checked += normal.sum()
        assert checked >= 50000

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


def test_propagation_is_deterministic():
    a = propagators.exact_propagate(DRIVEN, 0.7)
    b = propagators.exact_propagate(DRIVEN, 0.7)
    assert np.array_equal(a, b)


def perfbench_scenarios(workload, seed):
    """The scenarios the benchmark generates for ``workload`` and ``seed``."""
    return [config.parse_config(json.dumps(doc)) for doc in perfbench_configs(workload, seed)]


def chosen_kernel(monkeypatch, scen):
    """The name of the exact kernel that the cost rule picks for the
    scenario's grid; no kernel runs."""
    chosen = []
    for name in ("_taylor_states", "_ladder_states"):
        monkeypatch.setattr(propagators, name,
                            lambda *args, name=name: chosen.append(name))
    propagators._exact_states(propagators._frame(scen), scen.time_grid)
    return chosen.pop()


class TestMatrixFreeKernel:
    def test_agrees_with_the_dense_kernel(self, monkeypatch):
        # n from 1 to 12, 0 to n projectors, commuting and generic H; both
        # kernels forced on every grid.
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(71)
        for trial in range(60):
            n = 1 + trial % 12
            ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(0, n + 1)), rng),
                                            rng)
            members = [(p, float(rng.uniform(0.2, 3.0))) for p in ps]
            h = rand_hermitian(n, rng)
            if trial % 3 == 0:
                h = sum((float(rng.normal()) * p for p in ps), np.zeros((n, n), complex))
            grid = np.linspace(0.0, float(rng.uniform(0.1, 3.0)), int(rng.integers(1, 9)))
            scen = make_scenario(h, members, rand_density(n, rng), grid, dim=n)
            frame = propagators._frame(scen)
            dense = np.concatenate(list(ladder_states(frame, grid)))
            walked = np.concatenate(list(taylor_states(frame, grid)))
            assert np.linalg.norm(walked - dense, axis=(-2, -1)).max() <= 1e-12
        assert taylor

    @pytest.mark.parametrize("h, members", [
        (np.eye(1), []),
        (np.eye(1), [(np.eye(1), 2.0)]),
        (2.0 * np.eye(3), []),
    ])
    def test_zero_bound_takes_no_substep(self, monkeypatch, h, members):
        # nu = 0: the state is X0 at every time, and no division by zero.
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        n = h.shape[0]
        rho0 = np.eye(n) / n
        scen = make_scenario(h, members, rho0, (0.0, 0.5, 7.0), dim=n)
        frame = propagators._frame(scen)
        assert propagators._norm_bound(frame) == 0.0
        walked = np.concatenate(list(taylor_states(frame, scen.time_grid)))
        assert taylor == []
        assert np.array_equal(walked, np.broadcast_to(frame.x0, walked.shape))

    def test_states_are_exactly_hermitian_with_unit_trace(self):
        rng = np.random.default_rng(29)
        for max_dim in (2, 5, 12):
            scen = rand_scenario(rng, max_dim=max_dim)
            scen = model.Scenario(scen.hamiltonian, scen.family, scen.initial_state,
                                  np.linspace(0.0, 3.0, 9))
            walked = np.concatenate(list(taylor_states(propagators._frame(scen),
                                                       scen.time_grid)))
            assert np.array_equal(walked, walked.conj().swapaxes(-1, -2))
            assert np.abs(np.trace(walked, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12

    def test_rule_keeps_stiff_and_long_horizons_dense(self, monkeypatch):
        rng = np.random.default_rng(8)
        ps = rand_orthogonal_projectors(8, [2, 1, 2], rng)
        h = rand_hermitian(8, rng)
        stiff = make_scenario(5.0 * h / np.linalg.norm(h, 2), [(p, 1.0) for p in ps],
                              rand_density(8, rng), [1e8])
        assert chosen_kernel(monkeypatch, stiff) == "_ladder_states"
        for seed in (1, 2, 3):
            for scen in perfbench_scenarios("long-time", seed):
                assert chosen_kernel(monkeypatch, scen) == "_ladder_states"

    def test_rule_takes_short_horizons_at_large_n(self, monkeypatch):
        # dense-compare: n = 8, 10, 12, 14, 16 and a commuting n = 12.
        scens = perfbench_scenarios("dense-compare", 2)
        assert [scen.dim for scen in scens] == [8, 10, 12, 14, 16, 12]
        picks = [chosen_kernel(monkeypatch, scen) for scen in scens]
        assert picks == ["_ladder_states"] * 2 + ["_taylor_states"] * 4

    def test_n64_commuting_sweep_takes_no_taylor_expm(self, monkeypatch):
        # H commutes with every projector, so the closed form is exact.
        expm = counting(monkeypatch, propagators, "_taylor_expm")
        rng = np.random.default_rng(64)
        n = 64
        ps = rand_orthogonal_projectors(n, [8, 16, 4, 20], rng)
        members = [(p, float(rng.uniform(0.5, 2.0))) for p in ps]
        h = sum((float(rng.normal()) * p for p in ps), np.zeros((n, n), complex))
        scen = make_scenario(h, members, rand_density(n, rng), np.linspace(0.0, 2.0, 12))
        records = analysis.sweep(scen, "compare")
        assert expm == []
        assert len(records) == 12
        assert max(r.frobenius_gap for r in records) <= 1e-12

    def test_sweeps_repeat_to_the_bit(self, monkeypatch):
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(31)
        n = 12
        ps = rand_orthogonal_projectors(n, [2, 3, 1], rng)
        h = rand_hermitian(n, rng)
        scen = make_scenario(h / np.linalg.norm(h, 2), [(p, 1.5) for p in ps],
                             rand_density(n, rng), np.linspace(0.0, 2.0, 12))
        first = analysis.sweep(scen, "compare")
        assert taylor
        assert analysis.sweep(scen, "compare") == first


class TestDenseOutput:
    def test_one_series_per_substep_whatever_the_grid(self, monkeypatch):
        # The series are taken on the lattice, so a denser grid over the
        # same horizon takes none more.
        taylor = counting(monkeypatch, propagators, "_taylor_action")
        rng = np.random.default_rng(41)
        scen = rand_scenario(rng, max_dim=8)
        frame = propagators._frame(scen)
        substeps = 2.0 * propagators._norm_bound(frame) / propagators._THETA
        counts = []
        for points in (12, 200):
            taylor.clear()
            list(taylor_states(frame, np.linspace(0.0, 2.0, points)))
            counts.append(len(taylor))
        assert substeps >= 3.0
        assert counts[0] == counts[1]
        assert abs(counts[0] - math.ceil(substeps)) <= 1

    @pytest.mark.parametrize("name", ["lattice points", "inside substeps", "t = 0",
                                      "one point", "64 points", "65 points"])
    def test_matches_the_dense_kernel(self, name):
        # A bound nu = _THETA 2^e >= ||L|| puts the lattice on the dyadic
        # times k 2^-e, so "lattice points" fall on it exactly.
        rng = np.random.default_rng(43)
        scen = rand_scenario(rng)
        frame = propagators._frame(scen)
        theta = propagators._THETA
        nu = theta * 2.0 ** math.ceil(math.log2(propagators._norm_bound(frame) / theta))
        tau = theta / nu
        grid = {
            "lattice points": tau * np.arange(9),
            "inside substeps": tau * (np.arange(8) + rng.uniform(0.01, 0.99, 8)),
            "t = 0": np.zeros(1),
            "one point": np.array([2.5 * tau]),
            "64 points": np.linspace(0.0, 5.3 * tau, 64),
            "65 points": np.linspace(0.0, 5.3 * tau, 65),
        }[name]
        walked = np.concatenate(list(propagators._taylor_states(frame, grid, nu)))
        dense = np.concatenate(list(propagators._ladder_states(frame, grid, nu)))
        assert walked.shape == dense.shape == (len(grid), scen.dim, scen.dim)
        assert np.linalg.norm(walked - dense, axis=(-2, -1)).max() <= 1e-12
