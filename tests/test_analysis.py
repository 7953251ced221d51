import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import analysis, cli, config, model, propagators
from projlind.exceptions import DimensionError, InvalidInputError

from oracles import (
    SX,
    pauli_decompose,
    pauli_reconstruct,
    rand_density,
    rand_hermitian,
    rand_orthogonal_projectors,
    rand_ranks,
    vectorized_generator,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
CHUNK = propagators._CHUNK
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5  # |Phi+><Phi+|


def make_scenario(h, members, rho0, grid):
    n = np.asarray(h).shape[0]
    return model.Scenario(
        model.Hamiltonian(h),
        model.ProjectorFamily(tuple(members), dim=n),
        model.DensityMatrix(rho0),
        np.asarray(grid, dtype=float),
    )


class TestTraceDistance:
    def test_identical_states(self):
        rho = rand_density(3, np.random.default_rng(0))
        assert analysis.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert analysis.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) \
            == pytest.approx(1.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        assert analysis.trace_distance(np.diag([1.0, 0.0]), 0.5 * np.eye(2)) \
            == pytest.approx(0.5, abs=1e-14)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = (rand_density(4, rng) for _ in range(3))
            dab = analysis.trace_distance(a, b)
            assert dab == pytest.approx(analysis.trace_distance(b, a), abs=1e-14)
            assert dab <= analysis.trace_distance(a, c) + analysis.trace_distance(c, b) + 1e-10

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = analysis.trace_distance(rand_density(5, rng), rand_density(5, rng))
            assert -1e-10 <= d <= 1.0 + 1e-10

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionError):
            analysis.trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            analysis.trace_distance(np.array([[0.5, 1.0], [0.0, 0.5]]), 0.5 * np.eye(2))

    def test_stack_matches_pairs(self):
        rng = np.random.default_rng(31)
        rho = np.array([rand_density(4, rng) for _ in range(20)])
        sigma = np.array([rand_density(4, rng) for _ in range(20)])
        stacked = analysis.trace_distance(rho, sigma)
        assert stacked.shape == (20,)
        assert_allclose(stacked, [analysis.trace_distance(a, b) for a, b in zip(rho, sigma)],
                        rtol=0, atol=1e-15)
        pairs = analysis.trace_distance(rho.reshape(4, 5, 4, 4), sigma.reshape(4, 5, 4, 4))
        assert_allclose(pairs.reshape(-1), stacked, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["rho", "sigma"])
    def test_stack_gates_every_member(self, name):
        rng = np.random.default_rng(37)
        states = {n: np.array([rand_density(3, rng) for _ in range(5)])
                  for n in ("rho", "sigma")}
        states[name][3, 0, 2] += 1e-6
        with pytest.raises(InvalidInputError,
                           match=f"^{name} is not Hermitian within 1e-10$"):
            analysis.trace_distance(states["rho"], states["sigma"])

    def test_rejects_nan_state(self):
        with pytest.raises(InvalidInputError, match="^sigma is not Hermitian"):
            analysis.trace_distance(np.eye(2) / 2, np.full((2, 2), np.nan))

    @pytest.mark.parametrize("name", ["rho", "sigma"])
    def test_stack_rejects_a_nan_member(self, name):
        rng = np.random.default_rng(39)
        states = {n: np.array([rand_density(3, rng) for _ in range(5)])
                  for n in ("rho", "sigma")}
        states[name][2, 1, 1] = np.nan
        with pytest.raises(InvalidInputError, match=f"^{name} is not Hermitian"):
            analysis.trace_distance(states["rho"], states["sigma"])

    @pytest.mark.parametrize("shapes", [
        ((3, 2, 2), (4, 2, 2)), ((3, 2, 2), (2, 2)), ((3, 2, 3), (3, 2, 3)), ((2,), (2,))])
    def test_stack_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(DimensionError):
            analysis.trace_distance(np.zeros(shapes[0]), np.zeros(shapes[1]))

    # A norm that overflows makes a NaN or infinite residual, which the gate
    # reads without a numpy warning, on a stack as on one matrix.
    def test_stack_rejects_an_overflowing_non_hermitian_member(self):
        b = np.stack([np.array([[0.0, 1e200], [0.0, 0.0]])] * 2)
        with pytest.raises(InvalidInputError, match="^rho is not Hermitian"):
            analysis.trace_distance(b, b)

    def test_stack_of_overflowing_hermitian_members(self):
        b = np.stack([np.array([[0.0, 1e200], [1e200, 0.0]])] * 2)
        assert analysis.trace_distance(b, b).tolist() == [0.0, 0.0]

    def test_square_input_gives_a_float(self):
        rng = np.random.default_rng(41)
        assert type(analysis.trace_distance(rand_density(3, rng), rand_density(3, rng))) \
            is float


class TestPauliDecomposition:
    """The reference decomposition in ``oracles`` that the two-qubit
    tracking test reads."""

    def test_maximally_mixed(self):
        p, q, r = pauli_decompose(np.eye(4) / 4.0)
        assert np.linalg.norm(p) == 0.0
        assert np.linalg.norm(q) == 0.0
        assert np.linalg.norm(r) == 0.0

    def test_bell_state_coefficients(self):
        p, q, r = pauli_decompose(BELL)
        assert_allclose(p, np.zeros(3), atol=1e-12)
        assert_allclose(q, np.zeros(3), atol=1e-12)
        assert_allclose(r, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_ground_state_coefficients(self):
        p, q, r = pauli_decompose(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-12)
        assert_allclose(q, [0.0, 0.0, 1.0], atol=1e-12)
        expected_r = np.zeros((3, 3))
        expected_r[2, 2] = 1.0
        assert_allclose(r, expected_r, atol=1e-12)

    def test_roundtrip_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = rand_density(4, rng)
            back = pauli_reconstruct(*pauli_decompose(rho))
            assert np.linalg.norm(back - rho) <= 1e-12

    def test_roundtrip_from_coefficients(self):
        r = np.diag([1.0, -1.0, 1.0])
        assert_allclose(pauli_reconstruct(np.zeros(3), np.zeros(3), r), BELL, atol=1e-12)
        _, _, r2 = pauli_decompose(pauli_reconstruct(np.zeros(3), np.zeros(3), r))
        assert_allclose(r2, r, atol=1e-12)

    def test_zero_coefficients_reconstruct_identity(self):
        out = pauli_reconstruct(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert_allclose(out, np.eye(4) / 4.0, atol=0)


class TestSweep:
    def test_single_zero_time_point(self):
        scen = make_scenario(np.zeros((2, 2)), [(P0, 1.0)],
                             0.5 * np.ones((2, 2)), [0.0])
        records = analysis.sweep(scen)
        assert len(records) == 1
        assert records[0].trace_distance <= 1e-12
        assert records[0].bch_indicator == 0.0

    def test_commuting_scenario_all_small(self):
        scen = make_scenario(np.zeros((2, 2)), [(P0, 1.0)],
                             0.5 * np.ones((2, 2)), np.linspace(0.0, 2.0, 5))
        for rec in analysis.sweep(scen):
            assert rec.trace_distance <= 1e-10
            assert abs(rec.exact_trace - 1.0) <= 1e-10
            assert abs(rec.approx_trace - 1.0) <= 1e-12

    def test_noncommuting_gap_ratios(self):
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]), [0.05, 0.1, 0.2])
        gaps = [r.frobenius_gap for r in analysis.sweep(scen)]
        assert gaps[1] / gaps[0] == pytest.approx(4.0, abs=0.5)
        assert gaps[2] / gaps[1] == pytest.approx(4.0, abs=0.5)

    def test_member_order_permutation_invariance(self):
        rng = np.random.default_rng(13)
        ps = rand_orthogonal_projectors(4, [1, 2, 1], rng)
        rates = [0.5, 1.0, 2.0]
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h[0, 1] = h[1, 0] = 0.3
        rho0 = rand_density(4, rng)
        grid = [0.0, 0.5, 1.0]
        base = analysis.sweep(make_scenario(h, list(zip(ps, rates)), rho0, grid))
        perm = analysis.sweep(make_scenario(
            h, [(ps[2], rates[2]), (ps[0], rates[0]), (ps[1], rates[1])], rho0, grid))
        for a, b in zip(base, perm):
            assert a.trace_distance == pytest.approx(b.trace_distance, abs=1e-12)
            assert a.frobenius_gap == pytest.approx(b.frobenius_gap, abs=1e-12)
            assert a.bch_indicator == pytest.approx(b.bch_indicator, abs=1e-12)

    def test_records_sorted_by_time(self):
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]), [0.1, 0.2, 0.4])
        times = [r.time for r in analysis.sweep(scen)]
        assert times == sorted(times)

    def test_rejects_unknown_mode(self):
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]), [0.1])
        with pytest.raises(InvalidInputError):
            analysis.sweep(scen, "approx")

    def test_every_point_passes_the_hermiticity_gate(self, monkeypatch, tmp_path, capsys):
        # A non-Hermitian exact state at the last point must be refused by
        # the sweep's trace distance and by `run`.
        exact_states = propagators._exact_states

        def skewed(frame, times):
            chunks = list(exact_states(frame, times))
            chunks[-1] = chunks[-1].copy()
            chunks[-1][-1, 0, -1] += 1e-6
            yield from chunks

        monkeypatch.setattr(analysis, "_exact_states", skewed)
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]), [0.1, 0.2, 0.4])
        with pytest.raises(InvalidInputError, match="rho is not Hermitian within 1e-10"):
            analysis.sweep(scen, "compare")
        cfg = tmp_path / "driven.json"
        cfg.write_text(config.dumps_config(scen))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: propagation failed: rho is not Hermitian within 1e-10\n"

    def test_sweep_holds_one_chunk_per_path(self, monkeypatch):
        # Each path's states are drawn one chunk of at most _CHUNK points at
        # a time, so the memory of a sweep does not grow with its grid.
        drawn = {"exact": 0, "approx": 0}

        def counted(name, states):
            def wrapper(frame, times):
                for chunk in states(frame, times):
                    drawn[name] += len(chunk)
                    yield chunk
            return wrapper

        seen = []
        distance = analysis.trace_distance

        def recording(rho, sigma):
            seen.append(dict(drawn))
            return distance(rho, sigma)

        monkeypatch.setattr(analysis, "_exact_states", counted("exact", propagators._exact_states))
        monkeypatch.setattr(analysis, "_approx_states",
                            counted("approx", propagators._approx_states))
        monkeypatch.setattr(analysis, "trace_distance", recording)
        count = 2 * CHUNK + 5
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]), np.linspace(0.0, 2.0, count))
        assert len(analysis.sweep(scen, "compare")) == count
        drawn_at = [min((k + 1) * CHUNK, count) for k in range(3)]
        assert seen == [{"exact": i, "approx": i} for i in drawn_at]

    @pytest.mark.parametrize("count", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_chunk_boundaries_match_single_points(self, count):
        # Every record equals the public metrics of the single-point
        # propagators at its time, whichever chunk the point falls in.
        rng = np.random.default_rng(29)
        ps = rand_orthogonal_projectors(3, [1, 1], rng)
        scen = make_scenario(rand_hermitian(3, rng), list(zip(ps, (0.7, 1.9))),
                             rand_density(3, rng), np.geomspace(0.05, 6.0, count))
        exact = [propagators.exact_propagate(scen, t) for t in scen.time_grid]
        approx = [propagators.approx_propagate_closed(scen, t) for t in scen.time_grid]
        sweeps = {mode: analysis.sweep(scen, mode) for mode in analysis.MODES}
        for k, t in enumerate(scen.time_grid):
            e, a = exact[k], approx[k]
            rec, only_e, only_a = (sweeps[m][k] for m in analysis.MODES)
            assert rec.time == only_e.time == only_a.time == t
            assert abs(rec.trace_distance - analysis.trace_distance(e, a)) <= 1e-12
            assert abs(rec.frobenius_gap - np.linalg.norm(e - a)) <= 1e-12
            for r in (rec, only_e):
                assert abs(r.exact_trace - np.trace(e)) <= 1e-12
            for r in (rec, only_a):
                assert abs(r.approx_trace - np.trace(a)) <= 1e-12
                assert abs(r.approx_min_eigenvalue - np.linalg.eigvalsh(a)[0]) <= 1e-12
            for r in (rec, only_e, only_a):
                assert r.bch_indicator == propagators.bch_error_indicator(scen, t)
            assert np.isnan([only_e.trace_distance, only_e.frobenius_gap,
                             only_e.approx_min_eigenvalue]).all()
            assert np.isnan([only_a.trace_distance, only_a.frobenius_gap]).all()
            assert np.isnan(only_e.approx_trace) and np.isnan(only_a.exact_trace)

    @pytest.mark.parametrize("mode, per_point", [
        ("compare", 1), ("approx-only", 1), ("exact-only", 0)])
    def test_one_frame_per_sweep(self, monkeypatch, mode, per_point):
        # One eigh builds the projector frame for the whole grid; each
        # closed-form point adds one eigh of H' for its unitary factor.
        rng = np.random.default_rng(5)
        ps = rand_orthogonal_projectors(5, [2, 1, 1], rng)
        members = list(zip(ps, (0.5, 1.0, 2.0)))
        scen = make_scenario(rand_hermitian(5, rng), members, rand_density(5, rng),
                             np.linspace(0.0, 2.0, 7))
        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert len(analysis.sweep(scen, mode)) == 7
        assert len(calls) == 1 + 7 * per_point

    def test_stiff_limit_is_maximally_mixed(self):
        # n = 8, ranks [2, 1, 2], ||H||_2 = 5: the generator's only zero mode
        # is the identity and every other mode decays at least as fast as
        # exp(-gamma t), so at gamma t >= 50 the state is 1/n to rounding.
        rng = np.random.default_rng(8)
        n, t = 8, 1e8
        for _ in range(10):
            ps = rand_orthogonal_projectors(n, [2, 1, 2], rng)
            members = [(p, float(rng.uniform(0.5, 2.0))) for p in ps]
            h = rand_hermitian(n, rng)
            h *= 5.0 / np.linalg.norm(h, 2)
            eig = np.linalg.eigvals(vectorized_generator(h, members))
            zero = np.abs(eig) <= 1e-9
            assert zero.sum() == 1
            assert -eig[~zero].real.max() * t >= 50.0
            scen = make_scenario(h, members, rand_density(n, rng), [t])
            analysis.sweep(scen, "compare")
            state = propagators.exact_propagate(scen, t)
            assert np.linalg.norm(state - np.eye(n) / n) <= 1e-12

    def test_gates_hold_from_soft_to_stiff(self):
        # Rates over eight decades, ||H|| over seven and log grids up to
        # t = 1e8: every compare sweep passes the 1e-10 Hermiticity gate of
        # trace_distance and keeps the exact trace at 1 within 1e-10.
        rng = np.random.default_rng(300)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            ranks = rand_ranks(n, int(rng.integers(0, n + 1)), rng)
            ps = rand_orthogonal_projectors(n, ranks, rng)
            members = [(p, float(10.0 ** rng.uniform(-4.0, 4.0))) for p in ps]
            h = rand_hermitian(n, rng)
            h *= 10.0 ** rng.uniform(-4.0, 3.0) / np.linalg.norm(h, 2)
            t_max = 10.0 ** rng.uniform(-2.0, 8.0)
            grid = np.geomspace(t_max * 10.0 ** -rng.uniform(0.5, 4.0), t_max,
                                int(rng.integers(1, 5)))
            scen = make_scenario(h, members, rand_density(n, rng), grid)
            for rec in analysis.sweep(scen, "compare"):
                assert abs(rec.exact_trace - 1.0) <= 1e-10


class TestPureDecoherenceCoefficientTracking:
    def test_two_qubit_coefficients_match_exact(self):
        # H = 0: the closed form is exact, so the Bloch-type coefficient
        # trajectories from both paths must coincide.
        from projlind.propagators import approx_propagate_closed, exact_propagate
        rng = np.random.default_rng(17)
        p = model.projector_from_vectors([np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0])])
        scen = make_scenario(np.zeros((4, 4)), [(p, 1.2), (np.diag([0, 0, 1.0, 0]), 0.6)],
                             rand_density(4, rng), np.linspace(0.0, 2.0, 5))
        for t in scen.time_grid:
            exact = pauli_decompose(exact_propagate(scen, t))
            closed = pauli_decompose(approx_propagate_closed(scen, t))
            for e, c in zip(exact, closed):
                assert np.linalg.norm(e - c) <= 1e-10


class TestConvergenceOrder:
    @staticmethod
    def _records(ts, gaps):
        return [analysis.ErrorRecord(
            time=t, trace_distance=0.0, frobenius_gap=g,
            exact_trace=1.0 + 0.0j, approx_trace=1.0 + 0.0j,
            approx_min_eigenvalue=0.0, bch_indicator=0.0)
            for t, g in zip(ts, gaps)]

    def test_quadratic_synthetic_data(self):
        ts = np.array([0.025, 0.05, 0.1, 0.2])
        recs = self._records(ts, 0.3 * ts ** 2)
        assert analysis.convergence_order(recs) == pytest.approx(2.0, abs=1e-12)

    def test_linear_synthetic_data(self):
        ts = np.array([0.025, 0.05, 0.1, 0.2])
        recs = self._records(ts, 0.8 * ts)
        assert analysis.convergence_order(recs) == pytest.approx(1.0, abs=1e-12)

    def test_driven_qubit_near_second_order(self):
        scen = make_scenario(SX, [(P0, 1.0)], np.diag([1.0, 0.0]),
                             [0.025, 0.05, 0.1, 0.2])
        assert analysis.convergence_order(analysis.sweep(scen)) \
            == pytest.approx(2.0, abs=0.1)

    def test_noise_floor_points_excluded(self):
        ts = np.array([0.01, 0.02, 0.1, 0.2, 0.4])
        gaps = np.array([1e-16, 1e-15, *(0.3 * ts[2:] ** 2)])
        assert analysis.convergence_order(self._records(ts, gaps)) \
            == pytest.approx(2.0, abs=1e-12)

    def test_insufficient_records_raise(self):
        recs = self._records([0.1, 0.2], [1e-3, 4e-3])
        with pytest.raises(InvalidInputError):
            analysis.convergence_order(recs)
        zero_gap = self._records([0.1, 0.2, 0.4], [1e-16, 1e-16, 1e-16])
        with pytest.raises(InvalidInputError):
            analysis.convergence_order(zero_gap)
