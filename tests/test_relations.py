"""Metamorphic relations: changes of a scenario whose effect on the answer
is known without an oracle, checked on two full sweeps.

- A common energy offset H -> H + c 1 moves no state.
- (a) Rescaling time by a power of two, H -> 2^k H, lambda_j -> 2^k lambda_j
  and the grid -> 2^-k grid, changes no bit of any record but its time.
- (b) A change of basis, H, P_j, rho0 -> U H U^dag, U P_j U^dag,
  U rho0 U^dag for a unitary U, moves the unitarily invariant fields by
  rounding only.
"""

import functools
import json
import math

import numpy as np
import pytest

from projlind import analysis, cli, config, presets, propagators
from projlind.model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario

from oracles import perfbench_configs, rand_density, rand_hermitian, rand_unitary

#: The unit roundoff u.
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

#: c' of the bound c' u on every trace distance, gap and indicator of
#: H = c 1. The largest ratio to u measured over the three c is 1.7.
OFFSET_SLACK = 8.0

#: c of the covariance bound c u (1 + t nu). The largest ratio to
#: u (1 + t nu) measured over the scenarios below is 3.5.
COVARIANCE_SLACK = 16.0

#: Every record field but the time.
FIELDS = ("trace_distance", "frobenius_gap", "exact_trace", "approx_trace",
          "approx_min_eigenvalue", "bch_indicator")

#: The fields that a change of basis leaves invariant in exact arithmetic.
INVARIANT = ("trace_distance", "frobenius_gap", "approx_min_eigenvalue")


def scenario(h, members, rho0, grid) -> Scenario:
    return Scenario(Hamiltonian(h), ProjectorFamily(tuple(members), dim=len(h)),
                    DensityMatrix(rho0), grid)


def random_basis_projector(n, rank, rng):
    v = rand_unitary(n, rng)[:, :rank]
    return v @ v.conj().T


def fields(records) -> np.ndarray:
    """The records' fields but the time, one row per record, complex."""
    return np.array([[getattr(r, name) for name in FIELDS] for r in records], dtype=complex)


@functools.lru_cache(maxsize=None)
def seeded(workload: str, slot: int) -> Scenario:
    """The scenario of a seed-1 benchmark slot."""
    return config.parse_config(json.dumps(perfbench_configs(workload, 1)[slot]))


SCENARIOS = {
    "driven-qubit": lambda: presets.preset_scenario("driven-qubit"),
    "two-qubit-rank2": lambda: presets.preset_scenario("two-qubit-rank2"),
    "three-projector": lambda: presets.preset_scenario("three-projector"),
    # dense-compare's n = 8 and n = 12 slots, and long-time's n = 6 slot on
    # a log grid to t = 500.
    "dense-kernel": lambda: seeded("dense-compare", 0),
    "matrix-free-kernel": lambda: seeded("dense-compare", 2),
    "long-time": lambda: seeded("long-time", 0),
}

#: The exact kernel that a scenario named for one must take.
KERNELS = {"dense-kernel": "_ladder_states", "matrix-free-kernel": "_taylor_states"}


def kernel_taken(monkeypatch, scen) -> str:
    """The exact kernel that a compare sweep of ``scen`` runs."""
    taken = []
    for name in KERNELS.values():
        original = getattr(propagators, name)
        monkeypatch.setattr(propagators, name,
                            lambda *args, name=name, original=original:
                            taken.append(name) or original(*args))
    analysis.sweep(scen, "compare")
    monkeypatch.undo()
    return taken.pop()


class TestEnergyOffset:
    @pytest.mark.parametrize("c", [1.0, 1e6, 1e12])
    def test_a_multiple_of_one_reports_no_splitting_error(self, tmp_path, capsys, c):
        # H = c 1 has no dynamics: the closed form is exact and every gap
        # is 0, however large c is.
        rng = np.random.default_rng(5)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        scen = scenario(c * np.eye(6), [(random_basis_projector(6, 3, rng), 1.0)],
                        np.outer(psi, psi.conj()), np.logspace(0.0, 3.0, 8))
        cfg, out = tmp_path / "offset.json", tmp_path / "offset.csv"
        cfg.write_text(config.dumps_config(scen))
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "fitted convergence order: n/a" in capsys.readouterr().out
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        for name in ("trace_distance", "frobenius_gap", "bch_indicator"):
            column = [float(row[header.index(name)]) for row in rows]
            assert max(column) <= OFFSET_SLACK * UNIT_ROUNDOFF, (name, column)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_an_exact_shift_changes_no_bit(self, mode):
        # h0 has a zero diagonal, so h0 + c 1 is exact in float64.
        rng = np.random.default_rng(3)
        h0 = rand_hermitian(6, rng)
        np.fill_diagonal(h0, 0.0)
        u = rand_unitary(6, rng)
        members = [(u[:, :2] @ u[:, :2].conj().T, 0.7), (u[:, 2:5] @ u[:, 2:5].conj().T, 1.9)]
        rho0 = rand_density(6, rng)
        grid = np.logspace(-2.0, 2.0, 9)
        records = [analysis.sweep(scenario(h0 + c * np.eye(6), members, rho0, grid), mode)
                   for c in (0.0, 1e9)]
        np.testing.assert_array_equal(fields(records[1]), fields(records[0]))

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_a_multiple_of_one_near_the_float_range(self, mode):
        # The shift is halved before its sum: neither it nor H - s 1
        # overflows, where tr H does.
        rng = np.random.default_rng(5)
        scen = scenario(1.5e308 * np.eye(3), [(random_basis_projector(3, 1, rng), 1.0)],
                        rand_density(3, rng), [0.0, 1.0, 10.0])
        for record in analysis.sweep(scen, mode):
            for name in ("trace_distance", "frobenius_gap", "bch_indicator"):
                value = getattr(record, name)
                assert math.isnan(value) or value <= OFFSET_SLACK * UNIT_ROUNDOFF, name


@pytest.mark.parametrize("k", [3, -5], ids=["k3", "k-5"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_time_rescaling_is_bit_exact(monkeypatch, name, k):
    scen = SCENARIOS[name]()
    if name in KERNELS:
        assert kernel_taken(monkeypatch, scen) == KERNELS[name]
    s = 2.0 ** k
    scaled = Scenario(Hamiltonian(s * scen.hamiltonian.matrix),
                      ProjectorFamily(tuple((p, s * rate) for p, rate in scen.family),
                                      dim=scen.dim),
                      scen.initial_state, scen.time_grid / s)
    for mode in analysis.MODES:
        np.testing.assert_array_equal(fields(analysis.sweep(scaled, mode)),
                                      fields(analysis.sweep(scen, mode)), err_msg=mode)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_unitary_covariance(name):
    scen = SCENARIOS[name]()
    u = rand_unitary(scen.dim, np.random.default_rng(17))
    turn = lambda m: u @ m @ u.conj().T  # noqa: E731
    turned = Scenario(Hamiltonian(turn(scen.hamiltonian.matrix)),
                      ProjectorFamily(tuple((turn(p), rate) for p, rate in scen.family),
                                      dim=scen.dim),
                      DensityMatrix(turn(scen.initial_state.matrix)), scen.time_grid)
    nu = propagators._norm_bound(propagators._frame(scen))
    bound = COVARIANCE_SLACK * UNIT_ROUNDOFF * (1.0 + scen.time_grid * nu)
    a, b = analysis.sweep(scen), analysis.sweep(turned)
    for field in INVARIANT:
        move = np.abs([getattr(x, field) - getattr(y, field) for x, y in zip(a, b)])
        assert np.all(move <= bound), (field, (move / bound).max())
