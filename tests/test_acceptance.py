"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal (without ``-s`` they appear in the captured output of
failing tests only).
"""

import csv
import functools
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import analysis, cli, presets, propagators, sweep
from projlind.model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario

from oracles import (
    approx_expanded,
    approx_product,
    coherence_block_projector,
    pauli_decompose,
    pauli_reconstruct,
    projector_exp,
    rand_density,
    rand_hermitian,
    rand_orthogonal_projectors,
    rand_ranks,
    taylor_expm,
)


def criterion(num, desc):
    """Print one PASS/FAIL line per acceptance criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS: {desc}")
            return result
        return wrapper
    return deco


def rand_scenario(rng, max_dim=6, min_members=1):
    n = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(min_members, min(3, n) + 1))
    ps = rand_orthogonal_projectors(n, rand_ranks(n, k, rng), rng)
    return Scenario(
        Hamiltonian(rand_hermitian(n, rng)),
        ProjectorFamily(tuple((p, float(rng.uniform(0.2, 3.0))) for p in ps)),
        DensityMatrix(rand_density(n, rng)),
        [0.0, 1.0],
    )


@criterion(1, "vectorization identity on 200 random triples, dims {2,3,4,6}, <= 1e-12")
def test_c01_vectorization_identity():
    rng = np.random.default_rng(101)
    for n in (2, 3, 4, 6):
        for _ in range(50):
            a, b, x = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                       for _ in range(3))
            residual = np.linalg.norm((a @ x @ b).reshape(-1) - np.kron(a, b.T) @ x.reshape(-1))
            bound = 1e-12 * np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(x)
            assert residual <= bound


@criterion(2, "coherence-block projector facts (a)-(d) on 50 random families, <= 1e-12")
def test_c02_projector_facts():
    rng = np.random.default_rng(102)
    for i in range(50):
        n = 3 + i % 4                       # dims 3..6
        k = 2 if (n == 3 and i % 2 == 0) else 3
        ps = rand_orthogonal_projectors(n, rand_ranks(n, k, rng), rng)
        rs = [coherence_block_projector(p) for p in ps]
        for r in rs:                        # (a) projectors ...
            assert np.linalg.norm(r @ r - r) <= 1e-12
            assert np.linalg.norm(r - r.conj().T) <= 1e-12
        for j in range(k):                  # ... commuting with each other
            for l in range(k):
                assert np.linalg.norm(rs[j] @ rs[l] - rs[l] @ rs[j]) <= 1e-12
        for j in range(k):                  # (c) pair products collapse
            for l in range(j + 1, k):
                expected = np.kron(ps[j], ps[l].T) + np.kron(ps[l], ps[j].T)
                assert np.linalg.norm(rs[j] @ rs[l] - expected) <= 1e-12
        if k >= 3:                          # (d) triple products vanish
            assert np.linalg.norm(rs[0] @ rs[1] @ rs[2]) <= 1e-12


@criterion(3, "projector exponential matches the series oracle over scales [-10, 1], <= 1e-10")
def test_c03_projector_exponential():
    rng = np.random.default_rng(103)
    projectors = [
        np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
        coherence_block_projector(np.diag([1.0, 0.0]).astype(complex)),
        coherence_block_projector(rand_orthogonal_projectors(3, [2], rng)[0]),
        np.eye(4, dtype=complex),
        np.zeros((4, 4), dtype=complex),
    ]
    for r in projectors:
        for scale in np.linspace(-10.0, 1.0, 12):
            gap = np.linalg.norm(projector_exp(scale, r) - taylor_expm(scale * r))
            assert gap <= 1e-10


@criterion(4, "product, expanded and closed forms agree pairwise, <= 1e-12")
def test_c04_three_form_equivalence():
    def check(scen, t):
        parts = (scen.hamiltonian.matrix, scen.family, scen.initial_state.matrix, t)
        closed = propagators.approx_propagate_closed(scen, t)
        product = approx_product(*parts)
        expanded = approx_expanded(*parts)
        assert np.linalg.norm(closed - product) <= 1e-12
        assert np.linalg.norm(closed - expanded) <= 1e-12
        assert np.linalg.norm(product - expanded) <= 1e-12

    scen = presets.preset_scenario("three-projector")
    for t in scen.time_grid:
        check(scen, t)
    rng = np.random.default_rng(104)
    for _ in range(50):
        check(rand_scenario(rng, min_members=2), float(rng.uniform(0.0, 2.0)))


@criterion(5, "approximation exact when H = 0 or [H, P_j] = 0, <= 1e-10")
def test_c05_exactness_in_commuting_cases():
    rng = np.random.default_rng(105)

    def max_gap(scen):
        return max(
            np.linalg.norm(propagators.exact_propagate(scen, t)
                           - propagators.approx_propagate_closed(scen, t))
            for t in scen.time_grid)

    # H = 0: the dephasing preset plus random pure-decoherence scenarios
    assert max_gap(presets.preset_scenario("qubit-dephasing")) <= 1e-10
    for _ in range(5):
        n = int(rng.integers(2, 6))
        ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, 3)), rng), rng)
        scen = Scenario(
            Hamiltonian(np.zeros((n, n))),
            ProjectorFamily(tuple((p, float(rng.uniform(0.2, 3.0))) for p in ps)),
            DensityMatrix(rand_density(n, rng)),
            np.linspace(0.0, 2.0, 5),
        )
        assert max_gap(scen) <= 1e-10

    # [H, P_j] = 0: simultaneously diagonal H and projectors
    scen = Scenario(
        Hamiltonian(np.diag(rng.normal(size=4))),
        ProjectorFamily(((np.diag([1.0, 0, 0, 0]), 0.8),
                         (np.diag([0, 1.0, 0, 0]), 1.7))),
        DensityMatrix(rand_density(4, rng)),
        np.linspace(0.0, 2.0, 5),
    )
    assert max_gap(scen) <= 1e-10


@criterion(6, "driven-qubit gap slope 2.0 +- 0.1 and exact t^2 indicator scaling")
def test_c06_second_order_gap_scaling():
    scen = presets.preset_scenario("driven-qubit")
    assert_allclose(scen.time_grid, [0.025, 0.05, 0.1, 0.2], atol=0)
    records = sweep(scen)
    slope = analysis.convergence_order(records)
    assert abs(slope - 2.0) <= 0.1
    indicators = [r.bch_indicator for r in records]
    assert indicators[0] > 0
    for small, big in zip(indicators, indicators[1:]):  # t doubles each step
        assert big == pytest.approx(4.0 * small, rel=1e-12)


@criterion(7, "approximate output physical over 100 random scenarios")
def test_c07_approximation_is_physical():
    rng = np.random.default_rng(107)
    for _ in range(100):
        scen = rand_scenario(rng)
        t = float(rng.uniform(0.0, 3.0))
        out = propagators.approx_propagate_closed(scen, t)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.linalg.norm(out - out.conj().T) <= 1e-12
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10


@criterion(8, "exact path: semigroup composition and empty-family unitary limit, <= 1e-10")
def test_c08_exact_path_sanity():
    rng = np.random.default_rng(108)
    for _ in range(5):
        scen = rand_scenario(rng)
        t1, t2 = rng.uniform(0.1, 1.0, size=2)
        once = propagators.exact_propagate(scen, t1 + t2)
        mid = propagators.exact_propagate(scen, t1)
        scen2 = Scenario(scen.hamiltonian, scen.family,
                         DensityMatrix((mid + mid.conj().T) / 2), scen.time_grid)
        twice = propagators.exact_propagate(scen2, t2)
        assert np.linalg.norm(once - twice) <= 1e-10

    for _ in range(5):
        n = int(rng.integers(2, 6))
        h = rand_hermitian(n, rng)
        rho0 = rand_density(n, rng)
        scen = Scenario(Hamiltonian(h), ProjectorFamily((), dim=n),
                        DensityMatrix(rho0), [0.0, 1.0])
        t = float(rng.uniform(0.2, 2.0))
        u = taylor_expm(-1j * t * h)
        gap = np.linalg.norm(propagators.exact_propagate(scen, t)
                             - u @ rho0 @ u.conj().T)
        assert gap <= 1e-10


@criterion(9, "dephasing hand value 1/2 [[1, 1/4], [1/4, 1]] from both paths, <= 1e-12")
def test_c09_dephasing_hand_value():
    # Independent oracle: the 4x4 generator of the vectorized equation for
    # H = 0, P = diag(1, 0), lam = 2 is diag(0, -1, -1, 0) (rate lam/2 on
    # the two coherence components), exponentiated by the series oracle.
    lam, t = 2.0, np.log(4.0)
    generator = np.diag([0.0, -lam / 2.0, -lam / 2.0, 0.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    oracle = (taylor_expm(t * generator) @ rho0.reshape(-1)).reshape(2, 2)
    frozen = np.array([[0.5, 0.125], [0.125, 0.5]])
    assert_allclose(oracle, frozen, atol=1e-14)

    base = presets.preset_scenario("qubit-dephasing")
    scen = Scenario(
        base.hamiltonian,
        ProjectorFamily(((base.family.projectors[0], lam),)),
        base.initial_state,
        base.time_grid,
    )
    for path in (propagators.exact_propagate, propagators.approx_propagate_closed):
        out = path(scen, t)
        assert np.linalg.norm(out - frozen) <= 1e-12
        # off-diagonal decays to exactly 1/4 of its initial value 0.5
        assert abs(out[0, 1] / 0.5 - 0.25) <= 1e-12


@criterion(10, "Pauli round-trip on 100 random states and Bell coefficients, <= 1e-12")
def test_c10_pauli_roundtrip():
    rng = np.random.default_rng(110)
    for _ in range(100):
        rho = rand_density(4, rng)
        back = pauli_reconstruct(*pauli_decompose(rho))
        assert np.linalg.norm(back - rho) <= 1e-12
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    p, q, r = pauli_decompose(bell)
    assert np.linalg.norm(p) <= 1e-12
    assert np.linalg.norm(q) <= 1e-12
    assert np.linalg.norm(r - np.diag([1.0, -1.0, 1.0])) <= 1e-12


@criterion(11, "CLI end-to-end: presets run clean, bad family exits 1 naming the pair")
def test_c11_cli_end_to_end(tmp_path):
    for name in presets.PRESET_NAMES:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(presets.preset_text(name))
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "projlind", "run",
             "--config", str(cfg), "--mode", "compare", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert len(rows) - 1 == presets.preset_scenario(name).time_grid.size

    bad = {
        "dimension": 2,
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "projectors": [
            {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 1.0},
            {"matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], "rate": 1.0},
        ],
        "initial_state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        "time_grid": [0.0, 1.0],
    }
    cfg = tmp_path / "non_orthogonal.json"
    cfg.write_text(json.dumps(bad))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projlind", "run",
         "--config", str(cfg), "--mode", "compare", "--out", str(tmp_path / "bad.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "(0, 1)" in proc.stderr and "orthogonal" in proc.stderr
