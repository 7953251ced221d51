"""Seeded scenario generation for the benchmark workloads.

Every workload is a fixed list of slots. A slot fixes what sets the cost of
a run (dimension, number of projectors, grid, mode); the seed fixes the
rest (Hamiltonian, projector basis and ranks, rates, initial state, which
projectors are written as vectors). Runs with different seeds therefore do
the same amount of work on different numbers.

Each scenario keeps the unitary ``basis`` whose column blocks span its
projectors, so the checks can work in the basis where the dissipator is
diagonal without asking the program for anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

RATES = (0.5, 2.0)  # decay rates are drawn uniformly from this range

# Slot: (dimension, projector count, spanning: True / False / None for
# seed-chosen ranks, commuting H). "l1_norm" fixes ||t(A + B)||_1 / t, which
# sets the Pade degree and squaring count of the exact path, so that cost
# does not move with the seed.
WORKLOADS = {
    "dense-compare": {
        "mode": "compare", "grid": {"start": 0.0, "stop": 2.0, "count": 12, "spacing": "linear"},
        "max_rank": 2, "form": "mixed", "l1_norm": 16.0,
        "slots": [(8, 4, None, False), (10, 2, None, False), (12, 3, None, False),
                  (14, 4, None, False), (16, 3, None, False), (12, 3, None, True)],
    },
    "approx-wide": {
        "mode": "approx-only", "grid": {"start": 0.0, "stop": 1.0, "count": 6, "spacing": "linear"},
        "max_rank": 3, "form": "matrix", "l1_norm": None,
        "slots": [(24, 16, True, False), (32, 12, False, False)],
    },
    "long-time": {
        "mode": "compare", "grid": {"start": 1e-2, "stop": 500.0, "count": 16, "spacing": "log"},
        "max_rank": 2, "form": "mixed", "l1_norm": 16.0,
        "slots": [(6, 2, None, False), (7, 4, None, False), (8, 3, None, False),
                  (9, 2, None, False), (10, 4, None, False)],
    },
}


@dataclass(frozen=True)
class Case:
    """One generated scenario, with the structure the checks rely on."""

    name: str
    mode: str
    hamiltonian: np.ndarray
    basis: np.ndarray          # unitary; projector j spans columns blocks[j]
    blocks: tuple              # (start, stop) column ranges, one per projector
    rates: tuple
    initial_state: np.ndarray
    grid_spec: dict
    commuting: bool
    vector_form: tuple         # per projector: written as "vectors"?

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def projectors(self) -> list:
        return [_projector(self.basis, block) for block in self.blocks]

    def grid(self) -> np.ndarray:
        g = self.grid_spec
        if g["spacing"] == "log":
            return np.geomspace(g["start"], g["stop"], g["count"])
        return np.linspace(g["start"], g["stop"], g["count"])


def _projector(basis, block) -> np.ndarray:
    v = basis[:, block[0]:block[1]]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def _unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0


def _ranks(n, m, max_rank, spanning, rng):
    """Ranks of m projectors, each in [1, max_rank]. A spanning family sums
    to n; a non-spanning one leaves 1-4 dimensions to the remainder block;
    with spanning None the ranks are drawn freely and capped at n."""
    if spanning is None:
        ranks = rng.integers(1, max_rank + 1, size=m)
        while ranks.sum() > n:
            ranks[rng.choice(np.flatnonzero(ranks > 1))] -= 1
        return [int(r) for r in ranks]
    target = n if spanning else n - int(rng.integers(1, 5))
    if not m <= target <= m * max_rank:
        raise ValueError(f"cannot place {m} projectors of rank <= {max_rank} in {target}")
    ranks = np.ones(m, dtype=int)
    for _ in range(target - m):
        ranks[rng.choice(np.flatnonzero(ranks < max_rank))] += 1
    return [int(r) for r in ranks]


def _scale_to_l1(h, projectors, rates, target) -> float:
    """The s > 0 with ||s A + B||_1 = target, by bisection; the norm is
    convex in s and ||B||_1 < target."""
    n = h.shape[0]
    eye = np.eye(n)
    a = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    b = np.zeros_like(a)
    for p, lam in zip(projectors, rates):
        b -= 0.5 * lam * (np.kron(p, (eye - p).T) + np.kron(eye - p, p.T))
    norm = lambda s: np.linalg.norm(s * a + b, 1)
    if norm(0.0) >= target:
        raise ValueError(f"dissipator alone has 1-norm {norm(0.0)} >= {target}")
    lo, hi = 0.0, 1.0
    while norm(hi) < target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if norm(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def _make_case(name, spec, slot, rng) -> Case:
    n, m, spanning, commuting = slot
    ranks = _ranks(n, m, spec["max_rank"], spanning, rng)
    stops = np.cumsum(ranks)
    blocks = tuple((int(b - r), int(b)) for b, r in zip(stops, ranks))
    basis = _unitary(n, rng)
    if commuting:
        # Block-diagonal in the projector basis: commutes with every P_j.
        hb = np.zeros((n, n), dtype=complex)
        for a, b in blocks + ((int(stops[-1]), n),):
            hb[a:b, a:b] = _hermitian(b - a, rng)
        h = basis @ hb @ basis.conj().T
    else:
        h = _hermitian(n, rng)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = z @ z.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    rates = tuple(float(x) for x in rng.uniform(*RATES, size=m))
    h = h / np.linalg.norm(h, 2)
    if spec["l1_norm"] is not None:
        projectors = [_projector(basis, block) for block in blocks]
        h = h * _scale_to_l1(h, projectors, rates, spec["l1_norm"])
    h = (h + h.conj().T) / 2.0
    if spec["form"] == "mixed":
        vector_form = tuple(bool(x) for x in rng.random(m) < 0.5)
    else:
        vector_form = (False,) * m
    return Case(name, spec["mode"], h, basis, blocks, rates, rho,
                dict(spec["grid"]), commuting, vector_form)


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's scenarios for this seed; same seed, same scenarios."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(workload)])
    return [_make_case(f"{workload}-{k}-n{slot[0]}", spec, slot, rng)
            for k, slot in enumerate(spec["slots"])]


def _pairs(a) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.atleast_2d(a)]


def to_config(case: Case) -> dict:
    """The scenario in the program's JSON schema."""
    projectors = []
    for (a, b), p, rate, as_vectors in zip(case.blocks, case.projectors, case.rates,
                                           case.vector_form):
        if as_vectors:
            projectors.append({"vectors": _pairs(case.basis[:, a:b].T), "rate": rate})
        else:
            projectors.append({"matrix": _pairs(p), "rate": rate})
    return {
        "dimension": case.dim,
        "hamiltonian": _pairs(case.hamiltonian),
        "projectors": projectors,
        "initial_state": _pairs(case.initial_state),
        "time_grid": case.grid_spec,
    }


def write_configs(cases, directory) -> list[str]:
    """Write one config file per case; return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(directory, f"{case.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_config(case), fh, indent=1)
        paths.append(path)
    return paths
