"""Shipped scenario presets.

Each preset is a complete configuration document in the schema of
:mod:`projlind.config` and doubles as a worked example of the format.

* ``qubit-dephasing``: single qubit, H = 0, one rank-1 projector. Pure
  decoherence, so the splitting approximation is exact.
* ``driven-qubit``: H = sigma_x against a sigma_z-basis projector starting
  from the ground state. The canonical non-commuting case; the grid doubles
  t four times so the second-order error scaling is visible directly.
* ``two-qubit-rank2``: one rank-2 projector on two qubits entered in the
  orthonormal-vectors form.
* ``three-projector``: three rank-1 projectors in dimension 4 with distinct
  rates, exercising the cross terms of the pair algebra.
"""

from __future__ import annotations

import json

from .config import parse_config
from .model import Scenario

_R = lambda x: [float(x), 0.0]  # real entry shorthand for the tables below
_0 = [0.0, 0.0]
_1 = [1.0, 0.0]

PRESETS: dict[str, dict] = {
    "qubit-dephasing": {
        "dimension": 2,
        "hamiltonian": [[_0, _0], [_0, _0]],
        "projectors": [
            {"matrix": [[_1, _0], [_0, _0]], "rate": 1.0},
        ],
        "initial_state": [[_R(0.5), _R(0.5)], [_R(0.5), _R(0.5)]],
        "time_grid": {"start": 0.0, "stop": 2.0, "count": 9, "spacing": "linear"},
    },
    "driven-qubit": {
        "dimension": 2,
        "hamiltonian": [[_0, _1], [_1, _0]],
        "projectors": [
            {"matrix": [[_1, _0], [_0, _0]], "rate": 1.0},
        ],
        "initial_state": [[_1, _0], [_0, _0]],
        "time_grid": [0.025, 0.05, 0.1, 0.2],
    },
    "two-qubit-rank2": {
        "dimension": 4,
        # sigma_x on the first qubit
        "hamiltonian": [
            [_0, _0, _1, _0],
            [_0, _0, _0, _1],
            [_1, _0, _0, _0],
            [_0, _1, _0, _0],
        ],
        "projectors": [
            # rank-2 projector onto the first qubit's |0> subspace,
            # given as two orthonormal vectors
            {"vectors": [[_1, _0, _0, _0], [_0, _1, _0, _0]], "rate": 1.5},
        ],
        # Bell state: its |00><11| coherence crosses the projector blocks
        # (so the channel bites) and it does not commute with the drive
        # (so the exact-vs-factorized gap is genuine)
        "initial_state": [
            [_R(0.5), _0, _0, _R(0.5)],
            [_0, _0, _0, _0],
            [_0, _0, _0, _0],
            [_R(0.5), _0, _0, _R(0.5)],
        ],
        "time_grid": {"start": 0.0, "stop": 1.0, "count": 5, "spacing": "linear"},
    },
    "three-projector": {
        "dimension": 4,
        # nearest-neighbour hopping
        "hamiltonian": [
            [_0, _1, _0, _0],
            [_1, _0, _1, _0],
            [_0, _1, _0, _1],
            [_0, _0, _1, _0],
        ],
        "projectors": [
            {"matrix": [[_1, _0, _0, _0], [_0, _0, _0, _0],
                        [_0, _0, _0, _0], [_0, _0, _0, _0]], "rate": 1.0},
            {"matrix": [[_0, _0, _0, _0], [_0, _1, _0, _0],
                        [_0, _0, _0, _0], [_0, _0, _0, _0]], "rate": 0.5},
            {"matrix": [[_0, _0, _0, _0], [_0, _0, _0, _0],
                        [_0, _0, _1, _0], [_0, _0, _0, _0]], "rate": 0.25},
        ],
        "initial_state": [[_R(0.25)] * 4 for _ in range(4)],
        "time_grid": {"start": 0.0, "stop": 1.5, "count": 7, "spacing": "linear"},
    },
}

PRESET_NAMES = tuple(PRESETS)


def preset_text(name: str) -> str:
    """The named preset as formatted JSON text."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return json.dumps(PRESETS[name], indent=2)


def preset_scenario(name: str) -> Scenario:
    """Parse the named preset through the regular configuration path."""
    return parse_config(preset_text(name))
