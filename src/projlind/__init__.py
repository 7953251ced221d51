"""projlind: density-matrix propagation for master equations whose
dissipator is a weighted set of mutually orthogonal projectors.

The package provides the exact vectorized-generator solution, a closed-form
factorized approximation that is exact whenever the Hamiltonian commutes
with every projector, and tooling to quantify the gap between the two.
"""

from .analysis import ErrorRecord, convergence_order, sweep, trace_distance
from .config import dumps_config, load_config, parse_config
from .exceptions import ConfigError, DimensionError, InvalidInputError
from .model import (DensityMatrix, FamilyValidation, Hamiltonian, ProjectorFamily, Scenario,
                    dissipator_superop, hamiltonian_superop, projector_from_vectors,
                    validate_family)
from .presets import PRESET_NAMES, preset_scenario, preset_text
from .propagators import approx_propagate_closed, bch_error_indicator, exact_propagate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DensityMatrix",
    "DimensionError",
    "ErrorRecord",
    "FamilyValidation",
    "Hamiltonian",
    "InvalidInputError",
    "ProjectorFamily",
    "PRESET_NAMES",
    "Scenario",
    "approx_propagate_closed",
    "bch_error_indicator",
    "convergence_order",
    "dissipator_superop",
    "dumps_config",
    "exact_propagate",
    "hamiltonian_superop",
    "load_config",
    "parse_config",
    "preset_scenario",
    "preset_text",
    "projector_from_vectors",
    "sweep",
    "trace_distance",
    "validate_family",
]
