"""projlind: density-matrix propagation for master equations whose
dissipator is a weighted set of mutually orthogonal projectors.

The package provides the exact vectorized-generator solution, a closed-form
factorized approximation that is exact whenever the Hamiltonian commutes
with every projector, and tooling to quantify the gap between the two.
"""

from .analysis import (
    ErrorRecord,
    PauliDecomposition,
    StateDiagnostics,
    convergence_order,
    pauli_decompose,
    pauli_reconstruct,
    state_diagnostics,
    sweep,
    trace_distance,
)
from .config import dumps_config, load_config, parse_config, scenario_to_config
from .exceptions import ConfigError, DimensionError, InvalidInputError
from .linalg import (
    devectorize,
    hermitian_eigenvalues,
    kron,
    matexp,
    vectorize,
)
from .model import (
    DensityMatrix,
    FamilyValidation,
    Hamiltonian,
    ProjectorFamily,
    Scenario,
    apply_dissipator,
    coherence_block_projector,
    complement,
    dissipator_superop,
    hamiltonian_superop,
    projector_exp,
    projector_from_vectors,
    validate_family,
)
from .presets import PRESET_NAMES, preset_config, preset_scenario, preset_text
from .propagators import (
    PropagationResult,
    approx_propagate_closed,
    bch_error_indicator,
    exact_propagate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DensityMatrix",
    "DimensionError",
    "ErrorRecord",
    "FamilyValidation",
    "Hamiltonian",
    "InvalidInputError",
    "PauliDecomposition",
    "PropagationResult",
    "ProjectorFamily",
    "PRESET_NAMES",
    "Scenario",
    "StateDiagnostics",
    "apply_dissipator",
    "approx_propagate_closed",
    "bch_error_indicator",
    "coherence_block_projector",
    "complement",
    "convergence_order",
    "devectorize",
    "dissipator_superop",
    "dumps_config",
    "exact_propagate",
    "hamiltonian_superop",
    "hermitian_eigenvalues",
    "kron",
    "load_config",
    "matexp",
    "parse_config",
    "pauli_decompose",
    "pauli_reconstruct",
    "preset_config",
    "preset_scenario",
    "preset_text",
    "projector_exp",
    "projector_from_vectors",
    "scenario_to_config",
    "state_diagnostics",
    "sweep",
    "trace_distance",
    "validate_family",
    "vectorize",
]
