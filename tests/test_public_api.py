"""The package's public names, pinned so that one is added only on purpose."""

import projlind

PUBLIC = (
    "ConfigError", "DensityMatrix", "DimensionError", "ErrorRecord", "FamilyValidation",
    "Hamiltonian", "InvalidInputError", "PauliDecomposition", "ProjectorFamily",
    "PRESET_NAMES", "Scenario", "StateDiagnostics",
    "approx_propagate_closed", "bch_error_indicator", "coherence_block_projector",
    "convergence_order", "devectorize", "dissipator_superop", "dumps_config",
    "exact_propagate", "hamiltonian_superop", "load_config", "matexp", "parse_config",
    "pauli_decompose", "pauli_reconstruct", "preset_scenario", "preset_text",
    "projector_exp", "projector_from_vectors", "state_diagnostics", "sweep",
    "trace_distance", "validate_family", "vectorize",
)


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 35
    assert sorted(projlind.__all__) == sorted(PUBLIC)
    assert [name for name in projlind.__all__ if not hasattr(projlind, name)] == []
