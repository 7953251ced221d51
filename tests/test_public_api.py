"""The package's public names, pinned so that one is added only on purpose."""

import projlind

PUBLIC = (
    "ConfigError", "DensityMatrix", "DimensionError", "ErrorRecord", "FamilyValidation",
    "Hamiltonian", "InvalidInputError", "PauliDecomposition", "ProjectorFamily",
    "PRESET_NAMES", "Scenario",
    "approx_propagate_closed", "bch_error_indicator", "coherence_block_projector",
    "convergence_order", "dissipator_superop", "dumps_config", "exact_propagate",
    "hamiltonian_superop", "load_config", "parse_config", "pauli_decompose",
    "pauli_reconstruct", "preset_scenario", "preset_text", "projector_exp",
    "projector_from_vectors", "sweep", "trace_distance", "validate_family",
)


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 30
    assert sorted(projlind.__all__) == sorted(PUBLIC)
    assert [name for name in projlind.__all__ if not hasattr(projlind, name)] == []
