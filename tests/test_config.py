import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import config, model, presets, propagators
from projlind.exceptions import ConfigError, InvalidInputError


def minimal_doc(**overrides):
    doc = {
        "dimension": 2,
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "projectors": [
            {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 1.0},
        ],
        "initial_state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        "time_grid": [0.0, 1.0],
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return config.parse_config(json.dumps(doc))


class TestParseConfig:
    def test_minimal_document(self):
        scen = parse(minimal_doc())
        assert scen.dim == 2
        assert len(scen.family) == 1
        assert_allclose(scen.time_grid, [0.0, 1.0], atol=0)

    def test_qubit_dephasing_preset(self):
        scen = presets.preset_scenario("qubit-dephasing")
        assert scen.dim == 2
        assert np.linalg.norm(scen.hamiltonian.matrix) == 0.0
        assert_allclose(scen.family.projectors[0], np.diag([1.0, 0.0]), atol=0)
        assert scen.family.rates == (1.0,)

    def test_every_preset_parses(self):
        for name in presets.PRESET_NAMES:
            scen = presets.preset_scenario(name)
            assert scen.dim in (2, 4)

    def test_rank2_projector_from_vectors(self):
        doc = minimal_doc(
            dimension=4,
            hamiltonian=[[[0.0, 0.0]] * 4 for _ in range(4)],
            projectors=[{
                "vectors": [
                    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                ],
                "rate": 2.0,
            }],
            initial_state=[[[0.25, 0.0]] * 4 for _ in range(4)],
        )
        scen = parse(doc)
        assert np.trace(scen.family.projectors[0]).real == pytest.approx(2.0)

    def test_complex_entries(self):
        doc = minimal_doc(
            hamiltonian=[[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]])
        scen = parse(doc)
        assert scen.hamiltonian.matrix[0, 1] == -1j

    def test_syntax_error_reports_location(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            config.parse_config("{\"dimension\": 2,,}")

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["initial_state"]
        with pytest.raises(ConfigError, match="initial_state"):
            parse(doc)

    def test_bare_number_entry_rejected(self):
        doc = minimal_doc(hamiltonian=[[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match=r"\[re, im\]"):
            parse(doc)

    def test_non_orthogonal_projectors_name_the_pair(self):
        doc = minimal_doc(projectors=[
            {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 1.0},
            {"matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], "rate": 1.0},
        ])
        with pytest.raises(InvalidInputError) as excinfo:
            parse(doc)
        assert "(0, 1)" in str(excinfo.value)
        assert "orthogonal" in str(excinfo.value)

    def test_both_matrix_and_vectors_rejected(self):
        doc = minimal_doc()
        doc["projectors"][0]["vectors"] = [[[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ConfigError, match="exactly one"):
            parse(doc)

    def test_invalid_initial_state(self):
        doc = minimal_doc(initial_state=[[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(InvalidInputError, match="initial_state"):
            parse(doc)


class TestTimeGrid:
    def test_linear_spacing(self):
        doc = minimal_doc(time_grid={"start": 0.0, "stop": 2.0, "count": 5,
                                     "spacing": "linear"})
        assert_allclose(parse(doc).time_grid, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)

    def test_log_spacing(self):
        doc = minimal_doc(time_grid={"start": 0.01, "stop": 1.0, "count": 3,
                                     "spacing": "log"})
        assert_allclose(parse(doc).time_grid, [0.01, 0.1, 1.0], rtol=1e-12)

    def test_log_spacing_needs_positive_start(self):
        doc = minimal_doc(time_grid={"start": 0.0, "stop": 1.0, "count": 3,
                                     "spacing": "log"})
        with pytest.raises(ConfigError, match="start > 0"):
            parse(doc)

    @pytest.mark.parametrize("grid, match", [
        pytest.param('{"start": 0, "stop": 1, "count": 2.7}', "integer count", id="count-2.7"),
        pytest.param('{"start": 0, "stop": 1, "count": 4.0}', "integer count", id="count-4.0"),
        pytest.param('{"start": 0, "stop": 1, "count": true}', "integer count", id="count-true"),
        pytest.param('{"start": 0, "stop": 1, "count": "4"}', "integer count", id="count-str"),
        pytest.param('{"start": 0, "stop": 1, "count": 1e400}', "integer count",
                     id="count-1e400"),
        pytest.param('{"start": true, "stop": 1, "count": 4}', "integer count", id="start-true"),
        pytest.param('{"start": "0.5", "stop": 1, "count": 4}', "integer count",
                     id="start-str"),
        pytest.param('{"start": 0.5, "stop": 0, "count": 4, "spacing": "log"}',
                     "log spacing requires stop > 0", id="log-stop-0"),
        pytest.param('{"start": 0.5, "stop": -1, "count": 4, "spacing": "log"}',
                     "log spacing requires stop > 0", id="log-stop-negative"),
    ])
    def test_object_form_rejects_bad_values(self, grid, match):
        # Raw JSON text: 1e400 has no json.dumps spelling.
        text = json.dumps(minimal_doc(time_grid=None)).replace("null", grid)
        with pytest.raises(ConfigError, match=match):
            config.parse_config(text)

    def test_descending_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="ascending"):
            parse(minimal_doc(time_grid=[1.0, 0.5]))


class TestRoundTrip:
    def test_serialize_reparse_identical_propagation(self):
        scen = presets.preset_scenario("three-projector")
        reparsed = config.parse_config(config.dumps_config(scen))
        for t in (0.3, 1.1):
            a = propagators.approx_propagate_closed(scen, t)
            b = propagators.approx_propagate_closed(reparsed, t)
            assert np.linalg.norm(a - b) <= 1e-14
            e1 = propagators.exact_propagate(scen, t)
            e2 = propagators.exact_propagate(reparsed, t)
            assert np.linalg.norm(e1 - e2) <= 1e-14

    def test_roundtrip_preserves_grid_exactly(self):
        scen = presets.preset_scenario("driven-qubit")
        reparsed = config.parse_config(config.dumps_config(scen))
        assert np.array_equal(scen.time_grid, reparsed.time_grid)

    def test_roundtrip_with_complex_entries(self):
        h = np.array([[0.0, 0.3 - 0.7j], [0.3 + 0.7j, 1.0]])
        scen = model.Scenario(
            model.Hamiltonian(h),
            model.ProjectorFamily(((np.diag([1.0, 0.0]), 0.9),)),
            model.DensityMatrix(np.diag([0.25, 0.75])),
            [0.0, 0.5],
        )
        reparsed = config.parse_config(config.dumps_config(scen))
        assert np.array_equal(scen.hamiltonian.matrix, reparsed.hamiltonian.matrix)
