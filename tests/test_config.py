import gc
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

    @pytest.mark.parametrize("where, message", [
        ("top level", "unknown keys: ['note']"),
        ("time_grid", "time_grid: unknown keys ['note']"),
        ("projector", "projectors[0]: unknown keys ['note', 'ratee']"),
    ])
    def test_unknown_keys_rejected(self, where, message):
        # A misspelt key is an error, not a key to drop: "ratee" must not
        # leave the preset's rate of 1.0 in force unnoticed.
        doc = json.loads(presets.preset_text("qubit-dephasing"))
        if where == "top level":
            doc["note"] = True
        elif where == "time_grid":
            doc["time_grid"]["note"] = True
        else:
            doc["projectors"][0].update(ratee=5.0, note=True)
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == message

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

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_unallocatable_count_is_a_config_error(self, spacing):
        # numpy refuses 10**20 points before it allocates anything.
        doc = minimal_doc(time_grid={"start": 1.0, "stop": 2.0, "count": 10**20,
                                     "spacing": spacing})
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == "time_grid: count 100000000000000000000 is too large"


BIG = 10**400  # a JSON integer no float can hold
_Z = [0.0, 0.0]
_ONE = [[[1.0, 0.0], _Z], [_Z, _Z]]


@pytest.mark.parametrize("overrides, field", [
    pytest.param({"hamiltonian": [[[BIG, 0.0], _Z], [_Z, _Z]]}, "hamiltonian[0][0]",
                 id="matrix-entry"),
    pytest.param({"projectors": [{"matrix": _ONE, "rate": BIG}]}, "projectors[0].rate",
                 id="rate"),
    pytest.param({"time_grid": [0.0, BIG]}, "time_grid[1]", id="grid-entry"),
    pytest.param({"time_grid": {"start": BIG, "stop": 1, "count": 3}}, "time_grid.start",
                 id="start"),
    pytest.param({"time_grid": {"start": 0, "stop": BIG, "count": 3}}, "time_grid.stop",
                 id="stop"),
])
def test_integer_beyond_float_range_names_the_field(overrides, field, tmp_path):
    doc = minimal_doc(**overrides)
    with pytest.raises(ConfigError) as excinfo:
        parse(doc)
    assert str(excinfo.value) == f"{field}: number out of range"
    if field.startswith("projectors"):  # what `validate` reads
        with pytest.raises(ConfigError) as excinfo:
            config.load_members(_write(tmp_path, doc))
        assert str(excinfo.value) == f"{field}: number out of range"


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

    def test_roundtrip_is_bit_exact(self):
        tiny = 5e-324  # the smallest subnormal
        h = np.array([[3.0, complex(tiny, -0.0)], [complex(tiny, 0.0), complex(-0.0, -0.0)]])
        p = np.array([[1.0, -0.0], [-0.0, 0.0]], dtype=complex)
        rho = np.array([[0.25, complex(-0.0, tiny)], [complex(-0.0, -tiny), 0.75]])
        scen = model.Scenario(model.Hamiltonian(h), model.ProjectorFamily(((p, 1e308),)),
                              model.DensityMatrix(rho), [0.0, tiny, 2.0, 1e308])
        back = config.parse_config(config.dumps_config(scen))
        pairs = [(scen.hamiltonian.matrix, back.hamiltonian.matrix),
                 (scen.family.projectors[0], back.family.projectors[0]),
                 (np.array(scen.family.rates), np.array(back.family.rates)),
                 (scen.initial_state.matrix, back.initial_state.matrix),
                 (scen.time_grid, back.time_grid)]
        for ours, theirs in pairs:
            _assert_same_bits(theirs, ours)


def _entrywise(node) -> np.ndarray:
    """The independent oracle: a matrix node read one [re, im] pair at a time."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in node],
                    dtype=complex)


def _assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _write(tmp_path, doc_or_text):
    path = tmp_path / "c.json"
    path.write_text(doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text))
    return path


class TestMatrixReading:
    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_presets_match_entrywise_oracle(self, name, tmp_path):
        doc = presets.PRESETS[name]
        scen = presets.preset_scenario(name)
        _assert_same_bits(scen.hamiltonian.matrix, _entrywise(doc["hamiltonian"]))
        _assert_same_bits(scen.initial_state.matrix, _entrywise(doc["initial_state"]))
        members = config.load_members(_write(tmp_path, presets.preset_text(name)))
        for item, (p, rate), q in zip(doc["projectors"], members, scen.family.projectors):
            expected = (_entrywise(item["matrix"]) if "matrix" in item
                        else model.projector_from_vectors(_entrywise(item["vectors"])))
            _assert_same_bits(p, expected)
            _assert_same_bits(q, expected)
            assert rate == item["rate"]

    def test_random_matrices_match_entrywise_oracle(self, monkeypatch, tmp_path):
        seen = []  # the vector lists the reader hands on
        monkeypatch.setattr(config, "projector_from_vectors", lambda v: seen.append(v) or v)
        rng = np.random.default_rng(20260)
        pool = [0, 1, -7, 2**62, 0.0, -0.0, 1e308, -1e308, 5e-324, 3.0, -0.5]

        def number():
            k = rng.integers(len(pool) + 2)
            if k < len(pool):
                return pool[k]
            return float(rng.normal()) if k == len(pool) else int(rng.integers(-10**6, 10**6))

        for _ in range(40):
            n = int(rng.integers(1, 6))
            # Hermitian by construction: the mirror entry is the conjugate,
            # and a diagonal entry keeps its imaginary part 0, 0.0 or -0.0.
            h = [[None] * n for _ in range(n)]
            for i in range(n):
                h[i][i] = [number(), [0, 0.0, -0.0][int(rng.integers(3))]]
                for j in range(i + 1, n):
                    re, im = number(), number()
                    h[i][j], h[j][i] = [re, im], [re, -im]
            unit = [[[int(i == j == 0), 0] for j in range(n)] for i in range(n)]
            rows = int(rng.integers(1, n + 1))
            loose = [[[number(), number()] for _ in range(n)] for _ in range(n)]
            vectors = [[[number(), number()] for _ in range(n)] for _ in range(rows)]
            doc = {"dimension": n, "hamiltonian": h,
                   "projectors": [{"matrix": unit, "rate": 2}],
                   "initial_state": unit, "time_grid": [0, 1]}
            # The Hermiticity gate's norm overflows at 1e308; that is not under test here.
            with np.errstate(over="ignore", invalid="ignore"):
                scen = config.parse_config(json.dumps(doc))
            _assert_same_bits(scen.hamiltonian.matrix, _entrywise(h))
            _assert_same_bits(scen.initial_state.matrix, _entrywise(unit))
            _assert_same_bits(scen.family.projectors[0], _entrywise(unit))
            # load_members does not enforce the family axioms, so any matrix goes.
            doc["projectors"] = [{"matrix": loose, "rate": 1}, {"matrix": unit, "rate": 1}]
            members = config.load_members(_write(tmp_path, doc))
            _assert_same_bits(members[0][0], _entrywise(loose))
            _assert_same_bits(members[1][0], _entrywise(unit))
            doc["projectors"] = [{"vectors": vectors, "rate": 1}]
            config.load_members(_write(tmp_path, doc))
            _assert_same_bits(seen.pop(), _entrywise(vectors))

    def test_valid_matrices_skip_the_entry_walk(self, monkeypatch, tmp_path):
        def walk(node, path):
            raise AssertionError(f"{path} was read entry by entry")

        monkeypatch.setattr(config, "_complex_entry", walk)
        for name in presets.PRESET_NAMES:
            presets.preset_scenario(name)
            config.load_members(_write(tmp_path, presets.preset_text(name)))

    # The walk's messages, which every rejected node must keep word for word.
    @pytest.mark.parametrize("field, node, message", [
        pytest.param("hamiltonian", [[[True, 0.0], _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got [True, 0.0]", id="bool"),
        pytest.param("projectors", [[[1.0, 0.0], _Z], [_Z, [0.0, False]]],
                     "projectors[0].matrix[1][1]: expected a [re, im] pair, got [0.0, False]",
                     id="false-in-projector"),
        # numpy reads [True, 0] among ints as an int; the typed pass does not.
        pytest.param("hamiltonian", [[[1, 0], [0, 0]], [[0, 0], [True, 0]]],
                     "hamiltonian[1][1]: expected a [re, im] pair, got [True, 0]",
                     id="bool-among-ints"),
        pytest.param("vectors", [[[1, 0], [True, 0]]],
                     "projectors[0].vectors[0][1]: expected a [re, im] pair, got [True, 0]",
                     id="bool-among-ints-in-vectors"),
        pytest.param("hamiltonian", [[[0.0, None], _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got [0.0, None]", id="null"),
        pytest.param("hamiltonian", [[["1.0", 0.0], _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got ['1.0', 0.0]",
                     id="string"),
        pytest.param("hamiltonian", [[[1.0], _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got [1.0]", id="one-element"),
        pytest.param("hamiltonian", [[[1.0, 0.0, 0.0], _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got [1.0, 0.0, 0.0]",
                     id="three-element"),
        pytest.param("hamiltonian", [[0.0, _Z], [_Z, _Z]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got 0.0", id="bare-number"),
        pytest.param("hamiltonian", [[[_Z], [_Z]], [[_Z], [_Z]]],
                     "hamiltonian[0][0]: expected a [re, im] pair, got [[0.0, 0.0]]",
                     id="nested-deeper"),
        pytest.param("hamiltonian", [[_Z, _Z], [_Z]], "hamiltonian[1]: expected 2 entries",
                     id="short-row"),
    ])
    def test_rejected_node_keeps_the_walk_message(self, field, node, message, tmp_path):
        if field == "projectors":
            doc = minimal_doc(projectors=[{"matrix": node, "rate": 1.0}])
        elif field == "vectors":
            doc = minimal_doc(projectors=[{"vectors": node, "rate": 1.0}])
        else:
            doc = minimal_doc(**{field: node})
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == message
        if field in ("projectors", "vectors"):
            with pytest.raises(ConfigError) as excinfo:
                config.load_members(_write(tmp_path, doc))
            assert str(excinfo.value) == message

    def test_large_integer_reads_as_its_float(self, monkeypatch):
        # 10**300 is a JSON integer that a float holds only rounded; the
        # typed pass reads it as float() does, without the walk.
        def walk(node, path):
            raise AssertionError(f"{path} was read entry by entry")

        monkeypatch.setattr(config, "_complex_entry", walk)
        doc = minimal_doc(hamiltonian=[[[10**300, 0], [0, 0]], [[0, 0], [-1, 0]]])
        h = parse(doc).hamiltonian.matrix
        _assert_same_bits(h, np.array([[float(10**300), 0.0], [0.0, -1.0]], dtype=complex))
        assert h[0, 0].real.hex() == float(10**300).hex()

    @pytest.mark.parametrize("field, entry, message", [
        ("hamiltonian", [float("nan"), 0.0], "hamiltonian: Hamiltonian contains NaN or Inf entries"),
        ("hamiltonian", [0.0, float("inf")], "hamiltonian: Hamiltonian contains NaN or Inf entries"),
        ("initial_state", [float("-inf"), 0.0],
         "initial_state: density matrix contains NaN or Inf entries"),
    ])
    def test_non_finite_entries_stay_invalid_input(self, field, entry, message):
        doc = minimal_doc()
        doc[field][0][0] = entry
        with pytest.raises(InvalidInputError) as excinfo:
            parse(doc)  # json.dumps writes NaN and Infinity, which json.loads reads back
        assert str(excinfo.value) == message


@pytest.fixture
def collector():
    """Restores the collector state that the test found."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _read_as(reader, text, tmp_path):
    """``text`` read by parse_config, or by load_members from a file."""
    if reader == "parse_config":
        return config.parse_config(text)
    return config.load_members(_write(tmp_path, text))


class TestCollectorState:
    """The reader pauses the cyclic garbage collector while it decodes and
    converts, and leaves it as it found it, on every exit."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("text, error", [
        pytest.param(json.dumps(minimal_doc()), None, id="success"),
        pytest.param('{"dimension": 2,', "JSON syntax error", id="syntax-error"),
        pytest.param(json.dumps(minimal_doc(projectors=[{"matrix": [[_Z, _Z], [_Z]],
                                                         "rate": 1.0}])),
                     "projectors[0].matrix[1]: expected 2 entries", id="rejected-node"),
    ])
    @pytest.mark.parametrize("reader", ["parse_config", "load_members"])
    def test_leaves_the_collector_as_found(self, collector, reader, text, error, enabled,
                                           tmp_path):
        (gc.enable if enabled else gc.disable)()
        if error is None:
            _read_as(reader, text, tmp_path)
        else:
            with pytest.raises(ConfigError) as excinfo:
                _read_as(reader, text, tmp_path)
            assert str(excinfo.value).startswith(error)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("reader", ["parse_config", "load_members"])
    def test_collector_is_paused_while_reading(self, collector, reader, monkeypatch, tmp_path):
        seen = []
        parse_members = config._parse_members
        monkeypatch.setattr(config, "_parse_members",
                            lambda doc: seen.append(gc.isenabled()) or parse_members(doc))
        gc.enable()
        _read_as(reader, json.dumps(minimal_doc()), tmp_path)
        assert seen == [False] and gc.isenabled()
