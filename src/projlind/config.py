"""JSON scenario configuration: parsing, validation and serialization.

Schema
------
A configuration is a single JSON object with these keys:

``dimension``
    Positive integer n.
``hamiltonian``
    n x n matrix. Every matrix is a list of rows; every entry is a
    two-element array ``[re, im]``. Bare numbers are rejected, so the format
    is unambiguous.
``projectors``
    List of objects, each holding ``rate`` (positive number), exactly one
    of the following, and no other key:

    * ``matrix``: an explicit n x n projector, entries as ``[re, im]``;
    * ``vectors``: a list of orthonormal length-n vectors (entries as
      ``[re, im]``); the projector is assembled as sum v v^dag, so rank > 1
      projectors can be entered without writing the matrix out.
``initial_state``
    n x n density matrix, entries as ``[re, im]``.
``time_grid``
    Either an explicit ascending list of non-negative numbers, or an object
    ``{"start": a, "stop": b, "count": k, "spacing": "linear" | "log"}``
    with numbers a, b and an integer k. Log spacing requires a > 0 and b > 0.

Every number must fit a float. A matrix node that holds the right number of
rows and entries, every entry a pair, and only ints and floats as leaves is
flattened in one typed pass and read as one buffer. Any other node, including
one holding ``true`` or ``false`` (a bool is no number here), takes the
per-entry walk, whose error names the first bad entry. The cyclic garbage
collector is paused while a text is decoded and its matrices read: the
decoded tree holds no reference cycles, so its collections would free nothing.

A file is read once, as UTF-8 text, by :func:`load_config` or
:func:`load_members`; bytes that are not UTF-8 raise
:class:`~projlind.exceptions.ConfigError`, and so do syntax errors, with
the line and column. Invariant violations raise
:class:`~projlind.exceptions.InvalidInputError` carrying the offending
field, projector index or pair, and the measured residual.
"""

from __future__ import annotations

import gc
import json
from itertools import chain

import numpy as np

from .exceptions import ConfigError, InvalidInputError
from .model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario, projector_from_vectors

_REQUIRED_KEYS = ("dimension", "hamiltonian", "projectors", "initial_state", "time_grid")


def _is_number(x) -> bool:
    """True for a JSON number; a JSON bool parses to a Python int, but is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _in_field(path: str, build, *args):
    """build(*args), with an InvalidInputError it raises prefixed by ``path``."""
    try:
        return build(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _float(x, path: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{path}: number out of range") from None


def _complex_entry(node, path: str) -> complex:
    if not isinstance(node, (list, tuple)) or len(node) != 2 or not all(map(_is_number, node)):
        raise ConfigError(f"{path}: expected a [re, im] pair, got {node!r}")
    return complex(_float(node[0], path), _float(node[1], path))


def _complex_matrix(node, path: str, rows: int, cols: int) -> np.ndarray:
    try:
        entries = list(chain.from_iterable(node))
        flat = list(chain.from_iterable(entries))
    except TypeError:  # a number or null where a list belongs
        flat = None
    # Leaf types are compared exactly, so a JSON bool (a Python bool) fails
    # here. Iterating a JSON string or object yields strings, so numeric
    # leaves mean that every level above them is a list.
    if (flat is not None and len(node) == rows and set(map(len, node)) == {cols}
            and set(map(len, entries)) == {2} and set(map(type, flat)) <= {float, int}):
        try:
            # The view keeps -0.0, inf and nan exactly as complex(re, im) does.
            return np.fromiter(flat, float, len(flat)).view(complex).reshape(rows, cols)
        except OverflowError:  # an integer past the float range: the walk names it
            pass
    # The typed pass rejected the node: the walk names its first bad entry.
    if not isinstance(node, list) or len(node) != rows:
        raise ConfigError(f"{path}: expected {rows} rows")
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{path}[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            _complex_entry(entry, f"{path}[{i}][{j}]")
    raise ConfigError(f"{path}: expected {rows} rows of {cols} [re, im] pairs")


def _time_grid(node, path: str) -> np.ndarray:
    if isinstance(node, list):
        if not all(map(_is_number, node)):
            raise ConfigError(f"{path}: explicit grid must contain numbers only")
        return np.array([_float(x, f"{path}[{i}]") for i, x in enumerate(node)])
    if isinstance(node, dict):
        if extra := sorted(set(node) - {"start", "stop", "count", "spacing"}):
            raise ConfigError(f"{path}: unknown keys {extra}")
        start, stop, count = (node.get(key) for key in ("start", "stop", "count"))
        if not (_is_number(start) and _is_number(stop) and _is_number(count)
                and isinstance(count, int)):
            raise ConfigError(f"{path}: needs numeric start, stop and integer count")
        start, stop = _float(start, f"{path}.start"), _float(stop, f"{path}.stop")
        spacing = node.get("spacing", "linear")
        if count < 1:
            raise ConfigError(f"{path}: count must be >= 1, got {count}")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing: expected 'linear' or 'log', got {spacing!r}")
        if spacing == "log" and start <= 0.0:
            raise ConfigError(f"{path}: log spacing requires start > 0, got {start}")
        if spacing == "log" and stop <= 0.0:
            raise ConfigError(f"{path}: log spacing requires stop > 0, got {stop}")
        try:
            return (np.geomspace if spacing == "log" else np.linspace)(start, stop, count)
        except (ValueError, OverflowError, MemoryError):
            raise ConfigError(f"{path}: count {count} is too large") from None
    raise ConfigError(f"{path}: expected a list of times or a start/stop/count object")


def _parse_members(doc: dict) -> list[tuple[np.ndarray, float]]:
    """Raw (projector matrix, rate) pairs, before family axioms are enforced."""
    n, node = doc["dimension"], doc["projectors"]
    if not isinstance(node, list):
        raise ConfigError("projectors: expected a list")
    members = []
    for j, item in enumerate(node):
        path = f"projectors[{j}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: expected an object")
        if extra := sorted(set(item) - {"rate", "matrix", "vectors"}):
            raise ConfigError(f"{path}: unknown keys {extra}")
        if "rate" not in item:
            raise ConfigError(f"{path}: missing rate")
        rate = item["rate"]
        if not _is_number(rate):
            raise ConfigError(f"{path}.rate: expected a number, got {rate!r}")
        has_matrix = "matrix" in item
        has_vectors = "vectors" in item
        if has_matrix == has_vectors:
            raise ConfigError(f"{path}: give exactly one of 'matrix' or 'vectors'")
        if has_matrix:
            p = _complex_matrix(item["matrix"], f"{path}.matrix", n, n)
        else:
            vecs_node = item["vectors"]
            if not isinstance(vecs_node, list) or not vecs_node:
                raise ConfigError(f"{path}.vectors: expected a non-empty list of vectors")
            # One vector per row.
            vecs = _complex_matrix(vecs_node, f"{path}.vectors", len(vecs_node), n)
            p = _in_field(f"{path}.vectors", projector_from_vectors, vecs)
        members.append((p, _float(rate, f"{path}.rate")))
    return members


def _parse_document(text: str) -> dict:
    """The checked top-level object of ``text``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"missing required keys: {missing}")
    if extra := sorted(set(doc) - set(_REQUIRED_KEYS)):
        raise ConfigError(f"unknown keys: {extra}")
    if not isinstance(doc["dimension"], int) or isinstance(doc["dimension"], bool) \
            or doc["dimension"] < 1:
        raise ConfigError(f"dimension: expected a positive integer, got {doc['dimension']!r}")
    return doc


def _read(path) -> str:
    """The text of a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc}") from exc


def _decoded(text: str, convert):
    """convert(doc) for the checked top-level object ``doc`` of ``text``, with
    the cyclic garbage collector paused throughout.

    The caller's collector state is restored on every exit, once ``convert``
    has returned or raised; on a return, the tree is dropped by then.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(_parse_document(text))
    finally:
        if enabled:
            gc.enable()


def load_members(path) -> list[tuple[np.ndarray, float]]:
    """Raw (projector matrix, rate) pairs of a configuration file, before the
    family axioms are enforced, for reporting on them."""
    return _decoded(_read(path), _parse_members)


def _matrices(doc: dict) -> tuple:
    """The raw Hamiltonian, members, initial state and time grid of ``doc``."""
    n = doc["dimension"]
    return (_complex_matrix(doc["hamiltonian"], "hamiltonian", n, n), _parse_members(doc),
            _complex_matrix(doc["initial_state"], "initial_state", n, n),
            _time_grid(doc["time_grid"], "time_grid"))


def parse_config(text: str) -> Scenario:
    """Parse a JSON configuration document into a validated Scenario."""
    h, members, rho0, grid = _decoded(text, _matrices)
    hamiltonian = _in_field("hamiltonian", Hamiltonian, h)
    family = _in_field("projectors", ProjectorFamily, members, h.shape[0])
    state = _in_field("initial_state", DensityMatrix, rho0)
    return _in_field("time_grid", Scenario, hamiltonian, family, state, grid)


def load_config(path) -> Scenario:
    """Read and parse a configuration file."""
    return parse_config(_read(path))


def _matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def dumps_config(scenario: Scenario) -> str:
    """Serialize a Scenario to JSON text in the schema. Round-trips exactly:
    floats are emitted at full precision, so re-parsing reproduces the
    scenario."""
    return json.dumps({
        "dimension": scenario.dim,
        "hamiltonian": _matrix_to_json(scenario.hamiltonian.matrix),
        "projectors": [
            {"matrix": _matrix_to_json(p), "rate": float(rate)}
            for p, rate in scenario.family
        ],
        "initial_state": _matrix_to_json(scenario.initial_state.matrix),
        "time_grid": [float(t) for t in scenario.time_grid],
    }, indent=2)
