"""JSON wire formats for models and reports.

Complex scalars travel as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays. Model files carry a mandatory ``kind`` field naming
the payload shape; malformed JSON reports line and column. The reader checks a
model file once, each schema violation naming the JSON path of its entry, and
builds instruments with ``_trusted``: their constructors check Python callers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelParseError, SchemaError
from .instruments import Instrument
from .linalg import _ENTRY_LIMIT, _trusted
from .operations import DensityState, QuantumOperation, pure_state

if TYPE_CHECKING:
    from .classical import ClassicalInstrument
    from .compatibility import ExclusionWitness

SCHEMA_VERSION = "qcomplement/3"


def matrix_to_lists(m) -> list[list[list[float]]]:
    arr = np.ascontiguousarray(m, dtype=complex)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def real_matrix_to_lists(m) -> list[list[float]]:
    return np.asarray(m, dtype=float).tolist()


def _expect(condition: bool, message: str, path: str):
    if not condition:
        raise SchemaError(message, path)


def _is_count(value) -> bool:
    """A positive JSON integer; JSON booleans are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def complex_from_pair(data, path: str) -> complex:
    _expect(
        isinstance(data, (list, tuple)) and len(data) == 2,
        "complex entries must be two-element [re, im] arrays",
        path,
    )
    return complex(_real_from_number(data[0], path), _real_from_number(data[1], path))


def _real_from_number(data, path: str) -> float:
    _expect(
        isinstance(data, (int, float)) and not isinstance(data, bool),
        "entries must be numbers",
        path,
    )
    try:
        value = float(data)
    except OverflowError:
        raise SchemaError("number is too large for a float", path) from None
    if not abs(value) <= _ENTRY_LIMIT:
        raise SchemaError(f"entries must be finite and at most {_ENTRY_LIMIT:.0e} in magnitude", path)
    return value


def _floats(leaves: list) -> np.ndarray | None:
    """``leaves`` as one float vector, or ``None`` unless every one is a JSON
    number (a boolean is not) at most ``_ENTRY_LIMIT`` in magnitude; the
    caller's walk then names the first bad entry."""
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        arr = np.array(leaves, dtype=float)
    except OverflowError:
        return None
    return arr if np.abs(arr).max() <= _ENTRY_LIMIT else None


def _complexes(pairs: list) -> np.ndarray | None:
    """A list of ``[re, im]`` pairs as one complex vector, or ``None`` if any
    entry is malformed. The complex values are a view of the float pairs, so
    every bit, signed zeros included, is as written."""
    if not (set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}):
        return None
    arr = _floats(list(chain.from_iterable(pairs)))
    return None if arr is None else arr.view(complex)


def _matrix_from_lists(data, path: str, pairs: bool) -> np.ndarray:
    """Row-major nested arrays to a matrix of ``[re, im]`` pairs (``pairs``)
    or of real numbers. Well-formed JSON entries convert in one call; any
    other input takes the entry-by-entry walk, which raises the
    ``SchemaError`` of the first bad entry."""
    _expect(isinstance(data, list) and data, "matrix must be a nonempty array of rows", path)
    width = len(data[0]) if isinstance(data[0], list) else 0
    if width and all(isinstance(row, list) and len(row) == width for row in data):
        flat = list(chain.from_iterable(data))
        arr = _complexes(flat) if pairs else _floats(flat)
        if arr is not None:
            return arr.reshape(len(data), width)
    entry = complex_from_pair if pairs else _real_from_number
    rows = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and row, "matrix rows must be nonempty arrays", f"{path}[{i}]")
        _expect(len(row) == width, "matrix rows must share one length", f"{path}[{i}]")
        rows.append([entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _expect_count(data, key: str, path: str) -> int:
    _expect(key in data, f"missing field {key!r}", path)
    value = data[key]
    _expect(_is_count(value), f"{key!r} must be a positive integer", f"{path}.{key}")
    return value


def instrument_to_dict(ins: Instrument) -> dict:
    return {
        "type": "quantum",
        "dim_in": ins.dim_in,
        "dim_out": ins.dim_out,
        "outcomes": [
            {"label": label, "kraus": [matrix_to_lists(k) for k in op.kraus]}
            for label, op in ins.outcomes.items()
        ],
    }


def _outcomes_from_list(data: dict, path: str, operation) -> dict:
    """The nonempty ``outcomes`` array of an instrument document as
    ``{label: operation(entry, entry_path)}``, labels nonempty and distinct."""
    entries = data.get("outcomes")
    _expect(isinstance(entries, list) and entries, "'outcomes' must be a nonempty array", f"{path}.outcomes")
    outcomes = {}
    for i, entry in enumerate(entries):
        here = f"{path}.outcomes[{i}]"
        _expect(isinstance(entry, dict), "outcome must be an object", here)
        label = entry.get("label")
        _expect(isinstance(label, str) and label, "'label' must be a nonempty string", f"{here}.label")
        _expect(label not in outcomes, f"duplicate outcome label {label!r}", f"{here}.label")
        outcomes[label] = operation(entry, here)
    return outcomes


def instrument_from_dict(data, path: str = "$") -> Instrument:
    _expect(isinstance(data, dict), "instrument must be an object", path)
    _expect(data.get("type", "quantum") == "quantum", "'type' must be 'quantum'", f"{path}.type")
    dim_in = _expect_count(data, "dim_in", path)
    dim_out = _expect_count(data, "dim_out", path)

    def operation(entry, here):
        kraus = entry.get("kraus")
        _expect(
            isinstance(kraus, list) and kraus,
            "'kraus' must be a nonempty array of matrices",
            f"{here}.kraus",
        )
        mats = tuple(
            _matrix_from_lists(k, f"{here}.kraus[{i}]", pairs=True)
            for i, k in enumerate(kraus)
        )
        for i, k in enumerate(mats):
            _expect(
                k.shape == (dim_out, dim_in),
                f"kraus matrix has shape {k.shape}, expected ({dim_out}, {dim_in})",
                f"{here}.kraus[{i}]",
            )
        return _trusted(QuantumOperation, dim_in=dim_in, dim_out=dim_out, kraus=mats)

    return _trusted(Instrument, dim_in=dim_in, dim_out=dim_out, outcomes=_outcomes_from_list(data, path, operation))


def classical_instrument_to_dict(ins: ClassicalInstrument) -> dict:
    return {
        "type": "classical",
        "size_in": ins.size_in,
        "size_out": ins.size_out,
        "outcomes": [
            {"label": label, "matrix": real_matrix_to_lists(op.matrix)}
            for label, op in ins.outcomes.items()
        ],
    }


def classical_instrument_from_dict(data, path: str = "$") -> ClassicalInstrument:
    from .classical import ClassicalInstrument, ClassicalOperation

    _expect(isinstance(data, dict), "instrument must be an object", path)
    _expect(data.get("type", "classical") == "classical", "'type' must be 'classical'", f"{path}.type")
    size_in = _expect_count(data, "size_in", path)
    size_out = _expect_count(data, "size_out", path)

    def operation(entry, here):
        mat = _matrix_from_lists(entry.get("matrix"), f"{here}.matrix", pairs=False)
        _expect(
            mat.shape == (size_out, size_in),
            f"matrix has shape {mat.shape}, expected ({size_out}, {size_in})",
            f"{here}.matrix",
        )
        return _trusted(ClassicalOperation, size_in=size_in, size_out=size_out, matrix=mat)

    return _trusted(ClassicalInstrument, size_in=size_in, size_out=size_out, outcomes=_outcomes_from_list(data, path, operation))


def state_to_dict(state: DensityState) -> dict:
    return {"dims": list(state.dims), "matrix": matrix_to_lists(state.matrix)}


def state_from_dict(data, path: str = "$") -> DensityState:
    _expect(isinstance(data, dict), "state must be an object", path)
    dims = data.get("dims")
    _expect(
        isinstance(dims, list) and dims and all(_is_count(d) for d in dims),
        "'dims' must be a nonempty array of positive integers",
        f"{path}.dims",
    )
    has_matrix = "matrix" in data
    has_vector = "vector" in data
    _expect(has_matrix != has_vector, "state needs exactly one of 'matrix' or 'vector'", path)
    if has_vector:
        raw = data["vector"]
        _expect(isinstance(raw, list) and raw, "'vector' must be a nonempty array", f"{path}.vector")
        vec = _complexes(raw)
        if vec is None:
            vec = np.array(
                [complex_from_pair(v, f"{path}.vector[{i}]") for i, v in enumerate(raw)]
            )
        return pure_state(vec, dims)
    matrix = _matrix_from_lists(data["matrix"], f"{path}.matrix", pairs=True)
    return DensityState(tuple(dims), matrix)


def witness_to_dict(w: ExclusionWitness) -> dict:
    c_dict = instrument_to_dict(w.c)
    c_dict["dims_out"] = list(w.dims_out)
    return {
        "C": c_dict,
        "partition": {x: list(zs) for x, zs in w.partition.items()},
        "post": {z: instrument_to_dict(ins) for z, ins in w.post.items()},
    }


def witness_from_dict(data, path: str = "$") -> ExclusionWitness:
    from .compatibility import ExclusionWitness

    _expect(isinstance(data, dict), "witness must be an object", path)
    _expect(isinstance(data.get("C"), dict), "missing realisation instrument 'C'", f"{path}.C")
    dims_out = data["C"].get("dims_out")
    _expect(
        isinstance(dims_out, list)
        and len(dims_out) == 2
        and all(_is_count(d) for d in dims_out),
        "'dims_out' must be a two-element array of positive integers",
        f"{path}.C.dims_out",
    )
    c = instrument_from_dict(data["C"], f"{path}.C")
    raw_partition = data.get("partition")
    _expect(isinstance(raw_partition, dict) and raw_partition, "'partition' must be a nonempty object", f"{path}.partition")
    partition = {}
    for x, zs in raw_partition.items():
        _expect(
            isinstance(zs, list) and zs and all(isinstance(z, str) for z in zs),
            "partition blocks must be nonempty arrays of outcome labels",
            f"{path}.partition.{x}",
        )
        partition[x] = tuple(zs)
    raw_post = data.get("post")
    _expect(isinstance(raw_post, dict) and raw_post, "'post' must be a nonempty object", f"{path}.post")
    post = {
        z: instrument_from_dict(entry, f"{path}.post.{z}") for z, entry in raw_post.items()
    }
    return ExclusionWitness(c=c, dims_out=(dims_out[0], dims_out[1]), partition=partition, post=post)


@dataclass(frozen=True)
class ModelFile:
    kind: str
    value: object


_PARSERS = {
    "quantum-instrument": instrument_from_dict,
    "classical-instrument": classical_instrument_from_dict,
    "state": state_from_dict,
    "witness": witness_from_dict,
}


def model_to_dict(value) -> dict:
    """``value`` as a model document. Each type's module is imported only
    when the types tested before it do not match, so a quantum instrument or
    a state loads neither ``classical`` nor ``compatibility``."""
    if isinstance(value, Instrument):
        return {"kind": "quantum-instrument", **instrument_to_dict(value)}
    if isinstance(value, DensityState):
        return {"kind": "state", **state_to_dict(value)}
    from .classical import ClassicalInstrument

    if isinstance(value, ClassicalInstrument):
        return {"kind": "classical-instrument", **classical_instrument_to_dict(value)}
    from .compatibility import ExclusionWitness

    if isinstance(value, ExclusionWitness):
        return {"kind": "witness", **witness_to_dict(value)}
    raise TypeError(f"cannot serialise {type(value).__name__} as a model")


def model_from_text(text: str) -> ModelFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ModelParseError("JSON is nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise SchemaError("model document must be a JSON object", "$")
    kind = data.get("kind")
    if kind is None:
        raise SchemaError("missing mandatory 'kind' field", "$.kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise SchemaError(
            f"unknown kind {kind!r}, expected one of {list(_PARSERS)}", "$.kind"
        )
    payload = {key: value for key, value in data.items() if key != "kind"}
    return ModelFile(kind=kind, value=_PARSERS[kind](payload))


def model_from_path(path) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"file is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return model_from_text(text)
