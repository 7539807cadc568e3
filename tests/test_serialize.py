import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import serialize
from qcomplement.errors import ModelParseError, SchemaError
from qcomplement.serialize import (
    classical_instrument_from_dict,
    instrument_from_dict,
    instrument_to_dict,
    matrix_to_lists,
    model_from_text,
    model_to_dict,
    state_from_dict,
)
from helpers import z_instrument


def roundtrip(value):
    return model_from_text(json.dumps(model_to_dict(value))).value


class TestInstrumentRoundTrip:
    def test_quantum(self):
        ins = z_instrument()
        back = roundtrip(ins)
        assert back.labels == ins.labels
        for label in ins.labels:
            assert qc.choi_distance(back[label], ins[label]) <= 1e-12

    def test_classical(self):
        ins = qc.fine_grained_instrument(3, permutation=[1, 0, 2])
        back = roundtrip(ins)
        assert back.labels == ins.labels
        for label in ins.labels:
            assert np.array_equal(back[label].matrix, ins[label].matrix)

    def test_random_instrument(self):
        ins = qc.random_instrument(3, 2, ["a", "b"], qc.SeededGenerator(5), kraus_per_outcome=2)
        back = roundtrip(ins)
        for label in ins.labels:
            assert qc.choi_distance(back[label], ins[label]) <= 1e-12


class TestStateRoundTrip:
    def test_matrix_form(self):
        state = qc.random_density(3, 2, qc.SeededGenerator(1))
        back = roundtrip(state)
        assert back.dims == state.dims
        assert np.allclose(back.matrix, state.matrix)

    def test_vector_shorthand(self):
        doc = {"kind": "state", "dims": [2], "vector": [[1.0, 0.0], [1.0, 0.0]]}
        state = model_from_text(json.dumps(doc)).value
        assert np.allclose(state.matrix, 0.5 * np.ones((2, 2)))

    def test_composite_dims(self):
        doc = {
            "kind": "state",
            "dims": [2, 2],
            "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        }
        state = model_from_text(json.dumps(doc)).value
        assert state.dims == (2, 2)

    def test_matrix_and_vector_conflict(self):
        doc = {"kind": "state", "dims": [2], "vector": [[1, 0], [0, 0]],
               "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(SchemaError):
            model_from_text(json.dumps(doc))


class TestWitnessRoundTrip:
    def test_self_witness(self):
        ins = z_instrument()
        w = qc.self_witness(ins)
        back = roundtrip(w)
        assert back.dims_out == w.dims_out
        assert back.partition == w.partition
        report = qc.verify_witness(ins, ins, back)
        assert report.valid


class TestSchemaErrors:
    def test_missing_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            model_from_text(json.dumps({"dim_in": 2}))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            model_from_text(json.dumps({"kind": "mystery"}))

    @pytest.mark.parametrize("kind", [[True], {}, ["state"], 3])
    def test_non_string_kind(self, kind):
        with pytest.raises(SchemaError, match="unknown kind"):
            model_from_text(json.dumps({"kind": kind}))

    @pytest.mark.parametrize("value", [1e200, -1e31, 1e308, 10**40])
    @pytest.mark.parametrize("kind, where, path", [
        ("quantum-instrument", ("outcomes", 0, "kraus", 0, 0, 0, 0), "$.outcomes[0].kraus[0][0][0]"),
        ("classical-instrument", ("outcomes", 1, "matrix", 1, 1), "$.outcomes[1].matrix[1][1]"),
        ("state", ("matrix", 0, 1, 1), "$.matrix[0][1]"),
    ])
    def test_entry_beyond_limit_names_path(self, value, kind, where, path):
        value_of = {
            "quantum-instrument": z_instrument(),
            "classical-instrument": qc.fine_grained_instrument(2),
            "state": qc.basis_state(2, 0),
        }
        doc = model_to_dict(value_of[kind])
        container = doc
        for step in where[:-1]:
            container = container[step]
        container[where[-1]] = value
        with pytest.raises(SchemaError, match="at most 1e\\+30") as err:
            model_from_text(json.dumps(doc))
        assert str(err.value).startswith(path + ":")

    @pytest.mark.parametrize("mutate, message, path", [
        (lambda outcomes: outcomes.__setitem__(1, 7), "outcome must be an object", "$.outcomes[1]"),
        (lambda outcomes: outcomes[0].pop("label"), "'label' must be a nonempty string",
         "$.outcomes[0].label"),
        (lambda outcomes: outcomes[1].__setitem__("label", outcomes[0]["label"]),
         "duplicate outcome label", "$.outcomes[1].label"),
        (lambda outcomes: outcomes.clear(), "'outcomes' must be a nonempty array", "$.outcomes"),
    ])
    @pytest.mark.parametrize("value", ["quantum", "classical"])
    def test_outcome_list_errors_name_path(self, mutate, message, path, value):
        doc = model_to_dict(z_instrument() if value == "quantum" else qc.fine_grained_instrument(2))
        mutate(doc["outcomes"])
        with pytest.raises(SchemaError, match=message) as err:
            model_from_text(json.dumps(doc))
        assert str(err.value).startswith(path + ":")

    def test_scalar_complex_entry_names_path(self):
        doc = instrument_to_dict(z_instrument())
        doc["outcomes"][0]["kraus"][0][1][1] = 0.0
        doc["kind"] = "quantum-instrument"
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(doc))
        assert "outcomes[0].kraus[0][1][1]" in str(err.value)
        assert "[re, im]" in str(err.value)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ModelParseError, match="line 1"):
            model_from_text("{not json")

    def test_wrong_kraus_shape(self):
        doc = instrument_to_dict(z_instrument())
        doc["kind"] = "quantum-instrument"
        doc["dim_out"] = 3
        with pytest.raises(SchemaError, match="shape"):
            model_from_text(json.dumps(doc))

    def test_duplicate_labels(self):
        doc = instrument_to_dict(z_instrument())
        doc["kind"] = "quantum-instrument"
        doc["outcomes"][1]["label"] = doc["outcomes"][0]["label"]
        with pytest.raises(SchemaError, match="duplicate"):
            model_from_text(json.dumps(doc))

    def test_non_object_document(self):
        with pytest.raises(SchemaError, match="object"):
            model_from_text("[1, 2]")


# Every leaf kind the bulk parse must carry bit for bit: ints, signed zeros,
# subnormals, the entry cap and ordinary floats.
_LEAVES = st.one_of(
    st.integers(-10**29, 10**29),
    st.sampled_from([0, -0.0, 0.0, 5e-324, -5e-324, 1.1e-308, -1.1e-308, 1e30, -1e30, 10**30]),
    st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
)
_PAIRS = st.lists(_LEAVES, min_size=2, max_size=2)


def _rows(entries):
    return st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width),
                               min_size=1, max_size=6))


def _complex_oracle(pairs) -> np.ndarray:
    return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=complex)


def _parsed(kind: str, data):
    """The array the model parser makes of ``data`` in a ``kind`` document,
    without the state checks that random entries would fail."""
    if kind == "kraus":
        doc = {"dim_in": len(data[0]), "dim_out": len(data),
               "outcomes": [{"label": "a", "kraus": [data]}]}
        return instrument_from_dict(doc)["a"].kraus[0]
    if kind == "classical":
        doc = {"size_in": len(data[0]), "size_out": len(data),
               "outcomes": [{"label": "a", "matrix": data}]}
        return classical_instrument_from_dict(doc)["a"].matrix
    if kind == "state-vector":
        with mock.patch.object(serialize, "pure_state", lambda vector, dims: vector):
            return state_from_dict({"dims": [1], "vector": data})
    with mock.patch.object(serialize, "DensityState", lambda dims, matrix: matrix):
        return state_from_dict({"dims": [1], "matrix": data})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["kraus", "classical", "state-matrix", "state-vector"]))
def test_bulk_parse_equals_per_entry_oracle_bit_for_bit(data, kind):
    if kind == "state-vector":
        raw = data.draw(st.lists(_PAIRS, min_size=1, max_size=6))
        want = _complex_oracle(raw)
    elif kind == "classical":
        raw = data.draw(_rows(_LEAVES))
        want = np.array([[float(v) for v in row] for row in raw], dtype=float)
    else:
        raw = data.draw(_rows(_PAIRS))
        want = np.array([_complex_oracle(row) for row in raw], dtype=complex)
    got = _parsed(kind, json.loads(json.dumps(raw)))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# (name, bad value, where it goes, message); "leaf" replaces a number, "entry" a
# whole matrix or vector entry, "row" makes one row one entry longer.
_BAD_ENTRIES = [
    ("boolean", True, "leaf", "entries must be numbers"),
    ("string", "1.0", "leaf", "entries must be numbers"),
    ("null", None, "leaf", "entries must be numbers"),
    ("one-element pair", [1.0], "entry", "complex entries must be two-element [re, im] arrays"),
    ("three-element pair", [1.0, 0.0, 0.0], "entry",
     "complex entries must be two-element [re, im] arrays"),
    ("nested list", [[1.0, 0.0], [0.0, 0.0]], "entry", "entries must be numbers"),
    ("10**400", 10**400, "leaf", "number is too large for a float"),
    ("1e31", 1e31, "leaf", "entries must be finite and at most 1e+30 in magnitude"),
    ("ragged row", None, "row", "matrix rows must share one length"),
]
# A classical entry is itself a number: a one- or three-element list there is
# not one.
_CLASSICAL_MESSAGES = {"one-element pair": "entries must be numbers",
                       "three-element pair": "entries must be numbers"}


def _bad_document(kind: str, bad, where: str, rng: random.Random):
    """A document of ``kind`` with one bad entry at a random position, and
    the JSON path the error must name."""
    n = rng.randint(2, 5)
    if kind == "state-vector":
        doc = {"kind": "state", "dims": [n], "vector": [[1.0, 0.0]] * n}
        i = rng.randrange(n)
        entries, j, here = doc["vector"], i, f"$.vector[{i}]"
    else:
        if kind == "classical":
            rows = np.eye(n).tolist()
            doc = {"kind": "classical-instrument", "size_in": n, "size_out": n,
                   "outcomes": [{"label": "a", "matrix": rows}]}
            path = "$.outcomes[0].matrix"
        elif kind == "kraus":
            rows = matrix_to_lists(np.eye(n))
            doc = {"kind": "quantum-instrument", "dim_in": n, "dim_out": n,
                   "outcomes": [{"label": "a", "kraus": [rows]}]}
            path = "$.outcomes[0].kraus[0]"
        else:
            rows = matrix_to_lists(np.eye(n) / n)
            doc = {"kind": "state", "dims": [n], "matrix": rows}
            path = "$.matrix"
        if where == "row":  # row 0 sets the length, so a later row is ragged
            i = rng.randrange(1, n)
            rows[i] = [*rows[i], rows[i][0]]
            return doc, f"{path}[{i}]"
        i, j = rng.randrange(n), rng.randrange(n)
        entries, here = rows[i], f"{path}[{i}][{j}]"
    if where == "entry" or kind == "classical":
        entries[j] = bad
    else:
        entries[j] = [bad, 0.0] if rng.random() < 0.5 else [0.0, bad]
    return doc, here


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, name, bad, where, message", [
    pytest.param(kind, *bad, id=f"{kind}-{bad[0]}")
    for kind in ("kraus", "classical", "state-matrix", "state-vector")
    for bad in _BAD_ENTRIES
    if not (kind == "state-vector" and bad[2] == "row")  # a vector has no rows
])
def test_bad_entry_names_message_and_path(kind, name, bad, where, message, seed):
    rng = random.Random(f"{kind} {name} {seed}")
    doc, path = _bad_document(kind, bad, where, rng)
    if kind == "classical":
        message = _CLASSICAL_MESSAGES.get(name, message)
    with pytest.raises(SchemaError) as err:
        model_from_text(json.dumps(doc))
    assert str(err.value) == f"{path}: {message}"


INSTRUMENT_KINDS = ("quantum-instrument", "classical-instrument", "witness")
# The demo models that hold instruments: every quantum, classical and witness file.
INSTRUMENT_MODELS = [
    path.read_text() for path in sorted((Path(__file__).resolve().parents[1] / "demos" / "models").glob("*.json"))
    if json.loads(path.read_text())["kind"] in INSTRUMENT_KINDS
]


def _instruments(model) -> list:
    """The instruments a model file holds: itself, or a witness's C and
    post-processings."""
    if model.kind == "witness":
        return [model.value.c, *model.value.post.values()]
    return [model.value]


class TestReaderChecksOnce:
    """The reader checks a model file's fields and builds the instruments
    from them: no constructor check runs a second time."""

    def test_reading_runs_no_constructor_check(self, monkeypatch):
        from qcomplement.classical import ClassicalInstrument, ClassicalOperation

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} checked twice")

        for cls in (qc.QuantumOperation, qc.Instrument, ClassicalOperation, ClassicalInstrument):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        models = [model_from_text(text) for text in INSTRUMENT_MODELS]
        assert {model.kind for model in models} == set(INSTRUMENT_KINDS)
        assert all(ins.outcomes for model in models for ins in _instruments(model))

    @pytest.mark.parametrize("text", [
        *INSTRUMENT_MODELS,
        json.dumps(model_to_dict(qc.random_instrument(3, 2, ["a", "b"], qc.SeededGenerator(5), kraus_per_outcome=2))),
        json.dumps(model_to_dict(qc.fine_grained_instrument(3, permutation=[1, 0, 2]))),
    ])
    def test_parsed_matrices_are_the_constructors_bit_for_bit(self, text):
        for ins in _instruments(model_from_text(text)):
            for op in ins.outcomes.values():
                if isinstance(ins, qc.Instrument):
                    built = qc.QuantumOperation(op.dim_in, op.dim_out, op.kraus).kraus
                    assert type(op.dim_in) is int and type(op.dim_out) is int
                    got, dtype = op.kraus, np.complex128
                else:
                    built = (qc.ClassicalOperation(op.size_in, op.size_out, op.matrix).matrix,)
                    got, dtype = (op.matrix,), np.float64
                for k, want in zip(got, built, strict=True):
                    assert k.dtype == dtype and k.flags.c_contiguous and k.ndim == 2
                    assert k.tobytes() == want.tobytes() and k.shape == want.shape


def _quantum_doc() -> dict:
    return {"kind": "quantum-instrument", **instrument_to_dict(z_instrument())}


def _classical_doc() -> dict:
    return model_to_dict(qc.fine_grained_instrument(2))


_DROP = object()


def _set(doc: dict, where: tuple, value) -> dict:
    container = doc
    for step in where[:-1]:
        container = container[step]
    if value is _DROP:
        del container[where[-1]]
    else:
        container[where[-1]] = value
    return doc


class TestReaderHasEachConstructorCheck:
    """Every check a constructor makes of an instrument, made by the reader
    with the JSON path of the entry it rejects."""

    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True, "2", None, [2]])
    @pytest.mark.parametrize("doc, key", [
        (_quantum_doc, "dim_in"), (_quantum_doc, "dim_out"),
        (_classical_doc, "size_in"), (_classical_doc, "size_out"),
    ])
    def test_dimensions_are_positive_integers(self, doc, key, value):
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), (key,), value)))
        assert str(err.value) == f"$.{key}: {key!r} must be a positive integer"

    @pytest.mark.parametrize("doc, key", [(_quantum_doc, "dim_in"), (_classical_doc, "size_out")])
    def test_dimensions_are_present(self, doc, key):
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), (key,), _DROP)))
        assert str(err.value) == f"$: missing field {key!r}"

    @pytest.mark.parametrize("label", ["", 5, None, ["z0"]])
    @pytest.mark.parametrize("doc", [_quantum_doc, _classical_doc])
    def test_labels_are_nonempty_strings(self, doc, label):
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), ("outcomes", 1, "label"), label)))
        assert str(err.value) == "$.outcomes[1].label: 'label' must be a nonempty string"

    @pytest.mark.parametrize("kraus", [[], _DROP, "k", None, {}])
    def test_the_kraus_list_is_nonempty(self, kraus):
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(_quantum_doc(), ("outcomes", 0, "kraus"), kraus)))
        assert str(err.value) == "$.outcomes[0].kraus: 'kraus' must be a nonempty array of matrices"

    @pytest.mark.parametrize("matrix, where, message", [
        ([], "", "matrix must be a nonempty array of rows"),
        (3, "", "matrix must be a nonempty array of rows"),
        ([[]], "[0]", "matrix rows must be nonempty arrays"),
        ([1.0, 0.0], "[0]", "matrix rows must be nonempty arrays"),
    ])
    @pytest.mark.parametrize("doc, at", [
        (_quantum_doc, ("outcomes", 0, "kraus", 0)), (_classical_doc, ("outcomes", 0, "matrix")),
    ])
    def test_matrices_are_two_dimensional(self, doc, at, matrix, where, message):
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), at, matrix)))
        path = "$.outcomes[0]." + ("kraus[0]" if at[-2] == "kraus" else "matrix")
        assert str(err.value) == f"{path}{where}: {message}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e31])
    @pytest.mark.parametrize("doc, at, path", [
        (_quantum_doc, ("outcomes", 0, "kraus", 0, 1, 0, 1), "$.outcomes[0].kraus[0][1][0]"),
        (_classical_doc, ("outcomes", 1, "matrix", 0, 1), "$.outcomes[1].matrix[0][1]"),
        (_quantum_doc, ("outcomes", 0, "kraus", 0, 0, 0, 0), "$.outcomes[0].kraus[0][0][0]"),
        (_quantum_doc, ("outcomes", 0, "kraus", 0, 1, 1, 1), "$.outcomes[0].kraus[0][1][1]"),
        (_classical_doc, ("outcomes", 1, "matrix", 0, 0), "$.outcomes[1].matrix[0][0]"),
        (_classical_doc, ("outcomes", 1, "matrix", 1, 1), "$.outcomes[1].matrix[1][1]"),
    ])
    def test_entries_are_finite(self, doc, at, path, value):
        # Python's JSON reader takes NaN and Infinity literals. The bound is
        # read from the largest and the smallest entry of each matrix, which
        # NaN at either end of it must still fail.
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), at, value)))
        assert str(err.value) == f"{path}: entries must be finite and at most 1e+30 in magnitude"

    @pytest.mark.parametrize("doc, at, path, message", [
        (_quantum_doc, ("outcomes", 1, "kraus", 0), "$.outcomes[1].kraus[0]",
         "kraus matrix has shape (1, 2), expected (2, 2)"),
        (_classical_doc, ("outcomes", 1, "matrix"), "$.outcomes[1].matrix",
         "matrix has shape (1, 2), expected (2, 2)"),
    ])
    def test_shapes_match_the_dimensions(self, doc, at, path, message):
        # Row 1 dropped: a 1 x 2 matrix in a d = 2 instrument.
        with pytest.raises(SchemaError) as err:
            model_from_text(json.dumps(_set(doc(), (*at, 1), _DROP)))
        assert str(err.value) == f"{path}: {message}"
