import json

import numpy as np
import pytest

import qcomplement as qc
from qcomplement.errors import ModelParseError, SchemaError
from qcomplement.serialize import instrument_to_dict, model_from_text, model_to_dict
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
