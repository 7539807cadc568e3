"""Public refusals pinned by message: each bad input below raises the
``StructureError`` (or, for ``Tolerances``, the ``ValueError``) its
constructor or decision states, and the CLI reports what it states."""

import json

import numpy as np
import pytest

import qcomplement as qc
from qcomplement import cli
from qcomplement.cli import main
from qcomplement.errors import ExtractionError, StructureError
from qcomplement.serialize import model_to_dict
from helpers import qubit_x, qubit_z, qutrit_fine, z_instrument


def z_witness(**fields) -> qc.ExclusionWitness:
    """Z's self witness with some of its fields replaced."""
    w = qc.self_witness(z_instrument())
    given = {"c": w.c, "dims_out": w.dims_out, "partition": w.partition, "post": w.post, **fields}
    return qc.ExclusionWitness(**given)


def channel_instrument(d_in: int, d_out: int, labels=("a",)) -> qc.Instrument:
    """One isometry outcome (the rest zero maps) from C^d_in into C^d_out."""
    iso = qc.QuantumOperation(d_in, d_out, (np.eye(d_out, d_in),))
    zero = qc.zero_operation(d_in, d_out)
    return qc.Instrument(d_in, d_out, {x: iso if i == 0 else zero for i, x in enumerate(labels)})


class TestExclusionWitness:
    @pytest.mark.parametrize("dims_out", [(0, 1), (2, 0), (-2, -1)])
    def test_a_factor_below_one(self, dims_out):
        with pytest.raises(StructureError, match="declared output factors must be positive"):
            z_witness(dims_out=dims_out)

    def test_factors_that_are_not_the_output(self):
        with pytest.raises(StructureError, match="declared factors 2x2 do not multiply to the realisation output dimension 2"):
            z_witness(dims_out=(2, 2))

    def test_an_unknown_partition_outcome(self):
        with pytest.raises(StructureError, match="partition block 'z1' names unknown outcome 'q'"):
            z_witness(partition={"z0": ("z0",), "z1": ("z1", "q")})

    def test_an_outcome_in_two_blocks(self):
        with pytest.raises(StructureError, match="outcome 'z0' appears in more than one block"):
            z_witness(partition={"z0": ("z0",), "z1": ("z0", "z1")})

    def test_blocks_that_miss_an_outcome(self):
        with pytest.raises(StructureError, match="partition blocks do not cover the realisation outcomes"):
            z_witness(partition={"z0": ("z0",)})

    def test_post_processing_keys(self):
        post = qc.self_witness(z_instrument()).post
        with pytest.raises(StructureError, match="post-processing keys do not match realisation outcomes"):
            z_witness(post={"z0": post["z0"]})

    def test_post_processing_input(self):
        post = {**qc.self_witness(z_instrument()).post, "z1": channel_instrument(3, 2, ("z0", "z1"))}
        with pytest.raises(StructureError, match="post-processing 'z1' expects input 3, realisation outputs 2"):
            z_witness(post=post)


class TestVerifyWitness:
    def test_the_first_output_is_not_the_declared_factor(self):
        t = channel_instrument(2, 3, ("z0", "z1"))
        with pytest.raises(StructureError, match="first instrument outputs dimension 3, witness declares 2"):
            qc.verify_witness(t, z_instrument(), z_witness())

    def test_partition_keys_are_not_the_first_labels(self):
        t = channel_instrument(2, 2, ("a", "b"))
        with pytest.raises(StructureError, match="partition blocks do not match the first instrument's outcomes"):
            qc.verify_witness(t, z_instrument(), z_witness())

    def test_a_post_processing_output_is_not_g_dim_out(self):
        g = channel_instrument(2, 3, ("z0", "z1"))
        with pytest.raises(StructureError, match="post-processing 'z0' outputs dimension 2, expected 3"):
            qc.verify_witness(z_instrument(), g, z_witness())


class TestPostprocessingWitness:
    def test_the_wrong_keys(self):
        cond = {"z0": channel_instrument(2, 2)}
        with pytest.raises(StructureError, match="conditional family must name exactly the instrument outcomes"):
            qc.postprocessing_witness(z_instrument(), cond)

    def test_a_conditional_with_the_wrong_input(self):
        cond = {"z0": channel_instrument(2, 2), "z1": channel_instrument(3, 2)}
        with pytest.raises(StructureError, match="conditional for outcome 'z1' expects input 3, instrument outputs 2"):
            qc.postprocessing_witness(z_instrument(), cond)


class TestCompatibilityRefusals:
    def test_pvm_commute_on_unequal_dimensions(self):
        with pytest.raises(StructureError, match="properties live on different dimensions: 2 vs 3"):
            qc.pvm_commute(qubit_z(), qutrit_fine())

    @pytest.mark.parametrize("harness", [qc.verifier_inclusion_harness, qc.classical_theorem_harness])
    def test_negative_harness_trials(self, harness):
        with pytest.raises(StructureError, match="trials must be nonnegative"):
            harness(0, 2, -1)


class TestInstrumentRefusals:
    def test_no_outcomes(self):
        with pytest.raises(StructureError, match="instrument needs at least one outcome"):
            qc.Instrument(2, 2, {})

    def test_a_label_that_is_not_str(self):
        with pytest.raises(StructureError, match="outcome labels must be strings"):
            qc.Instrument(2, 2, {0: qc.identity_operation(2)})

    def test_mismatched_dimensions(self):
        with pytest.raises(StructureError, match=r"outcome 'a' acts on \(3, 3\), instrument declares \(2, 2\)"):
            qc.Instrument(2, 2, {"a": qc.identity_operation(3)})

    def test_instrument_from_no_operations(self):
        with pytest.raises(StructureError, match="instrument needs at least one outcome"):
            qc.instrument_from_operations([])

    def test_an_empty_partition(self):
        with pytest.raises(StructureError, match="partition needs at least one block"):
            qc.OutcomePartition({})

    def test_an_empty_pvm(self):
        with pytest.raises(StructureError, match="a PVM needs at least one projector"):
            qc.from_pvm({})


class TestOperationRefusals:
    @pytest.mark.parametrize("dims", [(0, 2), (2, 0)])
    def test_a_dimension_below_one(self, dims):
        with pytest.raises(StructureError, match="operation dimensions must be positive"):
            qc.QuantumOperation(*dims, (np.zeros((dims[1], dims[0])),))

    def test_no_kraus_matrix(self):
        with pytest.raises(StructureError, match="operation needs at least one Kraus matrix"):
            qc.QuantumOperation(2, 2, ())

    def test_a_kraus_matrix_of_the_wrong_shape(self):
        with pytest.raises(StructureError, match=r"kraus matrix has shape \(3, 2\), expected \(2, 2\)"):
            qc.QuantumOperation(2, 2, (np.eye(2), np.eye(3, 2)))

    def test_a_choi_matrix_of_the_wrong_shape(self):
        with pytest.raises(StructureError, match=r"choi matrix has shape \(3, 3\), expected \(4, 4\)"):
            qc.ChoiMatrix(2, 2, np.eye(3))

    def test_choi_distance_across_spaces(self):
        with pytest.raises(StructureError, match="operations act between different spaces"):
            qc.choi_distance(qc.identity_operation(2), qc.identity_operation(3))


class TestTolerancesRefusals:
    @pytest.mark.parametrize("value", ["x", None, 1e-8 + 0j, True, np.True_])
    @pytest.mark.parametrize("name", ["eig_cut", "mat_eq", "prob_eq"])
    def test_a_non_number_or_a_bool(self, name, value):
        # A bool would pass as 1.0 or 0.0, a str fail inside a comparison.
        with pytest.raises(ValueError, match=f"{name} must be a real number, got"):
            qc.Tolerances(**{name: value})

    @pytest.mark.parametrize("value", [1, np.float32(1e-3), np.int64(1)])
    def test_numpy_and_int_numbers_pass(self, value):
        assert qc.Tolerances(eig_cut=value).eig_cut == value


class TestCliRefusals:
    def test_a_refused_extraction_is_not_elementary(self, tmp_path, capsys, monkeypatch):
        def refuse(ins, tol):
            raise ExtractionError("extraction made to refuse")

        monkeypatch.setattr(cli, "_extract_elementary", refuse)
        path = tmp_path / "z.json"
        path.write_text(json.dumps(model_to_dict(z_instrument())))
        code = main(["--json", "classify", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["valid"] is True and out["repeatable"] is True
        assert out["elementary"] is False and out["projector_ranks"] is None

    @pytest.mark.parametrize("value, argv, line", [
        (qubit_z().base, ["comp", "{0}", "{1}"], "degree_table.z0.entropy_bits: 1\n"),
        (qc.fine_grained_instrument(9), ["classify", "{0}"], "canonical_order: [9 entries]\n"),
    ], ids=["float", "long list"])
    def test_the_human_report_shortens_floats_and_long_lists(self, value, argv, line, tmp_path, capsys):
        # A float prints to 9 significant digits (1.0 as "1"); a list of
        # more than 8 entries prints as its length.
        paths = [tmp_path / "a.json", tmp_path / "x.json"]
        paths[0].write_text(json.dumps(model_to_dict(value)))
        paths[1].write_text(json.dumps(model_to_dict(qubit_x().base)))
        main([arg.format(*paths) for arg in argv])
        assert line in capsys.readouterr().out
