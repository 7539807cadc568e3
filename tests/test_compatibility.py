import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import cli, compatibility, complementarity, instruments, sampling
from qcomplement.compatibility import (
    _CHUNK_CELLS,
    _HARNESS_DIM_LIMIT,
    _check_inclusion,
    _quantum_batch,
    _run_harness,
    _trial_results,
)
from qcomplement.errors import StructureError
from qcomplement.linalg import DEFAULT_TOL
from qcomplement.operations import _core_norm
from qcomplement.sampling import _ginibre
from qcomplement.serialize import SCHEMA_VERSION, model_to_dict
import helpers
from helpers import (
    E0,
    E1,
    NON_INTEGER_HARNESS_ARGS,
    haar_unitary,
    loop_pvm_commute,
    proj,
    qubit_x,
    qubit_z,
    qutrit_basis_proj,
    qutrit_fine,
    rotated_pvm,
    support_frame,
    traced_peak,
    z_instrument,
)


def random_pvm_pair(seed: int, d: int):
    gen = qc.SeededGenerator(seed)
    rng = gen.rng
    p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
    q = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(1))
    return p, q


def perturbed_witness(w: qc.ExclusionWitness, epsilon: float) -> qc.ExclusionWitness:
    """Copy the witness with one Kraus entry of the realisation shifted."""
    label = w.c.labels[0]
    op = w.c[label]
    kraus = [k.copy() for k in op.kraus]
    kraus[0][0, 0] += epsilon
    bumped = qc.QuantumOperation(op.dim_in, op.dim_out, tuple(kraus))
    outcomes = dict(w.c.outcomes)
    outcomes[label] = bumped
    return qc.ExclusionWitness(
        c=qc.Instrument(w.c.dim_in, w.c.dim_out, outcomes),
        dims_out=w.dims_out,
        partition=w.partition,
        post=w.post,
    )


class TestExclusionWitnessConstruction:
    @pytest.mark.parametrize("dims_out", [(2.9, 1.2), (2, 1.0), (True, 2)])
    def test_rejects_non_integer_factors(self, dims_out):
        w = qc.self_witness(z_instrument())
        with pytest.raises(StructureError, match="must be an integer"):
            qc.ExclusionWitness(c=w.c, dims_out=dims_out, partition=w.partition, post=w.post)

    @pytest.mark.parametrize("factors", [(2.5, 2), (2, 2.0), (True, 2)])
    def test_rejects_non_integer_ancilla_factors(self, factors):
        with pytest.raises(StructureError, match="must be an integer"):
            compatibility.trace_out_ancilla(*factors)

    @pytest.mark.parametrize("factors", [(0, 2), (-1, 2), (2, 0), (2, -1)])
    def test_rejects_ancilla_factors_below_one(self, factors):
        with pytest.raises(StructureError, match="operation dimensions must be positive"):
            compatibility.trace_out_ancilla(*factors)


class TestSelfWitness:
    def test_z_instrument(self):
        ins = z_instrument()
        report = qc.verify_witness(ins, ins, qc.self_witness(ins))
        assert report.valid
        assert report.max_residual <= 1e-10

    def test_random_three_outcome(self):
        ins = qc.random_instrument(3, 3, ["a", "b", "c"], qc.SeededGenerator(5))
        report = qc.verify_witness(ins, ins, qc.self_witness(ins))
        assert report.valid and report.max_residual <= 1e-10

    def test_single_outcome_channel(self):
        ins = qc.instrument_from_operations([("only", qc.identity_operation(2))])
        report = qc.verify_witness(ins, ins, qc.self_witness(ins))
        assert report.valid

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_valid_for_random_instruments(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        ins = qc.random_instrument(d, d, [f"o{i}" for i in range(n)], gen.child(0))
        report = qc.verify_witness(ins, ins, qc.self_witness(ins))
        assert report.valid and report.max_residual <= 1e-10


class TestVerifyWitness:
    def test_swapped_post_blocks_invalid(self):
        ins = z_instrument()
        w = qc.self_witness(ins)
        swapped = qc.ExclusionWitness(
            c=w.c,
            dims_out=w.dims_out,
            partition=w.partition,
            post={"z0": w.post["z1"], "z1": w.post["z0"]},
        )
        report = qc.verify_witness(ins, ins, swapped)
        assert not report.valid
        assert report.max_residual >= 0.5

    def test_perturbed_entry_invalid(self):
        ins = z_instrument()
        report = qc.verify_witness(ins, ins, perturbed_witness(qc.self_witness(ins), 1e-3))
        assert not report.valid
        assert report.max_residual > 1e-4

    def test_residual_scales_linearly(self):
        ins = z_instrument()
        w = qc.self_witness(ins)
        ratios = []
        for exponent in np.linspace(-4, -2, 7):
            eps = 10.0 ** exponent
            report = qc.verify_witness(ins, ins, perturbed_witness(w, eps))
            ratios.append(report.max_residual / eps)
        assert max(ratios) / min(ratios) <= 3.0

    def test_structural_mismatch_raises(self):
        ins = z_instrument()
        other = qc.instrument_from_operations([("only", qc.identity_operation(3))])
        with pytest.raises(StructureError):
            qc.verify_witness(other, ins, qc.self_witness(ins))

    def test_wrong_post_outcomes_raise(self):
        ins = z_instrument()
        w = qc.self_witness(ins)
        g = qc.instrument_from_operations([("only", qc.identity_operation(2))])
        with pytest.raises(StructureError):
            qc.verify_witness(ins, g, w)


class TestMultiBlockPartitionWitness:
    def test_finer_realisation_with_merged_blocks(self):
        # The realisation resolves three outcomes; the witnessed instrument
        # only two. Partition blocks of size two realise the coarse outcome.
        fine = qutrit_fine().base
        coarse = qc.coarse_grain(fine, qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)}))
        ident = qc.identity_operation(3)
        zero = qc.zero_operation(3, 3)
        route = {"f0": "low", "f1": "low", "f2": "two"}
        post = {
            z: qc.Instrument(3, 3, {y: ident if route[z] == y else zero for y in coarse.labels})
            for z in fine.labels
        }
        witness = qc.ExclusionWitness(
            c=fine,
            dims_out=(3, 1),
            partition={"low": ("f0", "f1"), "two": ("f2",)},
            post=post,
        )
        report = qc.verify_witness(coarse, coarse, witness)
        assert report.valid and report.max_residual <= 1e-10

    def test_wrong_block_assignment_detected(self):
        fine = qutrit_fine().base
        coarse = qc.coarse_grain(fine, qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)}))
        ident = qc.identity_operation(3)
        zero = qc.zero_operation(3, 3)
        route = {"f0": "low", "f1": "low", "f2": "two"}
        post = {
            z: qc.Instrument(3, 3, {y: ident if route[z] == y else zero for y in coarse.labels})
            for z in fine.labels
        }
        witness = qc.ExclusionWitness(
            c=fine,
            dims_out=(3, 1),
            partition={"low": ("f0", "f2"), "two": ("f1",)},
            post=post,
        )
        report = qc.verify_witness(coarse, coarse, witness)
        assert not report.valid
        assert report.realisation_residuals["low"] > 0.5


class TestNontrivialAncillaWitness:
    @staticmethod
    def _build():
        # Realisation that writes the heralded outcome into a 2-level ancilla
        # before it is discarded: C_z = (Pi_z . Pi_z) tensor |psi_z><psi_z|.
        ins = z_instrument()
        ancilla = {"z0": np.array([1.0, 0.0]), "z1": np.array([1.0, 1.0]) / np.sqrt(2.0)}
        c_ops = {
            z: qc.QuantumOperation(2, 4, (np.kron(op.kraus[0], ancilla[z].reshape(2, 1)),))
            for z, op in ins.outcomes.items()
        }
        discard = qc.trace_out_ancilla(2, 2)
        zero = qc.zero_operation(4, 2)
        post = {
            z: qc.Instrument(4, 2, {y: discard if y == z else zero for y in ins.labels})
            for z in ins.labels
        }
        witness = qc.ExclusionWitness(
            c=qc.Instrument(2, 4, c_ops),
            dims_out=(2, 2),
            partition={x: (x,) for x in ins.labels},
            post=post,
        )
        return ins, witness

    def test_valid_with_two_level_ancilla(self):
        ins, witness = self._build()
        report = qc.verify_witness(ins, ins, witness)
        assert report.valid and report.max_residual <= 1e-10

    def test_detects_wrong_ancilla_routing(self):
        ins, witness = self._build()
        swapped = qc.ExclusionWitness(
            c=witness.c,
            dims_out=witness.dims_out,
            partition=witness.partition,
            post={"z0": witness.post["z1"], "z1": witness.post["z0"]},
        )
        report = qc.verify_witness(ins, ins, swapped)
        assert not report.valid and report.max_residual >= 0.5

    def test_json_round_trip(self):
        import json

        from qcomplement.serialize import model_from_text, model_to_dict

        ins, witness = self._build()
        back = model_from_text(json.dumps(model_to_dict(witness))).value
        assert back.dims_out == (2, 2)
        assert qc.verify_witness(ins, ins, back).valid


class TestPostprocessingWitness:
    def test_relabelling_conditionals(self):
        ins = z_instrument()
        ident = qc.identity_operation(2)
        zero = qc.zero_operation(2, 2)
        cond = {
            "z0": qc.Instrument(2, 2, {"swapped1": ident, "swapped0": zero}),
            "z1": qc.Instrument(2, 2, {"swapped1": zero, "swapped0": ident}),
        }
        g, w = qc.postprocessing_witness(ins, cond)
        assert qc.verify_witness(ins, g, w).valid
        assert qc.choi_distance(g["swapped1"], ins["z0"]) <= 1e-12
        assert qc.choi_distance(g["swapped0"], ins["z1"]) <= 1e-12

    def test_prepare_fixed_state_conditionals(self):
        ins = z_instrument()
        prep0 = qc.QuantumOperation(2, 2, (np.array([[1, 0], [0, 0]], dtype=complex),
                                           np.array([[0, 1], [0, 0]], dtype=complex)))
        prep1 = qc.QuantumOperation(2, 2, (np.array([[0, 0], [1, 0]], dtype=complex),
                                           np.array([[0, 0], [0, 1]], dtype=complex)))
        cond = {
            "z0": qc.Instrument(2, 2, {"y": prep0}),
            "z1": qc.Instrument(2, 2, {"y": prep1}),
        }
        g, w = qc.postprocessing_witness(ins, cond)
        assert qc.verify_witness(ins, g, w).valid
        expected = qc.coarse_grain_ops(
            [qc.compose_seq(prep0, ins["z0"]), qc.compose_seq(prep1, ins["z1"])]
        )
        assert qc.choi_distance(g["y"], expected) <= 1e-12

    def test_atomic_outputs_obey_support_inclusion(self):
        gen = qc.SeededGenerator(11)
        prop = qc.random_pvm(3, [2, 1], gen.child(0))
        t = prop.base
        ident = qc.identity_operation(3)
        zero = qc.zero_operation(3, 3)
        cond = {
            "x0": qc.Instrument(3, 3, {"y0": ident, "y1": zero}),
            "x1": qc.Instrument(3, 3, {"y0": zero, "y1": ident}),
        }
        g, w = qc.postprocessing_witness(t, cond)
        assert qc.verify_witness(t, g, w).valid
        for y, x in (("y0", "x0"), ("y1", "x1")):
            assert helpers.subspace_contained(
                qc.verifier_support(g[y]), qc.verifier_support(t[x])
            )

    def test_mismatched_outcome_sets_raise(self):
        ins = z_instrument()
        cond = {
            "z0": qc.Instrument(2, 2, {"a": qc.identity_operation(2)}),
            "z1": qc.Instrument(2, 2, {"b": qc.identity_operation(2)}),
        }
        with pytest.raises(StructureError):
            qc.postprocessing_witness(ins, cond)


class TestCompatibleElementary:
    def test_relabelled_z(self):
        permuted = qc.from_pvm({"one": proj(E1), "zero": proj(E0)})
        assert qc.are_compatible_elementary(qubit_z(), permuted)

    def test_z_vs_x(self):
        assert not qc.are_compatible_elementary(qubit_z(), qubit_x())

    def test_qutrit_fine_vs_coarse(self):
        coarse = qc.from_pvm({"low": qutrit_basis_proj(0),
                              "high": qutrit_basis_proj(1) + qutrit_basis_proj(2)})
        assert not qc.are_compatible_elementary(qutrit_fine(), coarse)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 4))
    def test_matches_complementarity_negation(self, seed, d):
        p, q = random_pvm_pair(seed, d)
        assert qc.are_compatible_elementary(p, q) == (not qc.are_complementary(p, q).complementary)

    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("profile, kind", [
        ("rank1", "independent"), ("rank1", "relabelled"), ("rank1", "shared"),
        ("halves", "independent"), ("halves", "relabelled"),
        ("rank2", "independent"), ("rank2", "relabelled"), ("rank2", "shared"),
    ])
    def test_comp_and_compat_agree_on_the_benchmark_pair_kinds(self, tmp_path, capsys, d, profile, kind):
        ranks = {"rank1": [1] * d, "halves": [d // 2] * 2, "rank2": [2] * (d // 2)}[profile]
        p, q = relation_pair(kind, ranks, np.random.default_rng([d, len(ranks)]))
        compatible = qc.are_compatible_elementary(p, q)
        assert compatible == (not qc.are_complementary(p, q).complementary) == (kind == "relabelled")
        paths = [write_model(tmp_path / f"{name}.json", prop) for name, prop in (("p", p), ("q", q))]
        reports = {}
        for command, verdict in (("comp", not compatible), ("compat", compatible)):
            assert cli.main(["--json", command, *paths]) == (0 if verdict else 1)
            reports[command] = json.loads(capsys.readouterr().out)
        assert reports["compat"]["compatible"] is compatible
        assert reports["compat"]["bijection"] == reports["comp"]["bijection"]

    def test_a_verdict_without_a_witness_runs_no_witness_search(self, monkeypatch, tmp_path, capsys):
        # are_compatible_elementary and compat report no witness, so they
        # search for none; are_complementary does.
        def refuse(*args):
            raise AssertionError("the witness search ran")

        monkeypatch.setattr(complementarity, "_witness_vector", refuse)
        z, x = qubit_z(), qubit_x()
        assert not qc.are_compatible_elementary(z, x)
        paths = [write_model(tmp_path / f"{name}.json", prop) for name, prop in (("z", z), ("x", x))]
        assert cli.main(["--json", "compat", *paths]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "schema": SCHEMA_VERSION, "command": "compat", "compatible": False,
            "complementary": True, "pvm_commute": False, "bijection": None,
        }
        with pytest.raises(AssertionError, match="the witness search ran"):
            qc.are_complementary(z, x)


def write_model(path, prop: qc.ElementaryProperty) -> str:
    """Write the instrument of ``prop`` as a model file at ``path``."""
    path.write_text(json.dumps(model_to_dict(prop.base)))
    return str(path)


def relation_pair(kind: str, ranks, rng):
    """A pair of PVMs of ``ranks`` of one of the benchmark's relation kinds:
    independent Haar frames; the same supports, each turned within itself
    and listed in reverse order; or the first support shared and the rest
    of the frame turned as a whole."""
    d, first = sum(ranks), ranks[0]
    u = haar_unitary(d, rng)
    p = qc.from_pvm(column_family(u, ranks, "p"))
    if kind == "independent":
        return p, qc.from_pvm(column_family(haar_unitary(d, rng), ranks, "q"))
    if kind == "relabelled":
        edges = np.cumsum([0, *ranks])
        turned = np.hstack([u[:, a:b] @ haar_unitary(b - a, rng) for a, b in zip(edges[:-1], edges[1:])])
        return p, qc.from_pvm(dict(reversed(column_family(turned, ranks, "q").items())))
    shared = np.hstack([u[:, :first] @ haar_unitary(first, rng), u[:, first:] @ haar_unitary(d - first, rng)])
    return p, qc.from_pvm(column_family(shared, ranks, "q"))


class TestPvmCommute:
    def test_z_with_itself(self):
        assert qc.pvm_commute(qubit_z(), qubit_z())

    def test_z_vs_x(self):
        assert not qc.pvm_commute(qubit_z(), qubit_x())

    def test_commuting_but_incompatible(self):
        coarse = qc.from_pvm({"low": qutrit_basis_proj(0),
                              "high": qutrit_basis_proj(1) + qutrit_basis_proj(2)})
        fine = qutrit_fine()
        assert qc.pvm_commute(fine, coarse)
        assert not qc.are_compatible_elementary(fine, coarse)
        assert qc.are_complementary(fine, coarse).complementary

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 4))
    def test_compatible_implies_commuting(self, seed, d):
        p, q = random_pvm_pair(seed, d)
        if qc.are_compatible_elementary(p, q):
            assert qc.pvm_commute(p, q)


# Rank profiles for the overlap-table tests; each sums to d and, for d >= 8,
# has an even number of outcomes.
COMMUTE_PROFILES = {
    "rank1": lambda d: [1] * d,
    "rank2": lambda d: [2] * (d // 2),
    "mixed": lambda d: [1] * (d // 2) + [2] * (d // 4),
}
COMMUTE_TOLS = [DEFAULT_TOL, DEFAULT_TOL.scaled(10), DEFAULT_TOL.scaled(0.1)]
_COMMUTATOR_NORM = compatibility._commutator_norm


def column_family(u: np.ndarray, ranks, prefix: str) -> dict:
    """The projectors onto consecutive column blocks of ``u``, of ``ranks``."""
    edges = np.cumsum([0, *ranks])
    return {f"{prefix}{i}": u[:, a:b] @ u[:, a:b].conj().T for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))}


def direct_pairs(monkeypatch, p, q, tol=DEFAULT_TOL) -> tuple[bool, list]:
    """The verdict of ``pvm_commute`` and the (x, y) pairs whose commutator
    it computed directly, in order."""
    rows = {id(m): x for x, m in enumerate(p.projectors.values())}
    cols = {id(m): y for y, m in enumerate(q.projectors.values())}
    pairs = []
    monkeypatch.setattr(compatibility, "_commutator_norm",
                        lambda a, b: pairs.append((rows[id(a)], cols[id(b)])) or _COMMUTATOR_NORM(a, b))
    return qc.pvm_commute(p, q, tol), pairs


class TestPvmCommuteParity:
    """From 8 pairs on, where the overlap table decides most pairs: the same
    verdict as the pairwise loop."""

    @pytest.mark.parametrize("d", [8, 16, 32])
    @pytest.mark.parametrize("profile", list(COMMUTE_PROFILES))
    def test_construction_paths_and_partners(self, d, profile):
        ranks = COMMUTE_PROFILES[profile](d)
        drawn = qc.random_pvm(d, ranks, qc.SeededGenerator(d))
        u = drawn._spectrum[0]  # the one Haar frame of the draw
        items = list(drawn.projectors.items())
        rng = np.random.default_rng([d, len(ranks)])
        shared = np.hstack([u[:, : ranks[0]] @ haar_unitary(ranks[0], rng),
                            u[:, ranks[0]:] @ haar_unitary(d - ranks[0], rng)])
        props = [drawn, qc.from_pvm(dict(items)), qc.to_elementary(drawn.base)]
        partners = [
            qc.from_pvm(dict(reversed(items))),
            qc.from_pvm(column_family(u, [1] * d, "f")),
            qc.from_pvm({f"c{i}": a + b for i, ((_, a), (_, b)) in enumerate(zip(items[::2], items[1::2]))}),
            qc.random_pvm(d, ranks, qc.SeededGenerator(d + 1)),
            qc.from_pvm(column_family(shared, ranks, "s")),
        ]
        verdicts = []
        for tol in COMMUTE_TOLS:
            for p in props:
                for q in partners:
                    for a, b in ((p, q), (q, p)):
                        verdicts.append(qc.pvm_commute(a, b, tol))
                        assert verdicts[-1] == loop_pvm_commute(a, b, tol)
        # Relabelled, fine- and coarse-grained partners commute; the others do not.
        assert verdicts == [True] * 6 + [False] * 4 + ([True] * 6 + [False] * 4) * 8

    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("profiles", [("rank1", "rank1"), ("rank1", "rank2"), ("rank2", "mixed"), ("mixed", "rank1")])
    def test_the_table_is_the_direct_commutator_table(self, d, profiles):
        # For drawn PVMs, whose frames are orthonormal and whose projectors
        # are their supports' to rounding, each F_xy is |[P_x, Q_y]|_F.
        p, q = (qc.random_pvm(d, COMMUTE_PROFILES[name](d), qc.SeededGenerator(seed))
                for seed, name in enumerate(profiles))
        (u_p, ranks_p, _), (u_q, ranks_q, _) = (support_frame(prop, DEFAULT_TOL) for prop in (p, q))
        table = compatibility._frame_commutators(u_p.conj().T @ u_q, ranks_p, ranks_q)
        direct = [[_COMMUTATOR_NORM(a, b) for b in q.projectors.values()] for a in p.projectors.values()]
        assert np.abs(table - np.array(direct)).max() <= 1e-13

    @pytest.mark.parametrize("d, profile", [(8, "rank1"), (16, "rank2"), (16, "mixed"), (32, "rank1")])
    def test_a_rotation_sweep_straddles_mat_eq(self, d, profile):
        # Q is P turned by theta in the plane of the first and last columns
        # of P's frame, an exact PVM; its largest commutator with P is about
        # sqrt(2) theta, set here to a factor times mat_eq.
        ranks = COMMUTE_PROFILES[profile](d)
        u = haar_unitary(d, np.random.default_rng([d, 7]))
        p = qc.from_pvm(column_family(u, ranks, "p"))
        verdicts = set()
        for tol in COMMUTE_TOLS:
            for factor in (0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0):
                theta = factor * tol.mat_eq / np.sqrt(2.0)
                turn = np.eye(d, dtype=complex)
                turn[[0, -1, 0, -1], [0, -1, -1, 0]] = np.cos(theta), np.cos(theta), -np.sin(theta), np.sin(theta)
                q = qc.from_pvm(column_family(u @ turn, ranks, "q"), tol)
                for a, b in ((p, q), (q, p)):
                    got = qc.pvm_commute(a, b, tol)
                    assert got == loop_pvm_commute(a, b, tol)
                    verdicts.add(got)
        assert verdicts == {True, False}


    def test_the_deltas_of_the_pvm_check_are_reused(self, monkeypatch):
        # from_pvm keeps the delta its check read where its cut kept the whole
        # frame, and a pickled or deep-copied property carries it. pvm_commute
        # takes delta from there where its own cut keeps the whole frame, and
        # computes it otherwise. Outcome p0 keeps one direction at 1 - 4e-9: its effect
        # reads 1 - 8e-9 there, inside the support at prob_eq = 1e-7, outside
        # at prob_eq = 1e-9.
        support_deltas, calls = compatibility._support_deltas, []
        monkeypatch.setattr(compatibility, "_support_deltas",
                            lambda projectors, frame, ranks: calls.append(len(ranks)) or support_deltas(projectors, frame, ranks))
        u = haar_unitary(16, np.random.default_rng(5))
        mats = column_family(u, [2] * 8, "p")
        mats["p0"] = (u[:, :2] * [1.0, 1.0 - 4e-9]) @ u[:, :2].conj().T
        reverse = dict(reversed(mats.items()))
        p, q = qc.from_pvm(mats), qc.from_pvm(reverse)
        tight = qc.Tolerances(prob_eq=1e-9)
        for (a, b), computed in [
            ((p, q), []),
            ((qc.from_pvm(mats, tight), qc.from_pvm(reverse, tight)), [8, 8]),
            ((pickle.loads(pickle.dumps(p)), q), []),
            ((copy.deepcopy(p), q), []),
        ]:
            calls.clear()
            assert qc.pvm_commute(a, b) and loop_pvm_commute(a, b)
            assert calls == computed


class TestPvmCommuteGuards:
    """Which pairs ``pvm_commute`` computes directly, each verdict checked
    against the pairwise loop."""

    def test_a_non_commuting_pair_exits_at_the_first_product(self, monkeypatch):
        monkeypatch.setattr(compatibility, "_frame_commutators", None)
        p, q = (qc.random_pvm(16, [1] * 16, qc.SeededGenerator(seed)) for seed in (1, 2))
        assert direct_pairs(monkeypatch, p, q) == (False, [(0, 0)])
        assert not loop_pvm_commute(p, q)

    def test_fewer_than_8_pairs_stay_on_the_loop(self, monkeypatch):
        monkeypatch.setattr(compatibility, "_frame_commutators", None)
        coarse = qc.from_pvm({"low": qutrit_basis_proj(0),
                              "high": qutrit_basis_proj(1) + qutrit_basis_proj(2)})
        assert direct_pairs(monkeypatch, qutrit_fine(), coarse) == (True, [(x, y) for x in range(3) for y in range(2)])

    @pytest.mark.parametrize("profile", list(COMMUTE_PROFILES))
    def test_a_commuting_table_runs_at_most_two_products(self, monkeypatch, profile):
        # The first pair and the pair of largest table value; the bound
        # decides the rest.
        drawn = qc.random_pvm(16, COMMUTE_PROFILES[profile](16), qc.SeededGenerator(3))
        p, q = qc.from_pvm(dict(drawn.projectors)), qc.from_pvm(dict(reversed(drawn.projectors.items())))
        got, pairs = direct_pairs(monkeypatch, p, q)
        assert got and loop_pvm_commute(p, q)
        assert pairs[0] == (0, 0) and len(pairs) <= 2

    def test_a_skewed_projector_sends_its_pairs_direct(self, monkeypatch):
        # Q_0 + 6e-9 u w^dag, u in Q_0's support and w in Q_1's, stays
        # idempotent and within mat_eq of Hermitian; its delta, 6e-9, puts
        # every pair of Q_0 within the margin of mat_eq, and those pairs
        # alone run directly.
        exact = rotated_pvm(8, 1, 0.0, 0)
        u, w = (np.linalg.eigh(exact[label])[1][:, -1] for label in ("p0", "p1"))
        q = qc.from_pvm({**exact, "p0": exact["p0"] + 6e-9 * np.outer(u, w.conj())})
        delta = instruments._support_deltas(list(q.projectors.values()), *support_frame(q, DEFAULT_TOL)[:2])
        assert 5.9e-9 < delta[0] < 6.1e-9 and delta[1:].max() < 1e-14
        p = qc.from_pvm(exact)
        got, pairs = direct_pairs(monkeypatch, p, q)
        assert got and loop_pvm_commute(p, q)
        assert sorted(set(pairs)) == [(x, 0) for x in range(8)] and len(pairs) == 8

    def test_a_leaning_frame_sends_its_blocks_direct(self, monkeypatch):
        # P_0 and P_1 overlap by about 7e-9, so P's frame is orthonormal
        # only to about 1e-8 in those two blocks: their rows run directly.
        # With the leaning family second, only P's frame counts, and the
        # table decides the rest as before.
        lean, exact = qc.from_pvm(rotated_pvm(8, 1, 7e-9, 0)), qc.from_pvm(rotated_pvm(8, 1, 0.0, 0))
        frame = support_frame(lean, DEFAULT_TOL)[0]
        assert 5e-9 < np.linalg.norm(frame.conj().T @ frame - np.eye(8)) < 2e-8
        got, pairs = direct_pairs(monkeypatch, lean, exact)
        assert got == loop_pvm_commute(lean, exact)
        assert sorted(set(pairs)) == [(x, y) for x in range(2) for y in range(8)] and len(pairs) == 16
        got, pairs = direct_pairs(monkeypatch, exact, lean)
        assert got == loop_pvm_commute(exact, lean)
        assert len(pairs) <= 2

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_rank2_projector_across_two_blocks_commutes(self, monkeypatch, swap):
        # Each Q_y spans a rotated pair of basis vectors, one in each of two
        # of P's rank-1 blocks: its cross entries are rounding, about 1e-16,
        # and squared, not Gram inner products of O(1) blocks, they stay so.
        e, rng = np.eye(8), np.random.default_rng(0)
        z = qc.from_pvm({f"z{i}": proj(e[i]) for i in range(8)})
        two = qc.from_pvm(column_family(np.kron(np.eye(4), haar_unitary(2, rng)), [2] * 4, "q"))
        p, q = (two, z) if swap else (z, two)
        (u_p, ranks_p, _), (u_q, ranks_q, _) = (support_frame(prop, DEFAULT_TOL) for prop in (p, q))
        assert compatibility._frame_commutators(u_p.conj().T @ u_q, ranks_p, ranks_q).max() <= 1e-14
        for tol in COMMUTE_TOLS:
            got, pairs = direct_pairs(monkeypatch, p, q, tol)
            assert got and loop_pvm_commute(p, q, tol)
            assert len(pairs) <= 2

    @pytest.mark.parametrize("shared", [False, True])
    def test_an_empty_support_sends_every_pair_direct(self, monkeypatch, shared):
        # At mat_eq = 0.1 a projector scaled by 0.95 passes from_pvm, but its
        # effect tops out at 0.9025 < 1 - prob_eq: no support, no table. The
        # pairs run in the loop's order, up to the first that fails: against
        # a family that shares only P_0's support, (1, 1).
        tol = qc.Tolerances(mat_eq=0.1)
        mats = rotated_pvm(8, 1, 0.0, 0)
        p = qc.from_pvm({**mats, "p3": 0.95 * mats["p3"]}, tol)
        u = np.stack([np.linalg.eigh(m)[1][:, -1] for m in mats.values()], axis=1)
        rest = u[:, 1:] @ haar_unitary(7, np.random.default_rng(1)) if shared else u[:, 1:]
        q = qc.from_pvm(column_family(np.hstack([u[:, :1], rest]), [1] * 8, "q"), tol)
        got, pairs = direct_pairs(monkeypatch, p, q, tol)
        assert got == loop_pvm_commute(p, q, tol) == (not shared)
        everything = [(x, y) for x in range(8) for y in range(8)]
        assert pairs == (everything[:10] if shared else everything)

    def test_supports_short_of_dim_columns_send_every_pair_direct(self, monkeypatch):
        # At mat_eq = 0.1, outcome a's effect has eigenvalues 1 and 0.95 on
        # two columns: its support keeps one, and P's frame has 3 of 4.
        u = haar_unitary(4, np.random.default_rng(3))
        diag = [np.diag(entries) for entries in ([1.0, np.sqrt(0.95), 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0])]
        tol = qc.Tolerances(mat_eq=0.1)
        p = qc.from_pvm(dict(zip("abc", (u @ m @ u.conj().T for m in diag))), tol)
        q = qc.from_pvm(column_family(u, [1] * 4, "q"), tol)
        assert support_frame(p, tol)[0].shape == (4, 3)
        got, pairs = direct_pairs(monkeypatch, p, q, tol)
        assert got and loop_pvm_commute(p, q, tol)
        assert pairs == [(x, y) for x in range(3) for y in range(4)]

    @pytest.mark.parametrize("rank", [1, 2])
    def test_traced_peak_stays_below_one_cubic_stack(self, rank):
        # Rank-1 runs read the closed form of the block sums, wider ones
        # square C_y C_y^dag in chunks, and delta is taken in chunks: no
        # (d, d, d) stack of floats is built.
        d = 64
        drawn = qc.random_pvm(d, [rank] * (d // rank), qc.SeededGenerator(4))
        p, q = qc.from_pvm(dict(drawn.projectors)), qc.from_pvm(dict(reversed(drawn.projectors.items())))
        assert qc.pvm_commute(p, q)
        assert traced_peak(lambda: qc.pvm_commute(p, q)) < d**3 * 8


class TestInclusionHarness:
    def test_small_run_has_no_violations(self):
        report = qc.verifier_inclusion_harness(seed=42, dim=3, trials=60)
        assert report.violations == 0
        assert report.filtered_trials >= 50
        assert report.checked_cases >= report.filtered_trials
        assert report.theory == "quantum" and report.algorithm == "pcg64"

    def test_zero_trials(self):
        report = qc.verifier_inclusion_harness(seed=1, dim=2, trials=0)
        assert report.trials == 0 and report.checked_cases == 0 and report.violations == 0

    def test_dim_two_seed_matrix(self):
        for seed in (0, 1, 2, 3):
            assert qc.verifier_inclusion_harness(seed=seed, dim=2, trials=25).violations == 0

    @pytest.mark.parametrize("seed, dim, trials", NON_INTEGER_HARNESS_ARGS)
    def test_rejects_non_integer_arguments(self, seed, dim, trials):
        with pytest.raises(StructureError, match="must be an integer"):
            qc.verifier_inclusion_harness(seed, dim, trials)


def _conditional_family(t, gen, rng):
    """Random conditional family biased so post-processed outcomes are atomic.

    Each composite outcome receives its contribution from exactly one branch
    (single-Kraus conditional operations, zero elsewhere).
    """
    x_labels = list(t.labels)
    n = len(x_labels)
    d = t.dim_out
    extra = int(rng.integers(0, 3))
    y_labels = [f"y{i}" for i in range(n + extra)]
    order = rng.permutation(n)
    assignment = {}
    for i, y in enumerate(y_labels):
        assignment[y] = x_labels[order[i]] if i < n else x_labels[int(rng.integers(0, n))]
    zero = qc.zero_operation(d, d)
    cond = {}
    for idx, x in enumerate(x_labels):
        branch_ys = [y for y in y_labels if assignment[y] == x]
        branch = qc.random_instrument(d, d, branch_ys, gen.child(idx + 1))
        cond[x] = qc.Instrument(
            d, d, {y: branch[y] if y in branch_ys else zero for y in y_labels}
        )
    return cond


def _loop_trial(gen, dim, tol):
    """Reference trial: the per-outcome loop form the array trial replaced,
    draw for draw, on Instrument and QuantumOperation objects."""
    rng = gen.rng
    n_out = int(rng.integers(2, dim + 1))
    prop = qc.random_pvm(dim, qc.random_rank_profile(dim, n_out, rng), gen.child(0))
    t = prop.base
    cond = _conditional_family(t, gen, rng)
    g, _ = qc.postprocessing_witness(t, cond)

    checked = 0
    violations = []
    for y in g.labels:
        g_y = g[y]
        if _core_norm(g_y) <= tol.mat_eq:
            continue
        if not qc.is_atomic(g_y, tol):
            continue
        checked += 1
        matched = max(
            t.labels, key=lambda x: _core_norm(qc.compose_seq(cond[x][y], t[x]))
        )
        support_g = qc.verifier_support(g_y, tol)
        support_t = qc.verifier_support(t[matched], tol)
        if support_g.shape[1] and not helpers.subspace_contained(support_g, support_t, tol):
            violations.append((y, matched, support_g.shape[1], support_t.shape[1]))
    return checked, violations


def _loop_batch(gens, dim, tol):
    return [_loop_trial(gen, dim, tol) for gen in gens]


class TestArrayTrial:
    @pytest.mark.parametrize("dim, seeds", [(2, 50), (3, 50), (4, 40), (6, 40), (8, 30)])
    def test_matches_loop_reference(self, dim, seeds):
        for seed in range(seeds):
            want = _run_harness("quantum", _loop_batch, seed, dim, 3, DEFAULT_TOL)
            got = _run_harness("quantum", _quantum_batch, seed, dim, 3, DEFAULT_TOL)
            assert got == want, (dim, seed)

    def test_random_instrument_equals_one_ginibre_call_per_matrix(self, monkeypatch):
        # One batched normal draw holds what one _ginibre call per matrix drew
        # on the same stream; the matrices are those draws normalised jointly.
        drawn = []
        families = sampling._kraus_families

        def capture(parts, counts):
            drawn.append((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0))
            return families(parts, counts)

        monkeypatch.setattr(sampling, "_kraus_families", capture)
        for seed in range(20):
            for d_in, d_out, n_labels, per_outcome in (
                (1, 1, 1, 1), (2, 2, 3, 1), (3, 3, 2, 2), (4, 2, 2, 1), (2, 5, 1, 3), (8, 8, 4, 1),
            ):
                gen = qc.SeededGenerator(seed, (d_in, d_out))
                labels = [f"o{i}" for i in range(n_labels)]
                ins = qc.random_instrument(d_in, d_out, labels, gen, per_outcome)
                rng = gen.rng
                raw = [_ginibre(d_out, d_in, rng) for _ in range(n_labels * per_outcome)]
                assert np.array_equal(drawn.pop(), np.stack(raw))
                total = np.zeros((d_in, d_in), dtype=complex)
                for g in raw:
                    total += g.conj().T @ g
                w, v = np.linalg.eigh(total)
                inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
                kraus = np.stack([k for x in labels for k in ins[x].kraus])
                assert np.max(np.abs(kraus - np.stack([g @ inv_sqrt for g in raw]))) <= 1e-12

    def test_a_chunk_opens_two_stream_passes(self, monkeypatch):
        # The first pass reads each trial's stream and then its PVM's (child
        # 0); the second reads the Kraus streams, whose count the first drew.
        calls = []
        streams = sampling._streams

        def counted(gens):
            calls.append(len(gens))
            return streams(gens)

        monkeypatch.setattr(compatibility, "_streams", counted)
        monkeypatch.setattr(sampling, "_streams", counted)
        qc.verifier_inclusion_harness(5, 3, 25)
        assert len(calls) == 2 and calls[0] == 50

    def test_each_pvm_is_random_pvm_of_the_trials_child_0(self, monkeypatch):
        # The batch cuts every trial's PVM from one stacked QR; each trial's
        # projectors and frame are those random_pvm draws from its child 0.
        drawn = []
        blocks = compatibility._pvm_blocks

        def capture(u, profiles):
            drawn.append((profiles, blocks(u, profiles)))
            return drawn[-1][1]

        monkeypatch.setattr(compatibility, "_pvm_blocks", capture)
        for seed, dim, trials in ((3, 2, 6), (8, 3, 5), (1, 6, 4)):
            qc.verifier_inclusion_harness(seed, dim, trials)
            [(profiles, (stack, frames, owner))] = drawn
            drawn.clear()
            assert len(profiles) == trials
            offsets = np.cumsum([len(p) for p in profiles]) - [len(p) for p in profiles]
            for t, (profile, start) in enumerate(zip(profiles, offsets)):
                prop = qc.random_pvm(dim, profile, qc.SeededGenerator(seed).child(t).child(0))
                want = np.stack(list(prop.projectors.values()))
                assert stack[start:start + len(profile)].tobytes() == want.tobytes()
                u, held_owner, _ = prop._spectrum
                assert frames[t].tobytes() == u.tobytes() and np.array_equal(owner[t], held_owner)

    def test_check_reports_a_support_outside_the_matched_range(self):
        # Composite outcomes read from a qubit Z measurement, branch by branch,
        # one Kraus matrix each: y0 fires on |+> from branch x0, whose range is
        # |0>: a violation; y1 fires on |1> from branch x1: inside; y2 is the
        # zero map (not counted); y3 fires on |1> from x0: a violation.
        zero = np.zeros((2, 2))
        plus = proj(np.array([1.0, 1.0]) / np.sqrt(2.0))
        composite = np.array([plus, proj(E1), zero, proj(E1)], dtype=complex)
        # The Z measurement's frame is the identity; x0 owns column 0, x1 column 1.
        frames = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
        owner = np.broadcast_to(np.arange(2), (4, 2))
        branch = np.array([0, 1, 0, 0])
        checked, violated, g_dim, t_dim = _check_inclusion(composite, frames, owner, branch, DEFAULT_TOL)
        assert checked.tolist() == [True, True, False, True]
        assert np.flatnonzero(violated).tolist() == [0, 3]
        assert g_dim[[0, 3]].tolist() == [1, 1] and t_dim[[0, 3]].tolist() == [1, 1]

    def test_eigh_covers_the_composites_only(self, monkeypatch):
        # The branch supports come with the draw: besides the one eigh that
        # normalises the Kraus families, the check decomposes only the
        # composites' effects.
        eigh, shapes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        check, composites = compatibility._check_inclusion, []

        def spy(composite, *args):
            composites.append(composite.shape)
            return check(composite, *args)

        monkeypatch.setattr(compatibility, "_check_inclusion", spy)
        _quantum_batch([qc.SeededGenerator(5).child(i) for i in range(6)], 4, DEFAULT_TOL)
        assert len(shapes) == 2 and shapes[1] == composites[0]

    def test_trial_results_place_cases_by_trial(self):
        # Three trials with 2, 0 and 3 checked cases; cases 1 and 4 violate.
        trial = np.array([0, 0, 0, 2, 2, 2])
        local = np.array([0, 1, 2, 0, 1, 2])
        checked = np.array([True, True, False, True, True, True])
        violated = np.array([False, True, False, False, True, False])
        results = _trial_results(trial, local, checked, violated, lambda case: ("x0", case), 3)
        assert results == [(2, [("y1", "x0", 1)]), (0, []), (3, [("y1", "x0", 4)])]

    def test_violations_reported_as_the_loop_reference_reports_them(self, monkeypatch):
        # Declare every checked case with a nonempty verifier support a
        # violation on both sides: the reports then list each such case with
        # its trial, labels and support dimensions.
        check = compatibility._check_inclusion

        def all_violate(*args):
            checked, _, g_dim, t_dim = check(*args)
            return checked, checked & (g_dim > 0), g_dim, t_dim

        monkeypatch.setattr(compatibility, "_check_inclusion", all_violate)
        monkeypatch.setattr(helpers, "subspace_contained", lambda *args: False)
        for dim, seed in ((2, 0), (3, 1), (4, 2)):
            got = _run_harness("quantum", _quantum_batch, seed, dim, 6, DEFAULT_TOL)
            assert got.violations > 0
            assert got == _run_harness("quantum", _loop_batch, seed, dim, 6, DEFAULT_TOL)


class TestChunks:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_small_chunks_match_loop_reference_at_chunk_edges(self, monkeypatch, dim):
        monkeypatch.setattr(compatibility, "_CHUNK_CELLS", 4 * dim**3)
        for trials in (0, 1, 3, 4, 5, 9):
            for seed in range(4):
                want = _run_harness("quantum", _loop_batch, seed, dim, trials, DEFAULT_TOL)
                assert _run_harness("quantum", _quantum_batch, seed, dim, trials, DEFAULT_TOL) == want

    def test_default_chunk_edges_match_loop_reference(self):
        dim = 16
        chunk = _CHUNK_CELLS // dim**3
        assert chunk > 1
        for trials in (0, 1, chunk - 1, chunk, chunk + 1):
            want = _run_harness("quantum", _loop_batch, 7, dim, trials, DEFAULT_TOL)
            assert _run_harness("quantum", _quantum_batch, 7, dim, trials, DEFAULT_TOL) == want

    def test_traced_peak_does_not_grow_with_trials(self):
        dim = 16
        chunk = _CHUNK_CELLS // dim**3
        one, four = (traced_peak(lambda: qc.verifier_inclusion_harness(5, dim, trials))
                     for trials in (chunk, 4 * chunk))
        assert four < 2 * one


class TestDimensionCap:
    def test_oversized_dimension_raises_before_drawing(self):
        peak = traced_peak(lambda: pytest.raises(
            StructureError, qc.verifier_inclusion_harness, 1, 10**12, 1))
        assert peak < 2**16

    def test_cap_is_the_largest_dimension_accepted(self):
        assert qc.verifier_inclusion_harness(1, _HARNESS_DIM_LIMIT, 0).dim == _HARNESS_DIM_LIMIT
        with pytest.raises(StructureError, match=f"at most {_HARNESS_DIM_LIMIT}"):
            qc.verifier_inclusion_harness(1, _HARNESS_DIM_LIMIT + 1, 0)
