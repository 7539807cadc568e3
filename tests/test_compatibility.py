import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import compatibility
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
from qcomplement.sampling import _kraus_draw
from helpers import (
    E0,
    E1,
    NON_INTEGER_HARNESS_ARGS,
    proj,
    qubit_x,
    qubit_z,
    qutrit_basis_proj,
    qutrit_fine,
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
            assert qc.subspace_contained(
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
        if support_g.dim and not qc.subspace_contained(support_g, support_t, tol):
            violations.append((y, matched, support_g.dim, support_t.dim))
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

    def test_kraus_draw_equals_random_instrument(self):
        # One batched normal draw holds what one _ginibre call per matrix drew.
        for seed in range(20):
            for d_in, d_out, n_labels, per_outcome in (
                (1, 1, 1, 1), (2, 2, 3, 1), (3, 3, 2, 2), (4, 2, 2, 1), (2, 5, 1, 3), (8, 8, 4, 1),
            ):
                gen = qc.SeededGenerator(seed, (d_in, d_out))
                labels = [f"o{i}" for i in range(n_labels)]
                ins = qc.random_instrument(d_in, d_out, labels, gen, per_outcome)
                drawn = _kraus_draw(d_in, d_out, n_labels * per_outcome, gen.rng)
                assert np.array_equal(np.stack([k for x in labels for k in ins[x].kraus]), drawn)

    def test_check_reports_a_support_outside_the_matched_range(self):
        # Composite outcomes read from a qubit Z measurement, branch by branch,
        # one Kraus matrix each: y0 fires on |+> from branch x0, whose range is
        # |0>: a violation; y1 fires on |1> from branch x1: inside; y2 is the
        # zero map (not counted); y3 fires on |1> from x0: a violation.
        zero = np.zeros((2, 2))
        plus = proj(np.array([1.0, 1.0]) / np.sqrt(2.0))
        composite = np.array([plus, proj(E1), zero, proj(E1)], dtype=complex)
        projectors = np.stack([proj(E0), proj(E1)]).astype(complex)
        branch = np.array([0, 1, 0, 0])
        checked, violated, g_dim, t_dim = _check_inclusion(projectors, composite, branch, DEFAULT_TOL)
        assert checked.tolist() == [True, True, False, True]
        assert np.flatnonzero(violated).tolist() == [0, 3]
        assert g_dim[[0, 3]].tolist() == [1, 1] and t_dim[[0, 3]].tolist() == [1, 1]

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
        monkeypatch.setattr(qc, "subspace_contained", lambda *args: False)
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
