import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import compatibility
from qcomplement.classical import _classical_batch
from qcomplement.compatibility import _CHUNK_CELLS, _run_harness
from qcomplement.errors import StructureError
from qcomplement.linalg import DEFAULT_TOL
from helpers import NON_INTEGER_HARNESS_ARGS, traced_peak


def bit_readout() -> qc.ClassicalInstrument:
    return qc.fine_grained_instrument(2)


def measure_and_prepare_zero_map() -> qc.ClassicalOperation:
    # Accept both points, always output point 0.
    return qc.ClassicalOperation(2, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestValidateClassical:
    def test_fine_grained_valid(self):
        assert qc.validate_classical(bit_readout()).is_valid

    @pytest.mark.parametrize("entry", [1e200, -1e31, np.inf, np.nan])
    def test_rejects_entries_beyond_the_cap(self, entry):
        with pytest.raises(StructureError, match="must be finite and at most 1e\\+30"):
            qc.ClassicalOperation(2, 2, np.array([[entry, 0.0], [0.0, 1.0]]))

    def test_negative_entry(self):
        bad = qc.ClassicalInstrument(2, 2, {
            "a": qc.ClassicalOperation(2, 2, np.array([[1.0, 0.0], [0.0, -0.1]])),
            "b": qc.ClassicalOperation(2, 2, np.array([[0.0, 0.0], [0.0, 1.1]])),
        })
        report = qc.validate_classical(bad)
        assert not report.is_valid
        assert any("negative" in p for p in report.problems)

    def test_column_sum_above_one(self):
        bad = qc.ClassicalInstrument(2, 2, {
            "a": qc.ClassicalOperation(2, 2, np.array([[1.2, 0.0], [0.0, 0.5]])),
            "b": qc.ClassicalOperation(2, 2, np.array([[0.0, 0.0], [0.0, 0.5]])),
        })
        report = qc.validate_classical(bad)
        assert not report.is_valid
        assert any("column sums" in p for p in report.problems)

    def test_non_stochastic_total(self):
        bad = qc.ClassicalInstrument(2, 2, {
            "a": qc.ClassicalOperation(2, 2, 0.4 * np.eye(2)),
            "b": qc.ClassicalOperation(2, 2, 0.4 * np.eye(2)),
        })
        report = qc.validate_classical(bad)
        assert any("deterministic" in p for p in report.problems)


class TestClassicalIsElementary:
    def test_fine_grained(self):
        ok, canonical = qc.classical_is_elementary(bit_readout())
        assert ok
        assert canonical.labels == ("x0", "x1")

    def test_relabelled_fine_grained_canonicalised(self):
        permuted = qc.fine_grained_instrument(3, permutation=[2, 0, 1])
        ok, canonical = qc.classical_is_elementary(permuted)
        assert ok
        # x1 reads point 0, x2 point 1, x0 point 2
        assert canonical.labels == ("x1", "x2", "x0")

    def test_off_diagonal_entry_not_repeatable(self):
        flip = np.array([[0.0, 1.0], [0.0, 0.0]])
        rest = np.array([[1.0, 0.0], [0.0, 0.0]])
        ins = qc.ClassicalInstrument(2, 2, {
            "a": qc.ClassicalOperation(2, 2, flip),
            "b": qc.ClassicalOperation(2, 2, rest),
        })
        assert qc.validate_classical(ins).is_valid
        assert (flip @ flip == np.zeros((2, 2))).all()
        ok, canonical = qc.classical_is_elementary(ins)
        assert not ok and canonical is None

    def test_merged_outcome_not_atomic(self):
        merged = np.diag([1.0, 1.0, 0.0])
        last = np.diag([0.0, 0.0, 1.0])
        ins = qc.ClassicalInstrument(3, 3, {
            "ab": qc.ClassicalOperation(3, 3, merged),
            "c": qc.ClassicalOperation(3, 3, last),
        })
        ok, _ = qc.classical_is_elementary(ins)
        assert not ok

    def test_requires_square(self):
        ins = qc.ClassicalInstrument(2, 3, {
            "a": qc.ClassicalOperation(2, 3, np.ones((3, 2)) / 3.0),
        })
        with pytest.raises(StructureError):
            qc.classical_is_elementary(ins)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
    def test_only_relabellings_pass(self, seed, n):
        rng = np.random.default_rng(seed)
        perm = [int(v) for v in rng.permutation(n)]
        ins = qc.fine_grained_instrument(n, permutation=perm)
        ok, canonical = qc.classical_is_elementary(ins)
        assert ok
        reference = qc.fine_grained_instrument(n)
        for got, want in zip(canonical.outcomes.values(), reference.outcomes.values()):
            assert np.allclose(got.matrix, want.matrix)

        # Any dampening of one entry breaks it.
        label = ins.labels[0]
        scaled = {
            lab: qc.ClassicalOperation(n, n, 0.9 * op.matrix if lab == label else op.matrix)
            for lab, op in ins.outcomes.items()
        }
        ok_scaled, _ = qc.classical_is_elementary(qc.ClassicalInstrument(n, n, scaled))
        assert not ok_scaled


class TestFineGrainedInstrument:
    def test_non_integer_entry_rejected(self):
        with pytest.raises(StructureError, match="integer"):
            qc.fine_grained_instrument(3, [0, 1.5, 2])

    def test_boolean_entries_rejected(self):
        with pytest.raises(StructureError, match="integer"):
            qc.fine_grained_instrument(2, [True, False])

    def test_numpy_integer_entries_accepted(self):
        ins = qc.fine_grained_instrument(3, np.array([2, 0, 1]))
        assert qc.verifier_points(ins["x0"]) == {2}

    def test_empty_size_rejected(self):
        with pytest.raises(StructureError):
            qc.fine_grained_instrument(0)


class TestClassicalVerifierChecks:
    def test_point_mass_is_strong(self):
        report = qc.classical_verifier_checks(measure_and_prepare_zero_map(), qc.point_mass(2, 0))
        assert report.is_verifier and report.is_strong

    def test_uniform_is_verifier_but_not_strong(self):
        report = qc.classical_verifier_checks(
            measure_and_prepare_zero_map(), qc.ClassicalState(2, [0.5, 0.5])
        )
        assert report.is_verifier and not report.is_strong

    def test_wrong_point_not_verifier(self):
        e00 = qc.ClassicalOperation(2, 2, np.array([[1.0, 0.0], [0.0, 0.0]]))
        report = qc.classical_verifier_checks(e00, qc.point_mass(2, 1))
        assert not report.is_verifier

    def test_size_mismatch(self):
        with pytest.raises(StructureError):
            qc.classical_verifier_checks(measure_and_prepare_zero_map(), qc.point_mass(3, 0))

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.0, np.nan], [np.nan, np.nan]])
    def test_state_rejects_nan(self, probs):
        with pytest.raises(StructureError, match="probabilities must"):
            qc.ClassicalState(2, probs)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_strong_implies_verifier(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        matrix = rng.random((n, n))
        matrix = matrix / np.maximum(matrix.sum(axis=0), 1.0)
        op = qc.ClassicalOperation(n, n, matrix)
        probs = rng.random(n) + 1e-3
        state = qc.ClassicalState(n, probs / probs.sum())
        report = qc.classical_verifier_checks(op, state)
        if report.is_strong:
            assert report.is_verifier


class TestVerifierPoints:
    def test_fine_grained_points_are_vertices(self):
        ins = qc.fine_grained_instrument(3)
        for i, label in enumerate(ins.labels):
            points = qc.verifier_points(ins[label])
            assert points == {i}
            for j in range(3):
                report = qc.classical_verifier_checks(ins[label], qc.point_mass(3, j))
                assert report.is_verifier == (j == i)

    def test_mixed_state_fails_fine_grained(self):
        ins = qc.fine_grained_instrument(2)
        state = qc.ClassicalState(2, [0.5, 0.5])
        assert not qc.classical_verifier_checks(ins["x0"], state).is_verifier


class TestClassicalHarness:
    def test_small_run(self):
        report = qc.classical_theorem_harness(seed=7, size=3, trials=60)
        assert report.violations == 0
        assert report.filtered_trials >= 50
        assert report.theory == "classical" and report.algorithm == "pcg64"

    def test_zero_trials(self):
        report = qc.classical_theorem_harness(seed=1, size=2, trials=0)
        assert report.trials == 0 and report.violations == 0

    def test_size_two_seed_matrix(self):
        for seed in (0, 1, 2, 3):
            assert qc.classical_theorem_harness(seed=seed, size=2, trials=25).violations == 0

    @pytest.mark.parametrize("seed, size, trials", NON_INTEGER_HARNESS_ARGS)
    def test_rejects_non_integer_arguments(self, seed, size, trials):
        with pytest.raises(StructureError, match="must be an integer"):
            qc.classical_theorem_harness(seed, size, trials)

    def test_identity_conditionals_inclusion_is_equality(self):
        # Trivial ancilla, identity routing: the composite equals the original
        # instrument outcome for outcome, so verifier sets coincide.
        ins = qc.fine_grained_instrument(3, permutation=[1, 2, 0])
        identity = np.eye(3)
        for z, label in enumerate(ins.labels):
            composite = identity @ ins[label].matrix
            g_op = qc.ClassicalOperation(3, 3, composite)
            assert qc.verifier_points(g_op) == qc.verifier_points(ins[label])


def _loop_trial(gen, size, tol):
    """Reference trial: the loop form the array trial replaced, draw for draw."""
    rng = gen.rng
    n = size
    perm = [int(v) for v in rng.permutation(n)]
    t = qc.fine_grained_instrument(n, perm)
    x_labels = list(t.labels)
    point_of = {label: perm[i] for i, label in enumerate(x_labels)}

    m = int(rng.integers(1, 4))
    sigma = {}
    for x in x_labels:
        raw = rng.random(m) + 1e-3
        sigma[x] = raw / raw.sum()

    c_ops = {}
    for x in x_labels:
        mat = np.zeros((n * m, n))
        p = point_of[x]
        mat[p * m : (p + 1) * m, p] = sigma[x]
        c_ops[x] = qc.ClassicalOperation(n, n * m, mat)

    extra = int(rng.integers(0, 3))
    y_labels = [f"y{i}" for i in range(n + extra)]
    order = rng.permutation(n)
    assignment = {}
    for i, y in enumerate(y_labels):
        assignment[y] = x_labels[order[i]] if i < n else x_labels[int(rng.integers(0, n))]

    post = {}
    for z in x_labels:
        branch_ys = [y for y in y_labels if assignment[y] == z]
        out_point = {y: int(rng.integers(0, n)) for y in branch_ys}
        deterministic = bool(rng.random() < 0.5)
        mats = {y: np.zeros((n, n * m)) for y in y_labels}
        for u in range(n * m):
            if deterministic:
                weights = np.zeros(len(branch_ys))
                weights[int(rng.integers(0, len(branch_ys)))] = 1.0
            else:
                raw = rng.random(len(branch_ys)) + 1e-3
                weights = raw / raw.sum()
            for w_val, y in zip(weights, branch_ys):
                mats[y][out_point[y], u] += w_val
        post[z] = mats

    checked = 0
    violations = []
    for y in y_labels:
        g_y = np.zeros((n, n))
        for z in x_labels:
            g_y += post[z][y] @ c_ops[z].matrix
        nz = np.nonzero(np.abs(g_y) > tol.prob_eq)
        if len(nz[0]) == 0 or len(nz[0]) > 1:
            continue
        checked += 1
        g_op = qc.ClassicalOperation(n, n, g_y)
        matched = max(
            x_labels,
            key=lambda x: float(np.abs(post[x][y] @ c_ops[x].matrix).sum()),
        )
        g_points = qc.verifier_points(g_op, tol)
        t_points = qc.verifier_points(t[matched], tol)
        if not g_points <= t_points:
            violations.append((y, matched, sorted(g_points), sorted(t_points)))
    return checked, violations


def _loop_batch(gens, size, tol):
    return [_loop_trial(gen, size, tol) for gen in gens]


class TestArrayTrial:
    @pytest.mark.parametrize("size, seeds, trials", [
        (2, 40, 10), (3, 40, 10), (4, 30, 10), (6, 20, 10), (12, 10, 8),
    ])
    def test_matches_loop_reference(self, size, seeds, trials):
        for seed in range(seeds):
            want = _run_harness("classical", _loop_batch, seed, size, trials, DEFAULT_TOL)
            got = _run_harness("classical", _classical_batch, seed, size, trials, DEFAULT_TOL)
            assert got == want, (size, seed)

    def test_batched_draws_equal_scalar_draws(self):
        # The array trial draws in batches what the loop form drew one by one.
        for seed in range(50):
            scalar = np.random.Generator(np.random.PCG64(seed))
            batched = np.random.Generator(np.random.PCG64(seed))
            for k in (1, 2, 3, 7):
                assert [int(scalar.integers(0, k)) for _ in range(5)] == \
                    batched.integers(0, k, size=5).tolist()
                assert scalar.random() == batched.random()
                assert np.array_equal(np.stack([scalar.random(k) for _ in range(4)]),
                                      batched.random((4, k)))
        # The harness draws scalars where a sized draw would pay for
        # np.prod(size): the output points and extra readers as scalar
        # integers, between random() calls.
        for seed in range(4):
            scalar = np.random.Generator(np.random.PCG64(seed))
            batched = np.random.Generator(np.random.PCG64(seed))
            for n in range(2, 65):
                for count in (1, 2, 3):
                    assert [int(scalar.integers(0, n)) for _ in range(count)] == \
                        batched.integers(0, n, size=count).tolist()
                    assert scalar.random() == batched.random()
        # A branch with one reader skips its outcome draw: a zero-range draw
        # returns zeros and consumes nothing.
        for k in (1, 6, 36):
            skipped = np.random.Generator(np.random.PCG64(k))
            drawn = np.random.Generator(np.random.PCG64(k))
            assert drawn.integers(0, 1, size=k).tolist() == [0] * k
            assert skipped.random() == drawn.random()
        # random_rank_profile draws its cuts from range(d - 1), shifted by one.
        for d in range(2, 65):
            for parts in range(1, d + 1):
                pool = np.random.Generator(np.random.PCG64(d))
                shifted = np.random.Generator(np.random.PCG64(d))
                assert np.array_equal(pool.choice(np.arange(1, d), size=parts - 1, replace=False),
                                      shifted.choice(d - 1, size=parts - 1, replace=False) + 1)
                assert pool.random() == shifted.random()

    def test_traced_peak_memory_at_size_48(self):
        tracemalloc.start()
        try:
            report = qc.classical_theorem_harness(5, 48, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.violations == 0
        assert peak < 32 * 2**20

    def test_traced_peak_memory_at_size_12(self):
        # Each composite is built from its one possibly nonzero entry, with no
        # dense post-processing or realisation tensor.
        assert traced_peak(lambda: qc.classical_theorem_harness(5, 12, 20)) < 1.5 * 2**20


class TestChunks:
    @pytest.mark.parametrize("size", [2, 3])
    def test_small_chunks_match_loop_reference_at_chunk_edges(self, monkeypatch, size):
        monkeypatch.setattr(compatibility, "_CHUNK_CELLS", 4 * size**3)
        for trials in (0, 1, 3, 4, 5, 9):
            for seed in range(4):
                want = _run_harness("classical", _loop_batch, seed, size, trials, DEFAULT_TOL)
                assert _run_harness("classical", _classical_batch, seed, size, trials, DEFAULT_TOL) == want

    def test_default_chunk_edges_match_loop_reference(self):
        size = 16
        chunk = _CHUNK_CELLS // size**3
        assert chunk > 1
        for trials in (0, 1, chunk - 1, chunk, chunk + 1):
            want = _run_harness("classical", _loop_batch, 7, size, trials, DEFAULT_TOL)
            assert _run_harness("classical", _classical_batch, 7, size, trials, DEFAULT_TOL) == want

    def test_traced_peak_does_not_grow_with_trials(self):
        size = 16
        chunk = _CHUNK_CELLS // size**3
        one, four = (traced_peak(lambda: qc.classical_theorem_harness(5, size, trials))
                     for trials in (chunk, 4 * chunk))
        assert four < 2 * one

    def test_oversized_size_raises_before_drawing(self):
        peak = traced_peak(lambda: pytest.raises(
            StructureError, qc.classical_theorem_harness, 1, 10**12, 1))
        assert peak < 2**16
