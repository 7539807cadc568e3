import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement.errors import StructureError
from qcomplement.sampling import STREAM_ALGORITHM, _ginibre, _haar, _pvm_blocks, _streams


def _draw_pvms(d, profiles, gens):
    """One PVM per (rank profile, generator) pair, as the harness draws
    them: one Ginibre matrix per generator, one stacked QR, then the cut."""
    return _pvm_blocks(_haar(np.stack([_ginibre(d, d, gen.rng) for gen in gens])), profiles)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = qc.haar_unitary(1, qc.SeededGenerator(3))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_same_seed_identical(self):
        a = qc.haar_unitary(4, qc.SeededGenerator(12))
        b = qc.haar_unitary(4, qc.SeededGenerator(12))
        assert np.array_equal(a, b)

    def test_unitarity(self):
        u = qc.haar_unitary(4, qc.SeededGenerator(9))
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    def test_rejects_zero_dim(self):
        with pytest.raises(StructureError):
            qc.haar_unitary(0, qc.SeededGenerator(1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_always_unitary(self, seed, d):
        u = qc.haar_unitary(d, qc.SeededGenerator(seed))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10


class TestRandomPvm:
    def test_rank_one_pair(self):
        prop = qc.random_pvm(2, [1, 1], qc.SeededGenerator(4))
        assert prop.rank_profile() == {"x0": 1, "x1": 1}

    def test_single_full_rank_outcome(self):
        prop = qc.random_pvm(3, [3], qc.SeededGenerator(4))
        assert np.allclose(prop.projectors["x0"], np.eye(3))

    def test_mixed_ranks_orthogonal(self):
        prop = qc.random_pvm(3, [2, 1], qc.SeededGenerator(6))
        a, b = prop.projectors["x0"], prop.projectors["x1"]
        assert np.linalg.norm(a @ b) <= 1e-10
        assert prop.rank_profile() == {"x0": 2, "x1": 1}

    def test_rank_sum_mismatch(self):
        with pytest.raises(StructureError):
            qc.random_pvm(3, [2, 2], qc.SeededGenerator(1))

    def test_rejects_zero_dim(self):
        # A property with no outcomes would make every decision on it fail
        # outside the StructureError contract.
        with pytest.raises(StructureError, match="dimension must be at least 1"):
            qc.random_pvm(0, [], qc.SeededGenerator(1))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_round_trips_through_extraction(self, seed, d):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        ranks = qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng)
        prop = qc.random_pvm(d, ranks, gen.child(0))
        recovered = qc.to_elementary(prop.base)
        for label in prop.labels:
            assert np.linalg.norm(recovered.projectors[label] - prop.projectors[label]) <= 1e-8


class TestPvmBlocks:
    # sha256 prefixes of each projector stack, taken before the projectors
    # were drawn as one stack. The stack is rounded to 8 decimals, with signed
    # zeros folded, because the last bits of a QR depend on the BLAS kernel
    # numpy picks for the CPU; the exact bytes are compared within one run
    # below.
    @pytest.mark.parametrize("d, ranks, seed, digest", [
        (2, [1, 1], 0, "dd9d5ac2ac4f0ea8"),
        (3, [2, 1], 7, "fe2d7685b6568714"),
        (4, [1, 2, 1], 11, "f2fee0ee45b5a3ab"),
        (6, [3, 1, 2], 42, "d4ff966abbfd50e4"),
        (8, [1] * 8, 5, "d8f8b35cbbdc2239"),
    ])
    def test_random_pvm_projectors_are_pinned(self, d, ranks, seed, digest):
        stack = np.stack(list(qc.random_pvm(d, ranks, qc.SeededGenerator(seed)).projectors.values()))
        rounded = np.round(stack, 8) + 0.0
        assert hashlib.sha256(rounded.tobytes()).hexdigest().startswith(digest)

    def test_draw_is_the_random_pvm_projectors_bit_for_bit(self):
        # The property holds the draw's projectors, and its unitary and owner
        # index, eigenvalue 1 on every column, as the support frame.
        for d, ranks, seed in ((2, [1, 1], 0), (4, [1, 2, 1], 11), (8, [1] * 8, 5)):
            stack, frames, owner = _draw_pvms(d, [ranks], [qc.SeededGenerator(seed)])
            prop = qc.random_pvm(d, ranks, qc.SeededGenerator(seed))
            assert stack.tobytes() == np.stack(list(prop.projectors.values())).tobytes()
            u, held_owner, w = prop._spectrum
            assert np.array_equal(u, frames[0]) and np.array_equal(held_owner, owner[0])
            assert np.array_equal(w, np.ones(d))

    def test_each_projector_is_its_frames_owned_columns(self):
        # One unitary per PVM; each column's owner is its outcome within
        # that PVM, and each projector is the product of its own columns.
        stack, frames, owner = _draw_pvms(5, [[2, 1, 2], [5], [1, 4]], [qc.SeededGenerator(i) for i in range(3)])
        assert frames.shape == (3, 5, 5)
        assert owner.tolist() == [[0, 0, 1, 2, 2], [0] * 5, [0, 1, 1, 1, 1]]
        pvm, outcome = [0, 0, 0, 1, 2, 2], [0, 1, 2, 0, 0, 1]
        for p, t, x in zip(stack, pvm, outcome):
            cols = frames[t][:, owner[t] == x]
            assert np.array_equal(cols @ cols.conj().T, p)

    def test_stacked_draw_equals_one_draw_per_pvm(self):
        # Several PVMs of mixed rank profiles in one call: one stacked QR and
        # one product per rank give each PVM's projectors bit for bit.
        for d in (2, 3, 6, 12):
            root = qc.SeededGenerator(d)
            rng = root.rng
            profiles = [qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng) for _ in range(7)]
            gens = [root.child(i) for i in range(7)]
            one_by_one = [_draw_pvms(d, [p], [g]) for p, g in zip(profiles, gens)]
            for part, stacked in zip(zip(*one_by_one), _draw_pvms(d, profiles, gens)):
                assert stacked.tobytes() == np.concatenate(part).tobytes()


class TestRandomRankProfile:
    def test_returns_python_ints_that_round_trip_through_json(self):
        profile = qc.random_rank_profile(5, 3, np.random.default_rng(0))
        assert all(type(r) is int for r in profile)
        assert json.loads(json.dumps(profile)) == profile

    def test_draws_unchanged(self):
        # Taken when the profile still held numpy integers.
        want = [
            [[3, 1, 1], [8], [1] * 8, [6, 1, 2, 1, 2]],
            [[2, 1, 2], [8], [1] * 8, [1, 3, 2, 4, 2]],
            [[2, 1, 2], [8], [1] * 8, [1, 2, 3, 5, 1]],
            [[1, 2, 2], [8], [1] * 8, [1, 1, 5, 1, 4]],
        ]
        for seed, profiles in enumerate(want):
            rng = np.random.default_rng(seed)
            got = [qc.random_rank_profile(d, parts, rng) for d, parts in ((5, 3), (8, 1), (8, 8), (12, 5))]
            assert got == profiles


class TestRandomDensity:
    def test_pure_state_purity(self):
        rho = qc.random_density(3, 1, qc.SeededGenerator(8))
        purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
        assert abs(purity - 1.0) <= 1e-10

    def test_full_rank(self):
        rho = qc.random_density(2, 2, qc.SeededGenerator(8))
        w = np.linalg.eigvalsh(rho.matrix)
        assert int(np.count_nonzero(w > 1e-9 * w[-1])) == 2

    def test_same_seed_identical(self):
        a = qc.random_density(4, 2, qc.SeededGenerator(21))
        b = qc.random_density(4, 2, qc.SeededGenerator(21))
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_out_of_range(self):
        with pytest.raises(StructureError):
            qc.random_density(2, 3, qc.SeededGenerator(1))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6))
    def test_rank_matches_request(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        rho = qc.random_density(d, rank, qc.SeededGenerator(seed))
        w = np.linalg.eigvalsh(rho.matrix)
        assert int(np.count_nonzero(w > 1e-9 * w[-1])) == rank


class TestSeededGenerator:
    def test_children_differ_from_parent_and_each_other(self):
        root = qc.SeededGenerator(99)
        a = qc.haar_unitary(3, root.child(0))
        b = qc.haar_unitary(3, root.child(1))
        c = qc.haar_unitary(3, root)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_child_determinism(self):
        a = qc.SeededGenerator(5).child(7).rng.random(4)
        b = qc.SeededGenerator(5).child(7).rng.random(4)
        assert np.array_equal(a, b)

    def test_algorithm_recorded(self):
        assert STREAM_ALGORITHM == "pcg64"
        assert isinstance(qc.SeededGenerator(0).child(3).rng.bit_generator, np.random.PCG64)
        assert qc.verifier_inclusion_harness(0, 2, 1).algorithm == STREAM_ALGORITHM
        assert qc.classical_theorem_harness(0, 2, 1).algorithm == STREAM_ALGORITHM

    def test_stream_algorithm_is_not_a_field(self):
        with pytest.raises(TypeError):
            qc.SeededGenerator(0, algorithm="mt19937")

    @pytest.mark.parametrize("index", [1.5, True, np.True_, "1", None])
    def test_child_rejects_non_integer_index(self, index):
        with pytest.raises(StructureError, match="child index must be an integer"):
            qc.SeededGenerator(0).child(index)

    def test_child_accepts_numpy_integer(self):
        assert qc.SeededGenerator(0).child(np.int64(4)).path == (4,)

    def test_negative_seed_raises_structure_error(self):
        with pytest.raises(StructureError, match="seed must be nonnegative"):
            qc.SeededGenerator(-1)

    def test_negative_child_index_raises_structure_error(self):
        with pytest.raises(StructureError, match="child index must be nonnegative"):
            qc.SeededGenerator(1).child(-2)

    def test_float_seed_raises_structure_error(self):
        with pytest.raises(StructureError, match="seed must be an integer"):
            qc.SeededGenerator(1.5)

    def test_boolean_seed_raises_structure_error(self):
        with pytest.raises(StructureError, match="seed must be an integer"):
            qc.SeededGenerator(True)

    @pytest.mark.parametrize("path", [(1, -2), (0.5,), 3])
    def test_bad_path_raises_structure_error(self, path):
        with pytest.raises(StructureError):
            qc.SeededGenerator(0, path)

    def test_seeds_past_64_bits_draw(self):
        big = qc.SeededGenerator(2**70 + 3)
        assert big.seed == 2**70 + 3
        assert big.child(1).rng.random() == \
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(2**70 + 3, spawn_key=(1,)))).random()

    def test_numpy_integer_seed_is_a_python_int_with_the_same_stream(self):
        gen = qc.SeededGenerator(np.uint64(7), (np.int64(2),))
        assert type(gen.seed) is int and gen.path == (2,)
        assert gen.rng.random() == qc.SeededGenerator(7, (2,)).rng.random()

    def test_child_is_built_without_rechecking(self, monkeypatch):
        root = qc.SeededGenerator(5, (1,))
        monkeypatch.setattr(qc.SeededGenerator, "__post_init__", lambda self: pytest.fail("re-checked"))
        child = root.child(np.int64(3))
        monkeypatch.undo()
        assert child == qc.SeededGenerator(5, (1, 3))
        assert type(child.path[-1]) is int


def _first_draws(rng):
    """A stream's PCG64 state, then its first normal and integer draws."""
    state = rng.bit_generator.state
    return state, rng.standard_normal(3).tolist(), rng.integers(0, 2**40, size=2).tolist(), int(rng.integers(0, 7))


def _refuse_numpy_stream(gen):
    raise RuntimeError("a numpy stream was opened")


class TestStreams:
    """``_streams`` derives a batch's states itself; ``SeededGenerator.rng``
    is the reference it must equal, state and draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, 2**200 + 12345, 3**150])
    @pytest.mark.parametrize("paths", [
        [(7,)],
        [(7,), (8,)],
        [(5, i) for i in range(2427)],  # the d = 3 harness chunk, all at path length 2
        [(i,) for i in (0, 2**32 - 1, 2**32, 2**64)],
        [(i, j) for i in (0, 2**32 - 1, 2**32, 2**64) for j in (0, 2**32 - 1, 2**32, 2**64)],
        [(3, i) for i in range(2**32 - 5, 2**32 + 5)],  # straddles 2**32: one then two words
        [()],
    ], ids=["one", "two", "d3-chunk", "length-1", "length-2", "straddle", "root"])
    def test_states_and_first_draws_equal_the_reference(self, seed, paths):
        gens = [qc.SeededGenerator(seed, path) for path in paths]
        assert [_first_draws(rng) for rng in _streams(gens)] == [_first_draws(g.rng) for g in gens]

    def test_a_batch_may_mix_seeds_and_path_lengths(self):
        # As the quantum batch mixes path lengths (a trial's stream, then its
        # child 0); each generator keeps its place.
        gens = [qc.SeededGenerator(s, p) for s, p in ((4, ()), (2**128 + 3, (1, 2**64)), (4, (9,)),
                                                      (0, (2**32, 3, 1)), (4, ()))]
        assert [_first_draws(rng) for rng in _streams(gens)] == [_first_draws(g.rng) for g in gens]

    def test_each_seed_is_mixed_once(self, monkeypatch):
        # The quantum batch's trial streams and their child 0 hold paths of
        # one word and of two: one SeedSequence per distinct seed.
        gens = [qc.SeededGenerator(seed, path) for seed in (5, 2**128 + 3) for path in ((1,), (1, 0), (2**32, 0, 1))]
        made, seed_sequence = [], np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", lambda entropy: made.append(entropy) or seed_sequence(entropy))
        states = [_first_draws(rng) for rng in _streams(gens)]
        monkeypatch.undo()
        assert sorted(made) == [5, 2**128 + 3]
        assert states == [_first_draws(g.rng) for g in gens]

    def test_one_generator_is_reused_for_every_stream(self):
        rngs = list(_streams([qc.SeededGenerator(6).child(i) for i in range(3)]))
        assert rngs[0] is rngs[1] is rngs[2]

    def test_public_draws_read_the_reference_stream(self, monkeypatch):
        # Only the harness batches read _streams (the pinned harness reports
        # run without SeededGenerator.rng in test_cli).
        monkeypatch.setattr(qc.SeededGenerator, "rng", property(_refuse_numpy_stream))
        gen = qc.SeededGenerator(1)
        for draw in (lambda: qc.random_pvm(2, [1, 1], gen), lambda: qc.haar_unitary(2, gen),
                     lambda: qc.random_density(2, 1, gen), lambda: qc.random_instrument(2, 2, "ab", gen)):
            with pytest.raises(RuntimeError, match="a numpy stream was opened"):
                draw()


class TestRandomInstrument:
    def test_validates(self):
        ins = qc.random_instrument(3, 3, ["a", "b"], qc.SeededGenerator(2))
        assert qc.validate_instrument(ins).is_valid

    def test_single_kraus_outcomes_atomic(self):
        ins = qc.random_instrument(2, 2, ["a", "b", "c"], qc.SeededGenerator(3))
        assert all(qc.is_atomic(op) for op in ins.outcomes.values())

    @pytest.mark.parametrize("d_in, d_out, labels, kraus", [
        (0, 2, ["a"], 1),
        (2, 0, ["a"], 1),
        (2, 2, ["a"], 0),
        (3, 2, ["a"], 1),
    ])
    def test_rejects_shapes_it_cannot_normalise(self, d_in, d_out, labels, kraus):
        with pytest.raises(StructureError):
            qc.random_instrument(d_in, d_out, labels, qc.SeededGenerator(1), kraus)

    def test_duplicate_label_raises(self):
        # Keeping the last family of a label would leave an incomplete
        # instrument with one outcome.
        with pytest.raises(StructureError, match="duplicate outcome label 'a'"):
            qc.random_instrument(2, 2, ["a", "a"], qc.SeededGenerator(0))

    def test_multi_kraus(self):
        ins = qc.random_instrument(2, 2, ["a"], qc.SeededGenerator(4), kraus_per_outcome=3)
        assert qc.validate_instrument(ins).is_valid
        assert qc.validate_operation(ins["a"]).is_tp


class TestIntegerArguments:
    # A float or boolean size is an error, not a truncation or a numpy TypeError.
    @pytest.mark.parametrize("call", [
        lambda gen: qc.haar_unitary(2.5, gen),
        lambda gen: qc.random_pvm(2, [1.9, 1.2], gen),
        lambda gen: qc.random_pvm(2, [True, True], gen),
        lambda gen: qc.random_pvm(2.0, [1, 1], gen),
        lambda gen: qc.random_density(3, 1.5, gen),
        lambda gen: qc.random_density(3.0, 1, gen),
        lambda gen: qc.random_rank_profile(3, 2.0, gen.rng),
        lambda gen: qc.random_rank_profile(True, 1, gen.rng),
        lambda gen: qc.random_instrument(2, 2, ["a"], gen, 1.5),
        lambda gen: qc.random_instrument(2.0, 2, ["a"], gen),
        lambda gen: qc.random_instrument(2, 2.0, ["a"], gen),
    ])
    def test_rejects_non_integers(self, call):
        with pytest.raises(StructureError, match="must be an integer"):
            call(qc.SeededGenerator(1))

    @pytest.mark.parametrize("build", [
        lambda: qc.QuantumOperation(2.0, 2, (np.eye(2),)),
        lambda: qc.QuantumOperation(2, True, (np.eye(2),)),
        lambda: qc.QuantumOperation("2", 2, (np.eye(2),)),
        lambda: qc.Instrument(2.0, 2, {"a": qc.identity_operation(2)}),
        lambda: qc.Instrument(2, np.float64(2), {"a": qc.identity_operation(2)}),
        lambda: qc.basis_state(2, 0.5),
        lambda: qc.basis_state(2.0, 0),
        lambda: qc.basis_state(2, True),
        lambda: qc.ClassicalOperation(2.0, 2, np.eye(2)),
        lambda: qc.ClassicalOperation(2, True, np.eye(2)),
        lambda: qc.ClassicalInstrument(2, 2.0, {"a": qc.ClassicalOperation(2, 2, np.eye(2))}),
        lambda: qc.ClassicalState(2.0, [1.0, 0.0]),
        lambda: qc.point_mass(2, 1.0),
        lambda: qc.point_mass(2, True),
        lambda: qc.point_mass(2.0, 0),
    ])
    def test_constructors_reject_non_integers(self, build):
        with pytest.raises(StructureError, match="must be an integer"):
            build()

    def test_constructors_store_numpy_integers_as_ints(self):
        op = qc.QuantumOperation(np.int64(2), np.int32(2), (np.eye(2),))
        ins = qc.Instrument(np.int64(2), 2, {"a": op})
        assert (type(op.dim_in), type(op.dim_out), type(ins.dim_in)) == (int, int, int)
        assert np.array_equal(qc.basis_state(np.int64(2), np.int64(1)).matrix, np.diag([0.0, 1.0]))
        assert qc.point_mass(np.int64(2), np.int64(0)).size == 2
