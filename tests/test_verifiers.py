import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement.errors import DegenerateSeedError, StructureError
from qcomplement.operations import apply_unnormalized
from helpers import (
    E0,
    PLUS,
    bell_state,
    contains_vector,
    measure_and_prepare_zero,
    proj,
    subspace_contained,
    z_instrument,
)


def projector_op(p) -> qc.QuantumOperation:
    return qc.projector_operation(np.asarray(p, dtype=complex))


def supported_state(projector: np.ndarray, seed: int) -> qc.DensityState:
    """Random state with range inside the projector's range."""
    d = projector.shape[0]
    sigma = qc.random_density(d, d, qc.SeededGenerator(seed))
    compressed = projector @ sigma.matrix @ projector
    return qc.DensityState((d,), compressed / np.trace(compressed).real)


class TestIsVerifier:
    def test_basis_state_verifies_projector(self):
        assert qc.is_verifier(projector_op(proj(E0)), qc.basis_state(2, 0))

    def test_plus_state_does_not(self):
        assert not qc.is_verifier(projector_op(proj(E0)), qc.pure_state(PLUS))

    def test_entangled_ancilla_state_does_not(self):
        assert not qc.is_verifier(projector_op(proj(E0)), bell_state())

    def test_ancilla_product_state_does(self):
        state = qc.pure_state(np.kron(E0, PLUS), dims=(2, 2))
        assert qc.is_verifier(projector_op(proj(E0)), state)


class TestCanonicalVerifier:
    def test_plus_seed_collapses(self):
        out = qc.canonical_verifier(projector_op(proj(E0)), qc.pure_state(PLUS))
        assert np.allclose(out.matrix, proj(E0))

    def test_already_verifier_unchanged(self):
        out = qc.canonical_verifier(projector_op(proj(E0)), qc.basis_state(2, 0))
        assert np.allclose(out.matrix, proj(E0))

    def test_orthogonal_seed_degenerate(self):
        with pytest.raises(DegenerateSeedError):
            qc.canonical_verifier(projector_op(proj(E0)), qc.basis_state(2, 1))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_output_verifies_repeatable_outcomes(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        ranks = qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng)
        prop = qc.random_pvm(d, ranks, gen.child(0))
        seed_state = qc.random_density(d, d, gen.child(1))
        for op in prop.base.outcomes.values():
            verifier = qc.canonical_verifier(op, seed_state)
            assert qc.is_verifier(op, verifier)


class TestStrongVerifier:
    def test_measure_and_prepare_pure(self):
        m = measure_and_prepare_zero()
        assert qc.is_strong_verifier(m, qc.basis_state(2, 0))
        assert qc.is_verifier(m, qc.basis_state(2, 0))

    def test_measure_and_prepare_mixed_is_not_strong(self):
        m = measure_and_prepare_zero()
        mixed = qc.maximally_mixed(2)
        assert qc.is_verifier(m, mixed)
        assert not qc.is_strong_verifier(m, mixed)

    def test_projector_basis_state(self):
        assert qc.is_strong_verifier(projector_op(proj(E0)), qc.basis_state(2, 0))

    def test_requires_square(self):
        op = qc.QuantumOperation(2, 3, (np.zeros((3, 2), dtype=complex),))
        with pytest.raises(StructureError):
            qc.is_strong_verifier(op, qc.basis_state(2, 0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_strong_implies_verifier(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 4))
        op = qc.random_instrument(d, d, ["a", "b"], gen.child(0))["a"]
        state = qc.random_density(d, int(rng.integers(1, d + 1)), gen.child(1))
        if qc.is_strong_verifier(op, state):
            assert qc.is_verifier(op, state)


class TestFixedPoint:
    def test_projector_cases(self):
        op = projector_op(proj(E0))
        assert qc.is_strong_verifier(op, qc.basis_state(2, 0))
        assert not qc.is_strong_verifier(op, qc.pure_state(PLUS))

    def test_supported_state_is_fixed(self):
        gen = qc.SeededGenerator(17)
        u = qc.haar_unitary(4, gen)
        projector = u[:, :2] @ u[:, :2].conj().T
        state = supported_state(projector, 18)
        assert qc.is_strong_verifier(projector_op(projector), state)
        moved = apply_unnormalized(projector_op(projector), state)
        assert np.linalg.norm(moved - state.matrix) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_verifier_iff_fixed_point_for_projective(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d))
        u = qc.haar_unitary(d, gen.child(0))
        projector = u[:, :rank] @ u[:, :rank].conj().T
        op = projector_op(projector)

        inside = supported_state(projector, seed + 1)
        assert qc.is_verifier(op, inside) and qc.is_strong_verifier(op, inside)

        outside = qc.random_density(d, d, gen.child(1))
        assert qc.is_verifier(op, outside) == qc.is_strong_verifier(op, outside) == False  # noqa: E712


class TestVerifierSupport:
    def test_rank_one_projector(self):
        sub = qc.verifier_support(projector_op(proj(E0)))
        assert sub.dim == 1 and contains_vector(sub, E0)

    def test_coarse_qutrit_operation(self):
        coarse = qc.coarse_grain_ops(
            [projector_op(np.diag([1.0, 0.0, 0.0])), projector_op(np.diag([0.0, 1.0, 0.0]))]
        )
        sub = qc.verifier_support(coarse)
        assert sub.dim == 2
        assert contains_vector(sub, [1.0, 0.0, 0.0]) and contains_vector(sub, [0.0, 1.0, 0.0])
        assert not contains_vector(sub, [0.0, 0.0, 1.0])

    def test_flat_effect_has_no_verifiers(self):
        op = qc.QuantumOperation(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2.0),))
        assert qc.verifier_support(op).dim == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_subspace_iff_probability(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d + 1))
        u = qc.haar_unitary(d, gen.child(0))
        projector = u[:, :rank] @ u[:, :rank].conj().T
        op = projector_op(projector)
        support = qc.verifier_support(op)

        state = (
            supported_state(projector, seed + 2)
            if rng.random() < 0.5
            else qc.random_density(d, int(rng.integers(1, d + 1)), gen.child(1))
        )
        by_probability = qc.is_verifier(op, state)
        by_subspace = subspace_contained(qc.range_subspace(state.matrix), support)
        assert by_probability == by_subspace

    def test_decisions_read_supports_without_svd(self, monkeypatch):
        gen = qc.SeededGenerator(5)
        base = qc.random_pvm(4, [1, 3], gen.child(0)).base
        phased = qc.Instrument(4, 4, {x: qc.QuantumOperation(4, 4, (1j * op.kraus[0],))
                                      for x, op in base.outcomes.items()})
        other = qc.random_pvm(4, [2, 2], gen.child(1))
        calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or original(*a, **k))
        p = qc.to_elementary(phased)
        qc.classify_relation(p, other)
        qc.are_complementary(p, other)
        qc.verifier_support(phased["x1"])
        assert p.rank_profile() == {"x0": 1, "x1": 3} and not calls


class TestInstrumentVerifierReport:
    def test_finds_outcome(self):
        report = qc.instrument_verifier_report(z_instrument(), qc.basis_state(2, 1))
        assert report.outcome == "z1"
        assert report.is_verifier and report.is_strong
        assert abs(report.probability - 1.0) < 1e-12

    def test_no_outcome_for_plus(self):
        report = qc.instrument_verifier_report(z_instrument(), qc.pure_state(PLUS))
        assert report.outcome is None and not report.is_verifier
        assert not report.is_strong

    def test_strong_implies_verifier_field(self):
        report = qc.instrument_verifier_report(z_instrument(), qc.basis_state(2, 0))
        assert (not report.is_strong) or report.is_verifier
