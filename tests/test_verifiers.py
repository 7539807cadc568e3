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
    kron_apply,
    kron_probability,
    loop_degree,
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


def _oracle_case(d_in: int, d_out: int, ancillas: tuple, n_kraus: int, seed: int):
    """An instrument, a PVM and three states on (d_in,) + ``ancillas``.

    Outcome "v" has effect v v^dag (and maps v v^dag to itself when d_in =
    d_out), outcome "w" is a random map with effect norm 0.9. The states are
    v (x) sigma, v (x) a nudged by 1e-4, which still verifies "v" within
    prob_eq, and a random rank-2 state, which verifies nothing.
    """
    gen = qc.SeededGenerator(seed)
    rng = gen.rng
    u = qc.haar_unitary(d_in, gen.child(0))
    v = u[:, :1]
    weights = rng.dirichlet(np.ones(n_kraus))
    if d_in == d_out:
        heads = [np.exp(2j * np.pi * rng.random()) * v for _ in range(n_kraus)]
    else:
        heads = [qc.haar_unitary(d_out, gen.child(1 + j))[:, :1] for j in range(n_kraus)]
    v_op = qc.QuantumOperation(d_in, d_out, tuple(np.sqrt(w) * h @ v.conj().T for w, h in zip(weights, heads)))
    g = rng.standard_normal((n_kraus, d_out, d_in)) + 1j * rng.standard_normal((n_kraus, d_out, d_in))
    g *= np.sqrt(0.9) / np.linalg.norm(g.reshape(-1, d_in), ord=2)
    ins = qc.Instrument(d_in, d_out, {"v": v_op, "w": qc.QuantumOperation(d_in, d_out, tuple(g))})
    prop = qc.from_pvm({f"u{i}": np.outer(u[:, i], u[:, i].conj()) for i in range(d_in)})

    dims = (d_in,) + ancillas
    r = int(np.prod(ancillas))
    sigma = qc.random_density(r, min(r, 2), gen.child(10)).matrix
    a = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    nudge = rng.standard_normal(d_in * r) + 1j * rng.standard_normal(d_in * r)
    states = [
        qc.DensityState(dims, np.kron(v @ v.conj().T, sigma)),
        qc.pure_state(np.kron(v[:, 0], a / np.linalg.norm(a)) + 1e-4 * nudge / np.linalg.norm(nudge), dims),
        qc.random_density(d_in * r, min(d_in * r, 2), gen.child(11)),
    ]
    return ins, prop, [qc.DensityState(dims, s.matrix) for s in states]


class TestKronOracle:
    """Verifier decisions and ``apply_unnormalized`` against the kron(K, I)
    formula of ``helpers.kron_apply``."""

    @pytest.mark.parametrize("ancillas", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("d_out", range(1, 5))
    @pytest.mark.parametrize("d_in", range(1, 5))
    def test_matches_kron_formula(self, d_in, d_out, ancillas):
        tol = qc.DEFAULT_TOL
        verdicts = set()
        for n_kraus in range(1, 4):
            seed = 1000 * d_in + 100 * d_out + 10 * len(ancillas) + n_kraus
            ins, prop, states = _oracle_case(d_in, d_out, ancillas, n_kraus, seed)
            for state in states:
                probabilities = []
                for op in ins.outcomes.values():
                    out, oracle = apply_unnormalized(op, state), kron_apply(op, state)
                    if ancillas:
                        assert np.abs(out - oracle).max() <= 1e-12
                    else:
                        assert out.tobytes() == oracle.tobytes()
                    probabilities.append(kron_probability(op, state))
                    verdict = qc.is_verifier(op, state, tol)
                    assert verdict == (probabilities[-1] >= 1.0 - tol.prob_eq)
                    verdicts.add(verdict)

                best = int(np.argmax(probabilities))
                verified = probabilities[best] >= 1.0 - tol.prob_eq
                strong = d_in == d_out and np.linalg.norm(
                    kron_apply(ins[ins.labels[best]], state) - state.matrix) <= tol.mat_eq
                report = qc.instrument_verifier_report(ins, state, tol)
                assert report.outcome == (ins.labels[best] if verified else None)
                assert report.is_verifier == verified
                assert report.is_strong == strong
                assert abs(report.probability - probabilities[best]) <= 1e-12

                oracle = {x: kron_probability(qc.projector_operation(p), state) for x, p in prop.projectors.items()}
                degree = qc.degree_for_verifier(state, prop, tol)
                assert degree.kind is loop_degree(oracle, tol).kind
                assert all(abs(degree.probabilities[x] - p) <= 1e-12 for x, p in oracle.items())
        assert verdicts == {True, False}
