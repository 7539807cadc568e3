import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement.errors import StructureError
from qcomplement.operations import _built_state
from helpers import E0, E1, PLUS, proj, z_instrument


def choi_via_basis_action(op: qc.QuantumOperation) -> np.ndarray:
    """Independent Choi construction: act on every matrix unit and tensor it on."""
    d_in, d_out = op.dim_in, op.dim_out
    out = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            image = sum(k @ unit @ k.conj().T for k in op.kraus)
            unit_small = np.zeros((d_in, d_in), dtype=complex)
            unit_small[i, j] = 1.0
            out += np.kron(image, unit_small)
    return out


def choi_rank(op: qc.QuantumOperation) -> int:
    w = np.linalg.eigvalsh(qc.choi(op).matrix)
    top = max(float(w[-1]), 0.0)
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > 1e-9 * top))


def random_operation(seed: int, d_in: int, d_out: int, n_kraus: int, scale=0.5) -> qc.QuantumOperation:
    rng = np.random.default_rng(seed)
    mats = [
        scale * (rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))) / np.sqrt(2 * n_kraus)
        for _ in range(n_kraus)
    ]
    return qc.QuantumOperation(d_in, d_out, tuple(mats))


class TestChoi:
    def test_identity_channel(self):
        c = qc.choi(qc.identity_operation(2))
        assert abs(np.trace(c.matrix).real - 2.0) < 1e-12
        assert choi_rank(qc.identity_operation(2)) == 1
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0
        assert np.allclose(c.matrix, np.outer(omega, omega.conj()))

    def test_single_kraus_projector(self):
        c = qc.choi(qc.projector_operation(proj(E0)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(c.matrix, expected)

    def test_dephasing_rank_two(self):
        dephase = qc.QuantumOperation(2, 2, (proj(E0), proj(E1)))
        assert choi_rank(dephase) == 2

    def test_matches_basis_action(self):
        op = random_operation(3, 3, 2, 2)
        assert np.linalg.norm(qc.choi(op).matrix - choi_via_basis_action(op)) <= 1e-12

    def test_output_trace_is_effect_transpose(self):
        op = random_operation(4, 3, 4, 3)
        blocks = qc.choi(op).matrix.reshape(op.dim_out, op.dim_in, op.dim_out, op.dim_in)
        assert np.allclose(np.einsum("ijik->jk", blocks), op.effect().T)


class TestEntryCap:
    # Entries beyond 1e30 overflowed the Kraus-space core to NaN, which passes
    # every `> tol` test: with this Kraus matrix, is_repeatable said True.
    @pytest.mark.parametrize("entry", [1e200, -1e31, 1e30j * 2, np.inf, -np.inf, np.nan])
    def test_quantum_operation_rejects_entries_beyond_the_cap(self, entry):
        # The bound is read from the largest and the smallest entry, which
        # NaN at either end of the array must still fail.
        for diagonal in ([entry, 0.0], [0.0, entry]):
            with pytest.raises(StructureError, match="must be finite"):
                qc.QuantumOperation(2, 2, (np.diag(diagonal),))

    def test_density_state_rejects_entries_beyond_the_cap(self):
        with pytest.raises(StructureError, match="must be finite and at most 1e\\+30"):
            qc.DensityState((2,), np.diag([1e200, 1.0 - 1e200]))

    @pytest.mark.parametrize("vector", [
        [np.inf, 0.0], [0.0, -np.inf], [np.nan, 1.0], [1e300, 1e300], [1e31, 0.0], [1.0, 1e31j],
    ])
    def test_pure_state_caps_vector_entries_before_normalising(self, vector):
        # As the JSON "vector" path does, and before the norm can overflow.
        with pytest.raises(StructureError, match="must be finite and at most 1e\\+30"):
            qc.pure_state(vector)

    def test_entries_at_the_cap_stay_finite(self):
        op = qc.QuantumOperation(2, 2, (np.diag([1e30, 0.0]),))
        assert not qc.validate_operation(op).is_tni
        assert np.isfinite(qc.choi_distance(op, qc.identity_operation(2)))

    def test_transposed_kraus_matrix_is_accepted(self):
        k = np.array([[1.0, 0.5j], [0.0, 0.5]])
        op = qc.QuantumOperation(2, 2, (k.T, np.eye(2).T))
        assert np.array_equal(op.kraus[0], k.T) and op.kraus[0].flags.c_contiguous


class TestValidateOperation:
    def test_identity(self):
        rep = qc.validate_operation(qc.identity_operation(2))
        assert rep.is_tni and rep.is_tp

    def test_projector_not_tp(self):
        rep = qc.validate_operation(qc.projector_operation(proj(E0)))
        assert rep.is_tni and not rep.is_tp

    def test_inflated_identity_not_tni(self):
        op = qc.QuantumOperation(2, 2, (np.sqrt(1.5) * np.eye(2, dtype=complex),))
        rep = qc.validate_operation(op)
        assert not rep.is_tni

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), scale=st.floats(0.2, 1.6))
    def test_tni_iff_effect_max_eig(self, seed, scale):
        op = random_operation(seed, 2, 2, 2, scale=scale)
        rep = qc.validate_operation(op)
        top = float(np.linalg.eigvalsh(op.effect())[-1])
        assert rep.is_tni == (top <= 1.0 + 1e-9)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), d_in=st.integers(1, 5), d_out=st.integers(1, 5),
           n_kraus=st.integers(1, 4), log_scale=st.floats(-6.0, 6.0))
    def test_kraus_form_is_completely_positive(self, seed, d_in, d_out, n_kraus, log_scale):
        # Why validate_operation need not check complete positivity.
        op = random_operation(seed, d_in, d_out, n_kraus, scale=10.0 ** log_scale)
        assert qc.is_psd(qc.choi(op).matrix)


KRAUS_FAMILY = dict(
    seed=st.integers(0, 10**6), d_in=st.integers(1, 5), d_out=st.integers(1, 5),
    n_kraus=st.integers(1, 4), log_scale=st.floats(-6.0, 6.0),
)


def remixed(op: qc.QuantumOperation, seed: int, eps: float) -> qc.QuantumOperation:
    """The same map through a unitarily mixed Kraus list, then its first
    matrix moved by ``eps`` times the operation's scale."""
    rng = np.random.default_rng(seed + 1)
    n = len(op.kraus)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    mats = [sum(u[j, i] * op.kraus[i] for i in range(n)) for j in range(n)]
    shape = (op.dim_out, op.dim_in)
    mats[0] = mats[0] + eps * np.linalg.norm(op.kraus[0]) * rng.standard_normal(shape)
    return qc.QuantumOperation(op.dim_in, op.dim_out, tuple(mats))


def near_proportional(seed, d_in, d_out, n_kraus, scale, eps) -> qc.QuantumOperation:
    """Multiples of one matrix, each moved by ``eps`` relative to it."""
    rng = np.random.default_rng(seed + 2)
    k = random_operation(seed, d_in, d_out, 1, scale=scale).kraus[0]
    noise = random_operation(seed + 3, d_in, d_out, n_kraus, scale=scale).kraus
    coeffs = rng.standard_normal(n_kraus) + 1j * rng.standard_normal(n_kraus)
    return qc.QuantumOperation(d_in, d_out, tuple(c * k + eps * e for c, e in zip(coeffs, noise)))


def dense_rank_at_most_one(op: qc.QuantumOperation) -> bool:
    c = qc.choi(op).matrix
    w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    return w[-1] <= 0.0 or int(np.count_nonzero(w > qc.DEFAULT_TOL.eig_cut * w[-1])) <= 1


class TestKrausCoreAgainstChoi:
    """Decisions read a K x K core of the Kraus list; the dense Choi matrix
    is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(**KRAUS_FAMILY, eps=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1.0]))
    def test_distance_matches_dense(self, seed, d_in, d_out, n_kraus, log_scale, eps):
        a = random_operation(seed, d_in, d_out, n_kraus, scale=10.0 ** log_scale)
        b = remixed(a, seed, eps)
        ca, cb = qc.choi(a).matrix, qc.choi(b).matrix
        bound = 1e-13 * (np.linalg.norm(ca) + np.linalg.norm(cb))
        assert abs(qc.choi_distance(a, b) - np.linalg.norm(ca - cb)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(**KRAUS_FAMILY, eps=st.sampled_from([None, 0.0, 1e-7, 1e-6, 1e-3, 1e-2]))
    def test_atomic_and_dominant_kraus_match_dense(
        self, seed, d_in, d_out, n_kraus, log_scale, eps
    ):
        scale = 10.0 ** log_scale
        if eps is None:
            op = random_operation(seed, d_in, d_out, n_kraus, scale=scale)
        else:
            op = near_proportional(seed, d_in, d_out, n_kraus, scale, eps)
        assert qc.is_atomic(op) == dense_rank_at_most_one(op)

    @pytest.mark.parametrize(
        "seed, eps, target",
        [(0, 6.804712447687378e-10, 1.59e-8), (3, 4.67947344088482e-11, 1.83e-9)],
    )
    def test_near_threshold_pairs_keep_the_dense_verdict(self, seed, eps, target):
        # A Gram-matrix identity for the squared norm reads 0 and 2.4e-7 here.
        a = random_operation(seed, 4, 4, 3, scale=1.0)
        b = remixed(a, seed, eps)
        ca, cb = qc.choi(a).matrix, qc.choi(b).matrix
        dense = float(np.linalg.norm(ca - cb))
        assert abs(dense - target) <= 1e-3 * target
        bound = 1e-13 * (np.linalg.norm(ca) + np.linalg.norm(cb))
        assert abs(qc.choi_distance(a, b) - dense) <= bound
        assert (qc.choi_distance(a, b) <= qc.DEFAULT_TOL.mat_eq) == (dense <= qc.DEFAULT_TOL.mat_eq)


class TestIsAtomic:
    def test_single_kraus(self):
        assert qc.is_atomic(qc.projector_operation(proj(E0)))

    def test_dephasing_not_atomic(self):
        assert not qc.is_atomic(qc.QuantumOperation(2, 2, (proj(E0), proj(E1))))

    def test_proportional_kraus_list(self):
        rng = np.random.default_rng(9)
        k = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 3.0
        op = qc.QuantumOperation(3, 3, (k, 0.3 * k))
        assert qc.is_atomic(op)

    def test_zero_map(self):
        assert qc.is_atomic(qc.zero_operation(2, 2))

    @pytest.mark.parametrize("kraus", [
        np.zeros((3, 2)), np.full((3, 2), 1e-300), np.diag([1e30, -1e30j]),
        np.random.default_rng(4).standard_normal((2, 3)) + 1j,
    ])
    def test_one_kraus_matrix_is_atomic_by_its_count(self, kraus, monkeypatch):
        op = qc.QuantumOperation(kraus.shape[1], kraus.shape[0], (kraus,))
        assert dense_rank_at_most_one(op)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a one-Kraus core needs no decomposition")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert qc.is_atomic(op) is True

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), phase=st.floats(0.0, 2 * np.pi))
    def test_phase_invariance(self, seed, phase):
        op = random_operation(seed, 3, 3, 1)
        rotated = qc.QuantumOperation(3, 3, tuple(np.exp(1j * phase) * k for k in op.kraus))
        assert qc.is_atomic(op) == qc.is_atomic(rotated) == True  # noqa: E712


class TestApply:
    def test_projector_on_plus(self):
        p, out = qc.apply(qc.projector_operation(proj(E0)), qc.pure_state(PLUS))
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(out.matrix, proj(E0))

    def test_identity_preserves(self):
        rho = qc.random_density(3, 2, qc.SeededGenerator(2))
        p, out = qc.apply(qc.identity_operation(3), rho)
        assert abs(p - 1.0) < 1e-12
        assert np.allclose(out.matrix, rho.matrix)

    def test_qutrit_projector_on_mixed(self):
        pi2 = np.zeros((3, 3), dtype=complex)
        pi2[2, 2] = 1.0
        p, out = qc.apply(qc.projector_operation(pi2), qc.maximally_mixed(3))
        assert abs(p - 1.0 / 3.0) < 1e-12
        assert np.allclose(out.matrix, pi2)

    def test_zero_probability_returns_none(self):
        p, out = qc.apply(qc.projector_operation(proj(E0)), qc.basis_state(2, 1))
        assert p == 0.0 and out is None

    def test_acts_on_first_factor(self):
        state = qc.pure_state(np.kron(E0, E1), dims=(2, 2))
        p, out = qc.apply(qc.projector_operation(proj(E0)), state)
        assert abs(p - 1.0) < 1e-12
        assert out.dims == (2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            qc.apply(qc.identity_operation(3), qc.basis_state(2, 0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_probability_clamped(self, seed):
        op = random_operation(seed, 2, 2, 2, scale=1.0)
        if not qc.validate_operation(op).is_tni:
            return
        state = qc.random_density(2, 2, qc.SeededGenerator(seed))
        p, _ = qc.apply(op, state)
        assert 0.0 <= p <= 1.0
        raw = float(np.real(np.trace(op.effect() @ state.matrix)))
        assert abs(p - raw) <= 1e-7


class TestComposition:
    def test_orthogonal_projectors_give_zero_map(self):
        composed = qc.compose_seq(qc.projector_operation(proj(E1)), qc.projector_operation(proj(E0)))
        assert np.linalg.norm(qc.choi(composed).matrix) <= 1e-12

    def test_idempotent_projector(self):
        op = qc.projector_operation(proj(E0))
        assert qc.choi_distance(qc.compose_seq(op, op), op) <= 1e-12

    def test_sequential_choi_oracle(self):
        first = random_operation(21, 3, 4, 2)
        second = random_operation(22, 4, 2, 2)
        composed = qc.compose_seq(second, first)
        assert np.linalg.norm(qc.choi(composed).matrix - choi_via_basis_action(composed)) <= 1e-9

        direct = np.zeros_like(qc.choi(composed).matrix)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                mid = sum(k @ unit @ k.conj().T for k in first.kraus)
                image = sum(k @ mid @ k.conj().T for k in second.kraus)
                small = np.zeros((3, 3), dtype=complex)
                small[i, j] = 1.0
                direct += np.kron(image, small)
        assert np.linalg.norm(qc.choi(composed).matrix - direct) <= 1e-9

    def test_sequential_dimension_mismatch(self):
        with pytest.raises(StructureError):
            qc.compose_seq(qc.identity_operation(3), qc.identity_operation(2))


class TestCoarseGrainOps:
    def test_qutrit_first_coarse_operation(self):
        ops = [qc.projector_operation(np.diag([1.0, 0.0, 0.0]).astype(complex)),
               qc.projector_operation(np.diag([0.0, 1.0, 0.0]).astype(complex))]
        coarse = qc.coarse_grain_ops(ops)
        assert np.allclose(coarse.effect(), np.diag([1.0, 1.0, 0.0]))
        assert not qc.is_atomic(coarse)

    def test_single_part_choi_equal(self):
        op = random_operation(41, 2, 2, 2)
        assert qc.choi_distance(qc.coarse_grain_ops([op]), op) <= 1e-12

    def test_full_coarse_graining_is_channel(self):
        ins = z_instrument()
        total = qc.coarse_grain_ops(list(ins.outcomes.values()))
        assert qc.validate_operation(total).is_tp

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            qc.coarse_grain_ops([qc.identity_operation(2), qc.identity_operation(3)])


class TestDensityState:
    def test_rejects_non_unit_trace(self):
        with pytest.raises(StructureError):
            qc.DensityState((2,), np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(StructureError):
            qc.DensityState((2,), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("dims", [(2.7,), (True, True), (2, 1.0)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(StructureError, match="must be an integer"):
            qc.DensityState(dims, np.eye(2) / 2)

    @pytest.mark.parametrize("call", [
        lambda: qc.identity_operation(2.0),
        lambda: qc.zero_operation(1.5, 1),
        lambda: qc.zero_operation(1, True),
        lambda: qc.maximally_mixed(2.0),
        lambda: qc.basis_state(2, 0).reduce(1.0),
        lambda: qc.basis_state(2, 0).reduce(True),
    ], ids=["identity", "zero-in", "zero-out", "mixed", "reduce-float", "reduce-bool"])
    def test_rejects_non_integer_dimensions_and_indices(self, call):
        with pytest.raises(StructureError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("call, message", [
        (lambda d: qc.identity_operation(d), "operation dimensions must be positive"),
        (lambda d: qc.zero_operation(d, 1), "operation dimensions must be positive"),
        (lambda d: qc.zero_operation(1, d), "operation dimensions must be positive"),
        (lambda d: qc.maximally_mixed(d), "state dims must be positive"),
    ], ids=["identity", "zero-in", "zero-out", "mixed"])
    def test_rejects_dimensions_below_one(self, call, message, d):
        # A negative dimension gets the message 0 gets, not numpy's ValueError.
        with pytest.raises(StructureError, match=message):
            call(d)

    def test_reduce_passes_the_constructor_checks(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        state = qc.DensityState((2, 3, 2), g @ g.conj().T / np.trace(g @ g.conj().T).real)
        for keep, d in enumerate(state.dims):
            reduced = state.reduce(keep)
            checked = qc.DensityState(reduced.dims, reduced.matrix)
            assert reduced.dims == (d,) and np.array_equal(checked.matrix, reduced.matrix)

    def test_reduce_product_state(self):
        state = qc.pure_state(np.kron(E0, PLUS), dims=(2, 2))
        assert np.allclose(state.reduce(0).matrix, proj(E0))
        assert np.allclose(state.reduce(1).matrix, proj(PLUS))

    def test_reduce_entangled(self):
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        state = qc.pure_state(v, dims=(2, 2))
        assert np.allclose(state.reduce(0).matrix, 0.5 * np.eye(2))

    def test_pure_state_normalises(self):
        state = qc.pure_state([2.0, 0.0])
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-12


class TestCheckOnce:
    @staticmethod
    def _counted(monkeypatch, name):
        """Count the calls of ``linalg.<name>`` made through any module that
        holds the name, operations included."""
        from qcomplement import linalg, operations

        calls = []
        original = getattr(linalg, name, None)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (linalg, operations):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("build", [
        lambda: qc.DensityState((2,), np.eye(2) / 2),
        lambda: qc.pure_state([1.0, 1j]),
    ])
    def test_state_is_coerced_and_tested_once(self, monkeypatch, build):
        coerced = self._counted(monkeypatch, "as_matrix")
        hermitian = self._counted(monkeypatch, "_is_hermitian")
        build()
        assert (len(coerced), len(hermitian)) == (1, 1)

    def test_validate_operation_coerces_i_minus_e_once(self, monkeypatch):
        op = qc.QuantumOperation(2, 2, (np.sqrt(1.5) * np.eye(2, dtype=complex),))
        coerced = self._counted(monkeypatch, "as_matrix")
        hermitian = self._counted(monkeypatch, "_is_hermitian")
        assert not qc.validate_operation(op).is_tni
        assert len(coerced) <= 1 and not hermitian

    def test_messages_unchanged(self):
        with pytest.raises(StructureError, match="state matrix is not Hermitian"):
            qc.DensityState((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(StructureError, match="state matrix is not positive semidefinite"):
            qc.DensityState((2,), np.diag([1.5, -0.5]))
        with pytest.raises(StructureError, match="matrix is not Hermitian"):
            qc.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(StructureError, match="matrix must be square"):
            qc.is_psd(np.zeros((2, 3)))


class TestBuiltStates:
    """``pure_state`` and ``random_density`` build matrices PSD by
    construction, so they skip the eigenvalue PSD test and keep the rest."""

    @pytest.mark.parametrize("build", [
        lambda: qc.pure_state([1.0, 1j, -0.5]),
        lambda: qc.pure_state([1.0, 0.0, 0.0, 1.0], dims=(2, 2)),
        lambda: qc.random_density(4, 2, qc.SeededGenerator(3)),
    ])
    def test_no_psd_test(self, monkeypatch, build):
        psd = TestCheckOnce._counted(monkeypatch, "_is_psd")
        eig = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: eig.append(a) or original(*a, **k))
        state = build()
        assert (len(psd), len(eig)) == (0, 0)
        qc.DensityState(state.dims, state.matrix)  # the full checks pass all the same

    def test_other_checks_kept(self):
        with np.errstate(invalid="ignore"), pytest.raises(StructureError, match="finite"):
            qc.pure_state([np.inf, 0.0])
        with pytest.raises(StructureError, match="shape"):
            qc.pure_state([1.0, 0.0], dims=(3,))
        with pytest.raises(StructureError, match="must be an integer"):
            qc.pure_state([1.0, 0.0], dims=(2.0,))
        # pure_state([1e300, 1e300]) now stops at the entry cap (TestEntryCap), so
        # the unit-trace check of the shared builder is reached directly.
        with pytest.raises(StructureError, match="unit trace"):
            _built_state((2,), np.eye(2))
