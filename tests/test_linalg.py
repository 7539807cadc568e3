import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement.errors import StructureError
from helpers import SubspaceRelation, contains_vector, subspace_relation


class TestIsPsd:
    def test_identity(self):
        assert qc.is_psd(np.eye(3))

    def test_pauli_x(self):
        assert not qc.is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_half_identity(self):
        assert qc.is_psd(0.5 * np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            qc.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRangeSubspace:
    def test_diag(self):
        sub = qc.range_subspace(np.diag([1.0, 0.0]))
        assert sub.shape[1] == 1
        assert contains_vector(sub, [1.0, 0.0])
        assert not contains_vector(sub, [0.0, 1.0])

    def test_zero_matrix(self):
        assert qc.range_subspace(np.zeros((3, 3))).shape[1] == 0

    def test_rank_one_projector(self):
        sub = qc.range_subspace(0.5 * np.ones((2, 2)))
        assert sub.shape[1] == 1
        assert contains_vector(sub, [1.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6))
    def test_projector_dimension_matches_trace(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        gen = qc.SeededGenerator(seed)
        u = qc.haar_unitary(d, gen)
        p = u[:, :rank] @ u[:, :rank].conj().T
        sub = qc.range_subspace(p)
        assert sub.shape[1] == round(float(np.real(np.trace(p))))


class TestSubspaceRelation:
    def test_reordered_basis_equal(self):
        a = np.eye(3)[:, [0, 1]].astype(complex)
        b = np.eye(3)[:, [1, 0]].astype(complex)
        assert subspace_relation(a, b) is SubspaceRelation.EQUAL

    def test_containment(self):
        a = np.eye(2)[:, [0]].astype(complex)
        b = np.eye(2).astype(complex)
        assert subspace_relation(a, b) is SubspaceRelation.A_INSIDE_B
        assert subspace_relation(b, a) is SubspaceRelation.B_INSIDE_A

    def test_orthogonal(self):
        a = np.eye(2)[:, [0]].astype(complex)
        b = np.eye(2)[:, [1]].astype(complex)
        assert subspace_relation(a, b) is SubspaceRelation.ORTHOGONAL

    def test_overlapping(self):
        a = np.eye(2)[:, [0]].astype(complex)
        b = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
        assert subspace_relation(a, b) is SubspaceRelation.OVERLAPPING

    def test_empty_subspaces(self):
        empty = np.zeros((2, 0), dtype=complex)
        line = np.eye(2)[:, [0]].astype(complex)
        assert subspace_relation(empty, empty) is SubspaceRelation.EQUAL
        assert subspace_relation(empty, line) is SubspaceRelation.A_INSIDE_B

    def test_ambient_mismatch(self):
        a = np.eye(2).astype(complex)
        b = np.eye(3).astype(complex)
        with pytest.raises(StructureError):
            subspace_relation(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        u = qc.haar_unitary(d, qc.SeededGenerator(seed))
        v = qc.haar_unitary(d, qc.SeededGenerator(seed + 1))
        ka = int(rng.integers(1, d + 1))
        kb = int(rng.integers(1, d + 1))
        a = u[:, :ka]
        b = v[:, :kb]
        swapped = {
            SubspaceRelation.EQUAL: SubspaceRelation.EQUAL,
            SubspaceRelation.A_INSIDE_B: SubspaceRelation.B_INSIDE_A,
            SubspaceRelation.B_INSIDE_A: SubspaceRelation.A_INSIDE_B,
            SubspaceRelation.OVERLAPPING: SubspaceRelation.OVERLAPPING,
            SubspaceRelation.ORTHOGONAL: SubspaceRelation.ORTHOGONAL,
        }
        assert subspace_relation(b, a) is swapped[subspace_relation(a, b)]


class TestTolerances:
    def test_defaults(self):
        tol = qc.Tolerances()
        assert tol.eig_cut == 1e-9 and tol.mat_eq == 1e-8 and tol.prob_eq == 1e-7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qc.Tolerances(eig_cut=0.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["eig_cut", "mat_eq", "prob_eq"])
    def test_rejects_non_finite(self, name, value):
        # An infinite threshold passes every PSD test, PVM check and witness
        # residual it bounds; NaN fails the positivity test.
        with pytest.raises(ValueError, match=f"{name} must be (finite|strictly positive)"):
            qc.Tolerances(**{name: value})

    def test_rejects_large_prob_eq(self):
        with pytest.raises(ValueError):
            qc.Tolerances(prob_eq=0.5)

    def test_scaled(self):
        tol = qc.Tolerances().scaled(10.0)
        assert tol.mat_eq == 1e-7 and tol.prob_eq == 1e-6 and tol.eig_cut == 1e-9
