import copy
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import instruments
from qcomplement.errors import ExtractionError, PreconditionError, StructureError
from qcomplement.linalg import _supports
from qcomplement.operations import _core_norm
from helpers import (
    E0, E1, MINUS, PLUS, effect_supports, largest_sine, loop_check_pvm, proj, qubit_x, qubit_z, qutrit_fine,
    haar_unitary, rotated_pvm, support_frame, traced_peak, z_instrument,
)


def amplitude_damping_instrument(gamma=0.3) -> qc.Instrument:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return qc.instrument_from_operations(
        [("keep", qc.QuantumOperation(2, 2, (k0,))), ("decay", qc.QuantumOperation(2, 2, (k1,)))]
    )


class TestValidateInstrument:
    def test_z_instrument_valid(self):
        assert qc.validate_instrument(z_instrument()).is_valid

    def test_incomplete(self):
        ins = qc.instrument_from_operations([("x0", qc.projector_operation(proj(E0)))])
        report = qc.validate_instrument(ins)
        assert not report.is_valid
        assert report.completeness_residual > 0.5

    def test_two_scaled_identities(self):
        half = qc.QuantumOperation(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2.0),))
        ins = qc.instrument_from_operations([("a", half), ("b", half)])
        assert qc.validate_instrument(ins).is_valid

    def test_reports_tni_violation_per_outcome(self):
        bad = qc.QuantumOperation(2, 2, (np.sqrt(1.5) * np.eye(2, dtype=complex),))
        good = qc.projector_operation(np.zeros((2, 2), dtype=complex))
        ins = qc.instrument_from_operations([("bad", bad), ("rest", good)])
        report = qc.validate_instrument(ins)
        assert "outcome 'bad' is not trace-non-increasing" in report.problems
        assert not any("rest" in problem for problem in report.problems)


class TestIsRepeatable:
    def test_z_instrument(self):
        assert qc.is_repeatable(z_instrument())

    def test_unitary_conjugation_is_not(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ins = qc.instrument_from_operations([("u", qc.QuantumOperation(2, 2, (x,)))])
        assert not qc.is_repeatable(ins)

    def test_amplitude_damping_is_not(self):
        assert not qc.is_repeatable(amplitude_damping_instrument())

    def test_requires_square(self):
        op = qc.QuantumOperation(2, 3, (np.zeros((3, 2), dtype=complex),))
        ins = qc.instrument_from_operations([("x", op)])
        with pytest.raises(StructureError):
            qc.is_repeatable(ins)


class TestToElementary:
    def test_z_instrument(self):
        prop = qc.to_elementary(z_instrument())
        assert np.allclose(prop.projectors["z0"], proj(E0))
        assert np.allclose(prop.projectors["z1"], proj(E1))

    def test_global_phase_removed(self):
        phased = qc.instrument_from_operations(
            [
                ("z0", qc.QuantumOperation(2, 2, (np.exp(1j * np.pi / 4) * proj(E0),))),
                ("z1", qc.QuantumOperation(2, 2, (proj(E1),))),
            ]
        )
        prop = qc.to_elementary(phased)
        assert np.linalg.norm(prop.projectors["z0"] - proj(E0)) <= 1e-12
        assert np.linalg.norm(prop.projectors["z1"] - proj(E1)) <= 1e-12

    def test_rejects_non_repeatable(self):
        with pytest.raises(PreconditionError):
            qc.to_elementary(amplitude_damping_instrument())

    def test_rejects_non_atomic(self):
        fine = qutrit_fine().base
        part = qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)})
        with pytest.raises(PreconditionError, match="atomic"):
            qc.to_elementary(qc.coarse_grain(fine, part))

    def test_rejects_rectangular(self):
        op = qc.QuantumOperation(2, 3, (np.zeros((3, 2), dtype=complex),))
        with pytest.raises(PreconditionError):
            qc.to_elementary(qc.instrument_from_operations([("x", op)]))

    def test_proportional_kraus_list_extracts_dominant_direction(self):
        # Two proportional Kraus matrices summing to the projector map keep
        # the Choi at rank one; extraction must still find the projector.
        split = qc.instrument_from_operations(
            [
                ("z0", qc.QuantumOperation(2, 2, (0.8 * proj(E0), 0.6 * proj(E0)))),
                ("z1", qc.QuantumOperation(2, 2, (proj(E1),))),
            ]
        )
        assert qc.is_repeatable(split)
        assert all(qc.is_atomic(op) for op in split.outcomes.values())
        prop = qc.to_elementary(split)
        assert np.linalg.norm(prop.projectors["z0"] - proj(E0)) <= 1e-10


class TestCoarseGrain:
    def test_qutrit_merge_first_two(self):
        fine = qutrit_fine().base
        part = qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)})
        coarse = qc.coarse_grain(fine, part)
        assert qc.validate_instrument(coarse).is_valid
        assert np.allclose(coarse["low"].effect(), np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(coarse["two"].effect(), np.diag([0.0, 0.0, 1.0]))

    def test_singleton_partition_choi_identical(self):
        ins = z_instrument()
        part = qc.OutcomePartition({"a": ("z0",), "b": ("z1",)})
        coarse = qc.coarse_grain(ins, part)
        assert qc.choi_distance(coarse["a"], ins["z0"]) <= 1e-12
        assert qc.choi_distance(coarse["b"], ins["z1"]) <= 1e-12

    def test_full_merge_is_deterministic_channel(self):
        ins = z_instrument()
        coarse = qc.coarse_grain(ins, qc.OutcomePartition({"all": ("z0", "z1")}))
        assert coarse.labels == ("all",)
        assert qc.validate_operation(coarse["all"]).is_tp

    def test_label_mismatch(self):
        with pytest.raises(StructureError):
            qc.coarse_grain(z_instrument(), qc.OutcomePartition({"a": ("z0", "nope")}))

    def test_partition_rejects_overlap(self):
        with pytest.raises(StructureError):
            qc.OutcomePartition({"a": ("z0",), "b": ("z0", "z1")})

    def test_preserves_total_effect(self):
        fine = qutrit_fine().base
        part = qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)})
        coarse = qc.coarse_grain(fine, part)
        def total_effect(ins):
            return sum(op.effect() for op in ins.outcomes.values())

        assert np.allclose(total_effect(coarse), total_effect(fine))


def projective_instrument(mats: dict) -> qc.Instrument:
    """The instrument rho -> P rho P of each labelled matrix P, unchecked."""
    d = len(next(iter(mats.values())))
    return qc.Instrument(d, d, {label: qc.projector_operation(p) for label, p in mats.items()})


X_PVM = {"xp": proj(PLUS), "xm": proj([1.0, -1.0])}


class TestFromPvm:
    def test_z_basis(self):
        prop = qc.from_pvm({"z0": proj(E0), "z1": proj(E1)})
        assert qc.validate_instrument(prop.base).is_valid
        assert prop.rank_profile() == {"z0": 1, "z1": 1}

    def test_rejects_non_orthogonal(self):
        with pytest.raises(StructureError, match="orthogonal"):
            qc.from_pvm({"a": proj(E0), "b": proj([1.0, 1.0])})

    def test_rejects_incomplete(self):
        with pytest.raises(StructureError, match="identity"):
            qc.from_pvm({"a": proj(E0)})

    def test_rejects_non_idempotent(self):
        with pytest.raises(StructureError, match="idempotent"):
            qc.from_pvm({"a": 0.5 * np.eye(2), "b": 0.5 * np.eye(2)})

    def test_rejects_zero_projector(self):
        with pytest.raises(StructureError, match="zero"):
            qc.from_pvm({"a": np.eye(2), "b": np.zeros((2, 2))})

    def test_constructor_rejects_zero_projector(self):
        with pytest.raises(StructureError, match="zero"):
            qc.ElementaryProperty(z_instrument(), {"z0": np.eye(2), "z1": np.zeros((2, 2))})

    def test_constructor_rejects_non_idempotent(self):
        with pytest.raises(StructureError, match="idempotent"):
            qc.ElementaryProperty(z_instrument(), {"z0": 0.5 * np.eye(2), "z1": 0.5 * np.eye(2)})

    def test_constructor_rejects_projectors_that_are_not_the_base(self):
        # Z's base with X's projectors: a valid PVM, but the outcome maps
        # are Z's, so the property would decide on one and verify the other.
        with pytest.raises(StructureError, match="outcome 'z0': operation is not its projector's map"):
            qc.ElementaryProperty(z_instrument(), {"z0": proj(PLUS), "z1": proj(MINUS)})

    def test_constructor_names_the_first_outcome_off_its_projector(self):
        e = np.eye(3)
        mats = {"a": proj(e[0]), "b": proj(e[1]), "c": proj(e[2])}
        base = projective_instrument({"a": mats["a"], "b": mats["c"], "c": mats["b"]})
        with pytest.raises(StructureError, match="outcome 'b'"):
            qc.ElementaryProperty(base, mats)

    def test_constructor_compares_maps_not_kraus_matrices(self):
        # A global phase on a Kraus matrix, or a split into proportional ones,
        # leaves the map P rho P as it is.
        phased = qc.QuantumOperation(2, 2, (np.exp(0.3j) * proj(E0),))
        split = qc.QuantumOperation(2, 2, (0.8 * proj(E1), 0.6 * proj(E1)))
        base = qc.instrument_from_operations([("z0", phased), ("z1", split)])
        prop = qc.ElementaryProperty(base, {"z0": proj(E0), "z1": proj(E1)})
        assert not qc.are_complementary(prop, qubit_z()).complementary

    def test_constructor_rejects_a_rectangular_base(self):
        # dim_out = 3: the projectors pass as 2 x 2, but no instrument with
        # another output space is elementary.
        ops = [(label, qc.QuantumOperation(2, 3, (np.eye(3, 2) @ proj(v),))) for label, v in (("z0", E0), ("z1", E1))]
        with pytest.raises(StructureError, match="dim_in = dim_out"):
            qc.ElementaryProperty(qc.instrument_from_operations(ops), {"z0": proj(E0), "z1": proj(E1)})

    @pytest.mark.parametrize("d", [32, 64])
    def test_accepts_exact_half_rank_pvms(self, d):
        # The squared-norm (Gram) form of the orthogonality check reads about
        # 1e-16 on these, whose square root exceeds mat_eq = 1e-8 for most
        # seeds; the direct norm |P_a P_b| reads about 1e-15.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            a, b = u[:, : d // 2], u[:, d // 2 :]
            prop = qc.from_pvm({"a": a @ a.conj().T, "b": b @ b.conj().T})
            assert prop.rank_profile() == {"a": d // 2, "b": d // 2}

    def test_non_orthogonal_error_names_the_first_pair_in_label_order(self):
        # Bad pairs (a, d) and (b, c), each |P P| about 1e-7: row a comes first.
        e, eps = np.eye(4), 1e-7
        mats = {"a": proj(e[0]), "b": proj(e[1]), "c": proj(e[2] + eps * e[1]),
                "d": proj(e[3] + eps * e[0])}
        with pytest.raises(StructureError, match="projectors 'a' and 'd' are not orthogonal"):
            qc.from_pvm(mats)

    @pytest.mark.parametrize("build", [
        lambda m: qc.from_pvm(m),
        lambda m: qc.ElementaryProperty(qc.from_pvm(m).base, m),
    ], ids=["from_pvm", "constructor"])
    def test_projectors_are_read_only_copies(self, build):
        # proj() returns complex C-ordered arrays, which as_matrix passes through.
        mats = {"z0": proj(E0), "z1": proj(E1)}
        prop = build(mats)
        with pytest.raises(ValueError, match="read-only"):
            prop.projectors["z0"][0, 0] = 0.0
        mats["z0"][0, 0] = 0.0
        assert prop.projectors["z0"][0, 0] == 1.0

    def test_package_built_projectors_are_read_only(self):
        for prop in (qc.random_pvm(3, [2, 1], qc.SeededGenerator(0)), qc.to_elementary(z_instrument())):
            for mat in prop.projectors.values():
                with pytest.raises(ValueError, match="read-only"):
                    mat[0, 0] = 0.0

    @pytest.mark.parametrize("pairs", [
        lambda: [("a", proj(E0)), ("a", np.eye(2))],
        lambda: [("a", proj(E0)), ("b", proj(E1)), ("a", proj(E1))],
    ], ids=["second-replaces-first", "later-repeat"])
    def test_duplicate_label_raises(self, pairs):
        # A dict built from the pairs would keep the last matrix of each label
        # and silently drop the others.
        with pytest.raises(StructureError, match="duplicate outcome label 'a'"):
            qc.from_pvm(pairs())

    def test_instrument_from_operations_rejects_a_duplicate_label(self):
        ops = [(label, qc.projector_operation(p)) for label, p in (("z0", proj(E0)), ("z0", proj(E1)))]
        with pytest.raises(StructureError, match="duplicate outcome label 'z0'"):
            qc.instrument_from_operations(ops)

    @pytest.mark.parametrize("build", [
        lambda: qc.from_pvm({"a": proj(PLUS), "b": proj([1.0, -1.0])}),
        lambda: qc.ElementaryProperty(projective_instrument(X_PVM), X_PVM),
        lambda: qc.from_pvm(rotated_pvm(6, 2, 0.0, 4)),
        lambda: qc.from_pvm({"lo": proj(E0), "hi": proj(E1)}),
    ], ids=["from_pvm", "constructor", "rank2", "diagonal"])
    def test_spectrum_is_one_unitary_from_the_outcome_index_sum(self, build, monkeypatch):
        # Projectors from outside: one eigh, of sum_x x P_x, frames every
        # outcome; eigenvector j goes to outcome rint(lambda_j). The frame,
        # unitary on these exact families, is held as one d x d array with
        # each column's owner, and w holds the effect P_x^dag P_x compressed
        # to x's columns.
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        prop = build()
        stack = np.stack(list(prop.projectors.values()))
        n, d = stack.shape[:2]
        u, owner, w = prop._spectrum
        assert u.shape == (d, d) and owner.shape == w.shape == (d,)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-14
        index = np.tensordot(np.arange(n), stack, axes=1)
        assert np.array_equal(np.rint(np.real(np.einsum("ij,jk,ki->i", u.conj().T, index, u))), owner)
        assert np.array_equal(np.sort(owner), owner)
        for x, p in enumerate(stack):
            cols = owner == x
            assert cols.sum() == prop.rank_profile()[prop.labels[x]]
            compressed = (p @ u[:, cols]).conj().T @ (p @ u[:, cols])
            assert np.linalg.norm(compressed - np.diag(w[cols])) <= 1e-14
        # Rank-1 clusters read |P_x q|^2; each larger size takes one eigh.
        assert calls == [(d, d)] + [(n, 2, 2)] * (n < d)

    def test_extraction_keeps_the_projectors_exact_spectrum(self):
        # The kept eigenvectors of E, eigenvalue 1: no second eigh, and every
        # outcome's columns V give the extracted projector V V^dag itself.
        ins = qc.random_pvm(4, [2, 1, 1], qc.SeededGenerator(3)).base
        effects = instruments._effects(ins, instruments._kraus_groups(ins))
        prop = qc.to_elementary(ins)
        u, owner, w = prop._spectrum
        v, keep = _supports(np.linalg.eigh(effects), qc.DEFAULT_TOL)
        assert owner.tolist() == [0, 0, 1, 2] and np.array_equal(w, np.ones(4))
        for x, (vectors, kept, p) in enumerate(zip(v, keep, prop.projectors.values())):
            assert np.array_equal(u[:, owner == x], vectors[:, kept])
            assert np.array_equal(u[:, owner == x] @ u[:, owner == x].conj().T, p)

    def test_random_pvm_holds_the_indicator_of_its_haar_blocks(self, monkeypatch):
        # The draw's unitary and block columns are the spectrum: no eigh is
        # run to build the property or to decide on it.
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        prop = qc.random_pvm(6, [2, 1, 3], qc.SeededGenerator(3))
        assert not qc.classify_relation(prop, prop).complementary
        assert calls == []
        u, owner, w = prop._spectrum
        assert owner.tolist() == [0, 0, 1, 2, 2, 2] and w.tolist() == [1] * 6
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12
        for x, p in enumerate(prop.projectors.values()):
            assert np.linalg.norm(u[:, owner == x] @ u[:, owner == x].conj().T - p) <= 1e-14

    @staticmethod
    def short_effect_instrument(d: int, rank: int) -> qc.Instrument:
        """Outcome a keeps the first ``rank`` basis vectors, scaled by
        sqrt(1 - 4e-9); b projects onto the rest. Complete, repeatable and
        atomic within mat_eq, so a's effect has eigenvalues 1 - 4e-9."""
        first = np.diag([1.0] * rank + [0.0] * (d - rank))
        return qc.instrument_from_operations([
            ("a", qc.QuantumOperation(d, d, [np.sqrt(1.0 - 4e-9) * first])),
            ("b", qc.projector_operation(np.eye(d) - first)),
        ])

    @pytest.mark.parametrize("d, rank", [(2, 1), (3, 2)])
    def test_extracted_supports_hold_at_a_tighter_tolerance(self, d, rank):
        # At prob_eq = 1e-9 the eigenvalues 1 - 4e-9 of a's effect fall below
        # the cut; the projector's own spectrum keeps the whole support.
        prop = qc.to_elementary(self.short_effect_instrument(d, rank))
        assert prop.rank_profile() == {"a": rank, "b": d - rank}
        same = qc.from_pvm(dict(prop.projectors))
        tight = qc.DEFAULT_TOL.scaled(0.01)
        for pair in ((prop, same), (same, prop)):
            report = qc.classify_relation(*pair, tight)
            assert not report.complementary
            assert report.matched_bijection == {"a": "a", "b": "b"}
        assert qc.classify_relation(prop, qubit_x() if d == 2 else qutrit_fine(), tight).complementary


THETAS = [0.0, 1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 7e-9, 1e-8, 1.5e-8, 1e-7, 1e-6]
# Block rank per profile. From 8 outcomes on, rank-1 and rank-2 PVMs take the
# Gram bound (d >= 8 and d >= 16), two halves always the direct check.
PROFILES = {"rank1": lambda d: 1, "rank2": lambda d: 2, "halves": lambda d: d // 2}


# Block ranks per profile of the bound-soundness sweep.
SOUNDNESS_PROFILES = {
    "rank1": lambda d: [1] * d,
    "rank2": lambda d: [2] * (d // 2),
    "mixed": lambda d: [1] * (d // 2) + [2] * (d // 4),
}


class TestPvmCheckOracle:
    """The frame-Gram check against the pairwise loop it replaces: the same
    accept/reject decision and the same message."""

    @staticmethod
    def decide(call) -> str | None:
        try:
            call()
        except StructureError as err:
            return str(err)
        return None

    def stacked_norms(self, monkeypatch, call) -> tuple[str | None, list]:
        """The decision of ``call`` and the shapes of the stacked norms it took."""
        norm, shapes = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda a, *args, **kw: shapes.append(a.shape) or norm(a, *args, **kw))
        got = self.decide(call)
        monkeypatch.undo()
        return got, [s for s in shapes if len(s) == 3]

    @pytest.mark.parametrize("d, profile", [
        (d, profile) for d in (2, 3, 4, 8, 16, 32, 64) for profile in PROFILES if PROFILES[profile](d) < d
    ])
    def test_from_pvm_and_constructor_match_the_pairwise_loop(self, d, profile):
        seen, rank = set(), PROFILES[profile](d)
        # The loop oracle makes 2016 products per rank-1 PVM at d = 64.
        tols = [qc.DEFAULT_TOL] + [qc.DEFAULT_TOL.scaled(10)] * (d < 64)
        for theta in THETAS:
            mats = rotated_pvm(d, rank, theta, 0)
            # The base holds the same matrices, so only the PVM check decides.
            base = projective_instrument(mats)
            for tol in tols:
                oracle = loop_check_pvm(mats, d, tol)
                assert self.decide(lambda: qc.from_pvm(mats, tol)) == oracle
                if tol is qc.DEFAULT_TOL and d < 64:
                    assert self.decide(lambda: qc.ElementaryProperty(base, mats)) == oracle
                seen.add(oracle)
        assert {None, "projectors 'p0' and 'p1' are not orthogonal"} <= seen

    def test_fallback_decides_the_pairs_the_bound_cannot(self, monkeypatch):
        # At theta = 7e-9 the first pair's bound exceeds mat_eq / 2 while
        # |P_0 P_1|_F stays below mat_eq. Each frame is turned onto its
        # effect's range, so the deltas stay at rounding and the Gram block
        # of p0 and p1 carries the overlap. The deltas and the Gram's
        # diagonal blocks certify every projector, so after the one stacked
        # norm of the deltas, one direct product, of that pair alone,
        # accepts it.
        mats = rotated_pvm(8, 1, 7e-9, 0)
        got, shapes = self.stacked_norms(monkeypatch, lambda: qc.from_pvm(mats))
        assert got == loop_check_pvm(mats, 8) and "orthogonal" not in str(got)
        assert shapes == [(8, 8, 8), (1, 8, 8)]

    @pytest.mark.parametrize("skewed, partner", [("p0", "p1"), ("p1", "p2")])
    def test_a_skewed_projector_widens_its_bound(self, monkeypatch, skewed, partner):
        # P + 3e-9 u w^dag, u in P's support and w in its partner's, stays
        # idempotent and within mat_eq of Hermitian, and |P Q|_F = 3e-9; an
        # exact pair's bound reads about 5e-15. P's effect, and the frame
        # turned onto it, tilts toward w by about 3e-9, and delta adds as
        # much again: the bound, 6e-9, sends that pair alone to the direct
        # check, which accepts it, wherever P sits in sum_x x P_x. Its
        # delta, 3e-9, also leaves P's own checks uncertified: after the
        # stacked norm of the deltas, P alone takes the direct Hermitian and
        # idempotent norms.
        mats = rotated_pvm(8, 1, 0.0, 0)
        u, w = (np.linalg.eigh(mats[label])[1][:, -1] for label in (skewed, partner))
        mats[skewed] = mats[skewed] + 3e-9 * np.outer(u, w.conj())
        got, shapes = self.stacked_norms(monkeypatch, lambda: qc.from_pvm(mats))
        assert got is None and loop_check_pvm(mats, 8) is None
        assert shapes == [(8, 8, 8)] + [(1, 8, 8)] * 3
        a, b = (list(mats).index(label) for label in (skewed, partner))
        stack = np.stack(list(mats.values()))
        bound = instruments._pvm_bounds(stack, qc.from_pvm(mats)._spectrum, qc.DEFAULT_TOL)[3]
        assert np.linalg.norm(stack[a] @ stack[b]) <= bound[a, b]

    @staticmethod
    def perturbed(d: int, ranks: list, kind: str, t: float) -> dict:
        """A Haar PVM of ``ranks`` whose second-to-last projector P is
        perturbed by t toward the last, Q: skewed to P + t u w^dag, scaled
        to (1 + t) P, or turned by t in the plane of u and w, with u the
        first support vector of P and w that of Q."""
        u = haar_unitary(d, np.random.default_rng([d, len(ranks)]))
        edges = np.cumsum([0, *ranks])
        blocks = [u[:, a:b].copy() for a, b in zip(edges[:-1], edges[1:])]
        first, last = blocks[-2][:, 0].copy(), blocks[-1][:, 0]
        if kind == "rotation":
            blocks[-2][:, 0] = np.cos(t) * first + np.sin(t) * last
        mats = {f"p{i}": b @ b.conj().T for i, b in enumerate(blocks)}
        label = f"p{len(ranks) - 2}"
        if kind == "skew":
            mats[label] = mats[label] + t * np.outer(first, last.conj())
        elif kind == "scale":
            mats[label] = (1.0 + t) * mats[label]
        return mats

    @staticmethod
    def assert_bounds_hold(stack, spectrum, tol, held):
        """Every computed direct norm of the PVM check is at most its bound."""
        bounds = instruments._pvm_bounds(stack, spectrum, tol, held)
        assert bounds is not None
        _, hermitian, idempotent, pairs = bounds
        assert (np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(1, 2)) <= hermitian).all()
        assert (np.linalg.norm(stack @ stack - stack, axis=(1, 2)) <= idempotent).all()
        a, b = np.triu_indices(len(stack), 1)
        assert (np.linalg.norm(stack[a] @ stack[b], axis=(1, 2)) <= pairs[a, b]).all()

    @pytest.mark.parametrize("d", [8, 16, 32])
    @pytest.mark.parametrize("profile", list(SOUNDNESS_PROFILES))
    def test_bounds_hold_and_every_path_matches_the_loop(self, d, profile):
        # Perturbations from mat_eq / 8 to 8 mat_eq straddle each check: the
        # skew breaks the Hermitian check, the scale the idempotent one, the
        # turn orthogonality. The bounds hold either side, from the one frame
        # of from_pvm and from extraction's exact 0/1 spectrum (delta 0).
        ranks, seen, reached = SOUNDNESS_PROFILES[profile](d), set(), 0
        for tol in (qc.DEFAULT_TOL, qc.DEFAULT_TOL.scaled(10), qc.DEFAULT_TOL.scaled(0.1)):
            for kind in ("skew", "scale", "rotation"):
                for factor in (1 / 8, 1 / 2, 1, 2, 8):
                    mats = self.perturbed(d, ranks, kind, factor * tol.mat_eq)
                    stack = np.stack(list(mats.values()))
                    self.assert_bounds_hold(stack, instruments._pvm_spectrum(stack), tol, held=False)
                    oracle = loop_check_pvm(mats, d, tol)
                    seen.add(oracle)
                    assert self.decide(lambda: qc.from_pvm(mats, tol)) == oracle
                    ins = projective_instrument(mats)
                    if tol is qc.DEFAULT_TOL:
                        assert self.decide(lambda: qc.ElementaryProperty(ins, mats)) == oracle
                    # Extraction checks the projectors onto its effects'
                    # supports; a residual fault ("outcome ...") comes first.
                    effects = instruments._effects(ins, instruments._kraus_groups(ins))
                    v, keep = _supports(np.linalg.eigh(effects), tol)
                    frame = v.swapaxes(-1, -2)[keep].T
                    extracted = instruments._support_projectors(frame, keep.sum(axis=1))
                    self.assert_bounds_hold(extracted, (frame, np.nonzero(keep)[0], np.ones(keep.sum())), tol, held=True)
                    try:
                        instruments._extract_elementary(ins, tol)
                        got = None
                    except ExtractionError as err:
                        got = str(err)
                    if not (got or "").startswith("outcome"):
                        assert got == loop_check_pvm(dict(zip(mats, extracted)), d, tol)
                        reached += 1
        assert {None, "Hermitian", "idempotent", "orthogonal"} <= {m and m.split()[-1] for m in seen}
        assert reached >= 15

    @pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3])
    def test_a_frame_off_orthonormal_carries_the_idempotent_bound(self, t):
        # Columns scaled by sqrt(1 + t): each P_x = V_x V_x^dag is its own
        # support projector (delta 0), but P_x^2 - P_x = t (1 + t) U_x U_x^dag,
        # which eps_x = t sqrt(rank) bounds.
        d, ranks = 8, np.array([1, 2, 1, 3, 1])
        u = haar_unitary(d, np.random.default_rng(4)) * np.sqrt(1.0 + t)
        stack = instruments._support_projectors(u, ranks)
        idempotent = np.linalg.norm(stack @ stack - stack, axis=(1, 2))
        assert np.allclose(idempotent, t * (1.0 + t) * np.sqrt(ranks), rtol=1e-6)
        owner = np.repeat(np.arange(len(ranks)), ranks)
        self.assert_bounds_hold(stack, (u, owner, np.ones(d)), qc.DEFAULT_TOL, held=True)

    @pytest.mark.parametrize("theta", [0.0, 0.2])
    def test_an_empty_support_sends_every_pair_to_the_direct_check(self, monkeypatch, theta):
        # At mat_eq = 0.1 a projector scaled by 0.95 passes the per-projector
        # and completeness checks, but its effect tops out at 0.9025 < 1 -
        # prob_eq. Its support is empty and bounds nothing, so the 28 pairs
        # are checked row by row, as the pairwise loop does.
        tol = qc.Tolerances(mat_eq=0.1)
        mats = rotated_pvm(8, 1, theta, 0)
        mats["p3"] = 0.95 * mats["p3"]
        got, shapes = self.stacked_norms(monkeypatch, lambda: qc.from_pvm(mats, tol))
        assert got == loop_check_pvm(mats, 8, tol)
        # The stacked Hermitian and idempotent norms, then the direct rows.
        assert shapes[:2] == [(8, 8, 8)] * 2
        rows = [s[0] for s in shapes[2:]]
        if theta:
            assert got == "projectors 'p0' and 'p1' are not orthogonal" and rows == [7]
        else:
            assert got is None and rows == [7, 6, 5, 4, 3, 2, 1]

    @pytest.mark.parametrize("d", [3, 8, 16])
    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_extraction_errors_match_the_pairwise_loop(self, d, profile):
        # Off-diagonal repeatability reads |P_a P_b|_F^2, so overlaps of 1e-6
        # and 1e-5 pass it and leave the PVM check to reject the extraction.
        for theta in (0.0, 1e-10, 1e-6, 1e-5):
            mats = rotated_pvm(d, PROFILES[profile](d), theta, 1)
            ins = qc.Instrument(d, d, {label: qc.projector_operation(p) for label, p in mats.items()})
            oracle = loop_check_pvm(mats, d)
            if oracle is None:
                assert qc.to_elementary(ins).labels == tuple(mats)
            else:
                assert oracle == "projectors 'p0' and 'p1' are not orthogonal"
                with pytest.raises(ExtractionError) as err:
                    qc.to_elementary(ins)
                assert str(err.value) == oracle


def held_supports(prop, tol) -> list[np.ndarray]:
    """The supports a property's frame keeps at ``tol``, one basis per outcome."""
    frame, ranks, _ = support_frame(prop, tol)
    return np.split(frame, np.cumsum(ranks)[:-1], axis=1)


class TestOneFrameSupports:
    """The supports ``from_pvm`` cuts from its one frame against the
    eigenspaces of each effect's own eigh, the rule they replace."""

    @staticmethod
    def oracle_property(mats: dict) -> qc.ElementaryProperty:
        """The property holding the frame of the batched eigh of its
        effects, as ``from_pvm`` held before the one-frame spectrum."""
        stack = np.stack([np.asarray(p, dtype=complex) for p in mats.values()])
        w, v = np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
        half = w >= 0.5
        spectrum = (v.swapaxes(-1, -2)[half].T, np.nonzero(half)[0], w[half])
        return instruments._elementary(projective_instrument(mats), dict(zip(mats, stack)), spectrum)

    @pytest.mark.parametrize("d, profile", [
        (d, profile) for d in (2, 3, 4, 8, 16, 32, 64) for profile in PROFILES if PROFILES[profile](d) < d
    ])
    def test_supports_match_the_effects_eigenspaces(self, d, profile):
        # Non-orthogonal ranges have no common frame: the frame from
        # sum_x x P_x leans from p0's range by about theta, and the power
        # step on each effect turns it back onto that range.
        accepted = 0
        for theta in THETAS:
            mats = rotated_pvm(d, PROFILES[profile](d), theta, 0)
            for tol in (qc.DEFAULT_TOL, qc.DEFAULT_TOL.scaled(10), qc.DEFAULT_TOL.scaled(0.01)):
                try:
                    prop = qc.from_pvm(mats, tol)
                except StructureError:
                    continue
                accepted += 1
                want = effect_supports(mats, tol)
                for held, oracle in zip(held_supports(prop, tol), want):
                    assert held.shape == oracle.shape
                    assert largest_sine(held, oracle) <= 1e-12
                    assert largest_sine(oracle, held) <= 1e-12
        assert accepted >= 10

    @pytest.mark.parametrize("d, profile", [
        (d, profile) for d in (2, 3, 8, 16, 32) for profile in PROFILES if PROFILES[profile](d) < d
    ])
    def test_decisions_match_the_effects_eigh(self, d, profile):
        # Against its own exact family, the family of another seed and a
        # rank-1 Haar PVM: the same verdicts, bijections and degree kinds as
        # the property that holds each effect's eigh.
        rank, accepted = PROFILES[profile](d), 0
        others = [rotated_pvm(d, rank, 0.0, 0), rotated_pvm(d, rank, 0.0, 1), rotated_pvm(d, 1, 0.0, 2)]
        for theta in THETAS:
            mats = rotated_pvm(d, rank, theta, 0)
            for tol in (qc.DEFAULT_TOL, qc.DEFAULT_TOL.scaled(10), qc.DEFAULT_TOL.scaled(0.01)):
                try:
                    prop = qc.from_pvm(mats, tol)
                except StructureError:
                    continue
                accepted += 1
                oracle = self.oracle_property(mats)
                for other in map(qc.from_pvm, others):
                    for got, want in ((qc.classify_relation(prop, other, tol), qc.classify_relation(oracle, other, tol)),
                                      (qc.classify_relation(other, prop, tol), qc.classify_relation(other, oracle, tol))):
                        assert got.complementary == want.complementary
                        assert got.matched_bijection == want.matched_bijection
                        for table in ("degree_table", "reverse_degree_table"):
                            kinds = [{k: v.kind for k, v in getattr(r, table).items()} for r in (got, want)]
                            assert kinds[0] == kinds[1]
                    assert (qc.are_complementary(prop, other, tol).complementary
                            == qc.are_complementary(oracle, other, tol).complementary)
        assert accepted >= 10

    @pytest.mark.parametrize("variant", ["rank2", "rank1"])
    def test_a_run_that_misses_a_support_direction_reads_each_effect(self, variant):
        # At mat_eq = 0.15, P_4 = diag(1, 1.13) on e4, e5 (or 1.13 e4 e4^dag
        # at d = 6) passes every check, but sum_x x P_x has eigenvalue 4.52,
        # which rounds to outcome 5: outcome 4's run misses a direction whose
        # effect eigenvalue, 1.28 or 1, no tolerance leaves out. The spectrum
        # is then each effect's eigh, and the supports and verdicts are those
        # of that rule.
        d = 7 if variant == "rank2" else 6
        e = np.eye(d)
        mats = {f"p{i}": proj(e[i]) for i in range(4)}
        mats["p4"] = np.diag([0, 0, 0, 0, 1.0, 1.13, 0]) if variant == "rank2" else 1.13 * proj(e[4])
        mats["p5"] = proj(e[d - 1])
        tol = qc.Tolerances(mat_eq=0.15)
        prop = qc.from_pvm(mats, tol)
        held, want = held_supports(prop, tol), effect_supports(mats, tol)
        assert [h.shape[1] for h in held] == [o.shape[1] for o in want] == [1, 1, 1, 1, d - 5, 1]
        assert max(largest_sine(h, o) for h, o in zip(held, want)) <= 1e-12
        assert prop.rank_profile() == {"p0": 1, "p1": 1, "p2": 1, "p3": 1, "p4": d - 5, "p5": 1}
        z = qc.from_pvm({f"z{i}": proj(e[i]) for i in range(d)})
        coarse = qc.from_pvm({"q0": proj(e[0]), "q1": proj(e[1]), "q2": proj(e[2]), "q3": proj(e[3]),
                              "q4": sum(proj(e[i]) for i in range(4, d - 1)), "q5": proj(e[d - 1])})
        report = qc.classify_relation(prop, z, tol)
        if variant == "rank2":
            assert report.complementary and report.degree_table["p4"].kind is qc.DegreeKind.WEAK
        else:
            assert report.matched_bijection == {f"p{i}": f"z{i}" for i in range(6)}
        assert qc.classify_relation(prop, coarse, tol).matched_bijection == {f"p{i}": f"q{i}" for i in range(6)}

    def test_a_drifted_index_far_down_the_sum_reads_each_effect(self):
        # 64 rank-1 outcomes at mat_eq = 0.01: P_60 scaled by 1.0095 passes,
        # and drifts its eigenvalue of sum_x x P_x to 60.57, into outcome
        # 61's run. Every support keeps rank 1, as each effect's eigh says.
        u = np.linalg.qr(np.random.default_rng(5).standard_normal((64, 64)))[0]
        mats = {f"p{x}": proj(u[:, x]) for x in range(64)}
        mats["p60"] = 1.0095 * mats["p60"]
        tol = qc.Tolerances(mat_eq=0.01)
        prop = qc.from_pvm(mats, tol)
        held, want = held_supports(prop, tol), effect_supports(mats, tol)
        assert [h.shape[1] for h in held] == [o.shape[1] for o in want] == [1] * 64
        assert max(largest_sine(h, o) for h, o in zip(held, want)) <= 1e-12
        drawn = qc.from_pvm({f"q{x}": proj(u[:, x]) for x in range(64)})
        assert qc.classify_relation(prop, drawn, tol).matched_bijection == {f"p{x}": f"q{x}" for x in range(64)}

    def test_a_rank2_cluster_keeps_only_its_near_one_direction(self):
        # At mat_eq = 0.1, outcome a's effect has eigenvalues 1 and 0.95 on
        # its two columns: one stacked eigh of the 2 x 2 compression splits
        # them, and only the first is a support, as in the effect's own eigh.
        u = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        diag = [np.diag(entries) for entries in ([1.0, np.sqrt(0.95), 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0])]
        mats = dict(zip("abc", (u @ m @ u.T for m in diag)))
        tol = qc.Tolerances(mat_eq=0.1)
        prop = qc.from_pvm(mats, tol)
        _, owner, w = prop._spectrum
        assert np.allclose(np.sort(w[owner == 0]), [0.95, 1.0], rtol=0, atol=1e-14)
        held, want = held_supports(prop, tol), effect_supports(mats, tol)
        assert [h.shape[1] for h in held] == [o.shape[1] for o in want] == [1, 1, 1]
        assert max(largest_sine(h, o) for h, o in zip(held, want)) <= 1e-12
        assert largest_sine(held[0], u[:, :1]) <= 1e-12


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_extraction_recovers_projectors(self, seed, d):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        parts = int(rng.integers(1, d + 1))
        ranks = qc.random_rank_profile(d, parts, rng)
        prop = qc.random_pvm(d, ranks, gen.child(0))

        phased = qc.instrument_from_operations(
            [
                (label, qc.QuantumOperation(d, d, (np.exp(1j * rng.uniform(0, 2 * np.pi)) * k,)))
                for label, op in prop.base.outcomes.items()
                for k in [op.kraus[0]]
            ]
        )
        assert qc.is_repeatable(phased)
        assert all(qc.is_atomic(op) for op in phased.outcomes.values())
        recovered = qc.to_elementary(phased)
        for label in prop.labels:
            assert np.linalg.norm(recovered.projectors[label] - prop.projectors[label]) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_elementary_properties_are_repeatable_atomic(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        ranks = qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng)
        prop = qc.random_pvm(d, ranks, gen.child(0))
        assert qc.is_repeatable(prop.base)
        assert all(qc.is_atomic(op) for op in prop.base.outcomes.values())

    def test_merged_coarse_graining_fails_atomicity(self):
        gen = qc.SeededGenerator(77)
        prop = qc.random_pvm(4, [1, 1, 1, 1], gen)
        merged = qc.coarse_grain(
            prop.base, qc.OutcomePartition({"ab": ("x0", "x1"), "c": ("x2",), "d": ("x3",)})
        )
        assert qc.is_repeatable(merged)
        with pytest.raises(PreconditionError, match="atomic"):
            qc.to_elementary(merged)

    @pytest.mark.parametrize("d", [24, 32])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_large_d_extraction_with_two_kraus_per_outcome(self, d, coarse):
        gen = qc.SeededGenerator(d)
        rng = gen.rng
        ranks = [d // 2, d // 4, d - d // 2 - d // 4] if coarse else [1] * d
        prop = qc.random_pvm(d, ranks, gen.child(0))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(ranks)))
        # Two proportional Kraus matrices per outcome: still atomic, but the
        # maps are no longer given by one matrix each.
        phased = qc.instrument_from_operations(
            [
                (label, qc.QuantumOperation(d, d, (c * p / np.sqrt(2), 1j * c * p / np.sqrt(2))))
                for c, (label, p) in zip(phases, prop.projectors.items())
            ]
        )
        start = time.perf_counter()
        recovered = qc.to_elementary(phased)
        elapsed = time.perf_counter() - start
        worst = max(
            np.linalg.norm(recovered.projectors[label] - prop.projectors[label])
            for label in prop.labels
        )
        assert worst <= 1e-8 and elapsed < 10.0, f"error {worst:.2e} in {elapsed:.1f}s"


def loop_repeatable(ins: qc.Instrument, tol: qc.Tolerances = qc.DEFAULT_TOL) -> bool:
    """The pairwise loop form of ``is_repeatable``, kept as its oracle."""
    for x, op_x in ins.outcomes.items():
        for xp, op_xp in ins.outcomes.items():
            if not _core_norm(qc.compose_seq(op_x, op_xp), op_x if x == xp else None) <= tol.mat_eq:
                return False
    return True


def loop_validate(ins: qc.Instrument, tol: qc.Tolerances = qc.DEFAULT_TOL) -> qc.InstrumentReport:
    """The per-outcome loop form of ``validate_instrument``, kept as its oracle."""
    problems = [
        f"outcome {label!r} is not trace-non-increasing"
        for label, op in ins.outcomes.items()
        if not qc.validate_operation(op, tol).is_tni
    ]
    total = np.zeros((ins.dim_in, ins.dim_in), dtype=complex)
    for op in ins.outcomes.values():
        total += op.effect()
    residual = float(np.linalg.norm(total - np.eye(ins.dim_in)))
    if residual > tol.mat_eq:
        problems.append(f"summed effect differs from identity by {residual:.3e} (limit {tol.mat_eq:.1e})")
    return qc.InstrumentReport(not problems, residual, tuple(problems))


def loop_extract(ins: qc.Instrument, tol: qc.Tolerances = qc.DEFAULT_TOL) -> dict:
    """The per-outcome loop form of the extraction step, kept as its oracle:
    the projectors, or the ``ExtractionError`` message."""
    effects = np.stack([op.effect() for op in ins.outcomes.values()])
    w, v = np.linalg.eigh(effects)
    projectors = {}
    for (label, op), vectors, kept in zip(ins.outcomes.items(), v, w >= 1.0 - tol.prob_eq):
        if not kept.any():
            return f"outcome {label!r} is the zero map, it admits no verifier"
        basis = vectors[:, kept]
        projectors[label] = basis @ basis.conj().T
        if not qc.choi_distance(qc.projector_operation(projectors[label]), op) <= tol.mat_eq:
            return f"outcome {label!r}: projector map does not reproduce the operation"
    return projectors


def composite_table(ins: qc.Instrument) -> np.ndarray:
    """All of ``_composite_norms``'s block pairs, assembled in outcome order."""
    n = len(ins.outcomes)
    table = np.full((n, n), np.nan)
    for rows, cols, norms in instruments._composite_norms(instruments._kraus_groups(ins)):
        table[np.ix_(rows, cols)] = norms
    return table


def gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_instrument(rng, d: int, n: int, max_kraus: int) -> qc.Instrument:
    """Gaussian Kraus families, a Kraus count drawn per outcome; jointly
    normalised (a valid instrument) or not, at random."""
    counts = rng.integers(1, max_kraus + 1, size=n)
    raw = [gaussian(rng, (d, d)) for _ in range(counts.sum())]
    if rng.integers(2):
        w, v = np.linalg.eigh(sum(g.conj().T @ g for g in raw))
        raw = [g @ ((v / np.sqrt(w)) @ v.conj().T) for g in raw]
    edges = np.concatenate(([0], np.cumsum(counts)))
    return qc.Instrument(d, d, {
        f"r{x}": qc.QuantumOperation(d, d, tuple(raw[edges[x]:edges[x + 1]])) for x in range(n)
    })


def perturbed_elementary(rng, seed: int, d: int, max_kraus: int, eps: float) -> qc.Instrument:
    """A random elementary instrument, each outcome split into phased
    proportional Kraus matrices, then each matrix moved by eps * Gaussian."""
    ranks = qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng)
    outcomes = {}
    for label, p in qc.random_pvm(d, ranks, qc.SeededGenerator(seed)).projectors.items():
        weights = rng.random(int(rng.integers(1, max_kraus + 1)))
        weights /= weights.sum()
        outcomes[label] = qc.QuantumOperation(d, d, tuple(
            np.sqrt(w) * np.exp(2j * np.pi * rng.random()) * p + eps * gaussian(rng, (d, d))
            for w in weights
        ))
    return qc.Instrument(d, d, outcomes)


def measure_and_prepare(d: int, n: int, kraus: int = 16) -> qc.Instrument:
    """Outcome x measures block x of n equal coordinate blocks and prepares a
    fixed state in it, over ``kraus`` Kraus matrices: valid and repeatable."""
    rng = np.random.default_rng(0)
    size = d // n
    outcomes = {}
    for x in range(n):
        psi = np.zeros(d, dtype=complex)
        psi[x * size : (x + 1) * size] = gaussian(rng, size)
        psi /= np.linalg.norm(psi)
        scale = np.sqrt(size / kraus)
        outcomes[f"x{x}"] = qc.QuantumOperation(d, d, tuple(
            scale * np.outer(psi, np.eye(d)[x * size + j % size]) for j in range(kraus)
        ))
    return qc.Instrument(d, d, outcomes)


def assert_table_matches_oracle(ins: qc.Instrument):
    table = composite_table(ins)
    ops = list(ins.outcomes.values())
    oracle = np.array([[_core_norm(qc.compose_seq(a, b)) for b in ops] for a in ops])
    assert np.all(np.abs(table - oracle) <= 1e-14 * oracle + 1e-15), (table, oracle)


class TestRepeatabilityTable:
    """Off-diagonal repeatability from the Gram table, diagonals from the
    stacked QR core, against the pairwise loop."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), n=st.integers(1, 4),
           max_kraus=st.integers(1, 3))
    def test_random_instruments(self, seed, d, n, max_kraus):
        ins = random_instrument(np.random.default_rng(seed), d, n, max_kraus)
        assert qc.is_repeatable(ins) == loop_repeatable(ins)
        assert_table_matches_oracle(ins)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), max_kraus=st.integers(1, 3),
           eps=st.sampled_from([1e-12, 1e-9, 1e-8, 1e-7, 1e-6]))
    def test_perturbed_repeatable_instruments(self, seed, d, max_kraus, eps):
        ins = perturbed_elementary(np.random.default_rng(seed), seed, d, max_kraus, eps)
        assert qc.is_repeatable(ins) == loop_repeatable(ins)
        assert_table_matches_oracle(ins)

    def test_perturbation_sweep_reaches_both_verdicts(self):
        # The property above is only as strong as the verdicts it meets.
        verdicts = {
            eps: [loop_repeatable(perturbed_elementary(np.random.default_rng(s), s, 4, 2, eps))
                  for s in range(5)]
            for eps in (1e-12, 1e-6)
        }
        assert all(verdicts[1e-12]) and not any(verdicts[1e-6])

    @pytest.mark.parametrize("cells", [1, 16, 300])
    def test_block_pairs_and_chunks_give_the_same_answers(self, monkeypatch, cells):
        # Small budgets split the table into many block pairs and the QR
        # stacks into small chunks; the numbers must not depend on that.
        rng = np.random.default_rng(cells)
        cases = [random_instrument(rng, 3, 4, 3) for _ in range(4)]
        cases += [perturbed_elementary(rng, s, 5, 3, 1e-9) for s in range(4)]
        whole = [(qc.is_repeatable(ins), composite_table(ins)) for ins in cases]
        monkeypatch.setattr(instruments, "_CHUNK_CELLS", cells)
        for ins, (verdict, table) in zip(cases, whole):
            assert qc.is_repeatable(ins) == verdict == loop_repeatable(ins)
            assert np.allclose(composite_table(ins), table, rtol=1e-14, atol=1e-15)

    def test_entries_at_the_cap_read_not_repeatable(self):
        # K0 is idempotent and K1 = diag(0, 1): Choi(T_0 T_1) has norm 1e60,
        # whose square reaches a Gram entry; nothing may overflow on the way.
        k0 = np.array([[1.0, 1e30], [0.0, 0.0]])
        ins = qc.Instrument(2, 2, {
            "k0": qc.QuantumOperation(2, 2, (k0,)),
            "k1": qc.QuantumOperation(2, 2, (np.diag([0.0, 1.0]),)),
        })
        with np.errstate(all="raise"):
            assert not qc.is_repeatable(ins)
            table = composite_table(ins)
        assert np.all(np.isfinite(table)) and table[0, 1] == pytest.approx(1e60, rel=1e-15)
        assert_table_matches_oracle(ins)

    def test_nan_norms_fail(self, monkeypatch):
        # Every threshold test is written so that NaN fails it.
        ins = qubit_z().base
        assert qc.is_repeatable(ins)
        with monkeypatch.context() as patch:
            table = (np.arange(2), np.arange(2), np.array([[0.0, np.nan], [0.0, 0.0]]))
            patch.setattr(instruments, "_composite_norms", lambda groups: iter([table]))
            assert not qc.is_repeatable(ins)
        monkeypatch.setattr(instruments, "_residuals", lambda plus, minus: np.full(len(plus), np.nan))
        assert not qc.is_repeatable(ins)

    def test_one_matmul_for_a_rank_one_instrument_at_d48(self):
        prop = qc.random_pvm(48, [1] * 48, qc.SeededGenerator(48))
        assert len(list(instruments._composite_norms(instruments._kraus_groups(prop.base)))) == 1
        assert qc.is_repeatable(prop.base)

    @pytest.mark.parametrize("d, n", [(8, 2), (16, 4)])
    def test_traced_peak_is_bounded(self, d, n):
        # The pairwise loop peaked at 1.79 and 6.22 MiB here; one table over
        # all outcomes at once (no blocks) at 5.0 and 24 MiB.
        ins = measure_and_prepare(d, n)
        assert qc.validate_instrument(ins).is_valid and loop_repeatable(ins)
        bound = {8: 1.79, 16: 6.22}[d] * 2 * 2**20
        assert traced_peak(lambda: qc.is_repeatable(ins)) < bound

    def test_traced_peak_does_not_grow_with_outcomes(self):
        four, eight = (traced_peak(lambda n=n: qc.is_repeatable(measure_and_prepare(16, n))) for n in (4, 8))
        assert eight < 1.25 * four


class TestStackedValidation:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d_in=st.integers(1, 5), d_out=st.integers(1, 5),
           n=st.integers(1, 4), max_kraus=st.integers(1, 3), scale=st.sampled_from([0.5, 1.0, 1.2]))
    def test_report_equals_the_loop_form(self, seed, d_in, d_out, n, max_kraus, scale):
        # Non-square, incomplete and trace-increasing instruments included;
        # the residual must agree bit for bit.
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, max_kraus + 1, size=n)
        raw = [gaussian(rng, (d_out, d_in)) for _ in range(counts.sum())]
        top = np.linalg.eigvalsh(sum(g.conj().T @ g for g in raw))[-1]
        raw = [scale * g / np.sqrt(top) * rng.uniform(0.5, 1.5) for g in raw]
        edges = np.concatenate(([0], np.cumsum(counts)))
        ins = qc.Instrument(d_in, d_out, {
            f"r{x}": qc.QuantumOperation(d_in, d_out, tuple(raw[edges[x]:edges[x + 1]])) for x in range(n)
        })
        report, oracle = qc.validate_instrument(ins), loop_validate(ins)
        assert report == oracle
        assert report.completeness_residual.hex() == oracle.completeness_residual.hex()

    @pytest.mark.parametrize("split", ["kraus", "outcomes"])
    def test_effects_add_left_to_right(self, split):
        # Effects 1, h, h, h with h = 2**-53, half an ulp of 1: left to right,
        # each h rounds away and the sum is 1; numpy's sum over four 1 x 1
        # matrices pairs terms up and reads 1 + 2**-52.
        h = 2.0**-27 * (1 + 1j)
        mats = [np.array([[v]]) for v in (1.0, h, h, h)]
        if split == "kraus":
            ins = qc.Instrument(1, 1, {"a": qc.QuantumOperation(1, 1, tuple(mats))})
        else:
            ins = qc.Instrument(1, 1, {f"x{i}": qc.QuantumOperation(1, 1, (m,)) for i, m in enumerate(mats)})
        assert qc.validate_instrument(ins) == loop_validate(ins)
        assert qc.validate_instrument(ins).completeness_residual == 0.0

    def test_valid_elementary_report_equals_the_loop_form(self):
        ins = perturbed_elementary(np.random.default_rng(3), 3, 6, 3, 0.0)
        assert qc.validate_instrument(ins) == loop_validate(ins)
        assert qc.validate_instrument(ins).is_valid


def loop_support_projectors(frame: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Oracle for ``_support_projectors``: each V_x V_x^dag on its own, V_x
    the run of ``ranks[x]`` columns of the frame."""
    return np.stack([v @ v.conj().T for v in np.split(frame, np.cumsum(ranks)[:-1], axis=1)])


class TestStackedSupportProjectors:
    """``_support_projectors`` stacks the products by support size; each must
    be bit for bit the product the per-outcome loop takes."""

    PROFILES = {
        "rank1": lambda d: [1] * d,
        "rank2": lambda d: [2] * (d // 2) + [1] * (d % 2),
        "halves": lambda d: [d // 2, d - d // 2],
        "mixed": lambda d: [1] * (d // 2) + [2] * ((d - d // 2) // 2) + [1] * ((d - d // 2) % 2),
    }

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_bit_equal_to_the_loop(self, d, profile):
        drawn = qc.random_pvm(d, self.PROFILES[profile](d), qc.SeededGenerator(d))
        for prop in (drawn, qc.from_pvm(dict(drawn.projectors)), qc.to_elementary(drawn.base)):
            for tol in (qc.DEFAULT_TOL, qc.DEFAULT_TOL.scaled(0.01)):
                frame, ranks, _ = support_frame(prop, tol)
                assert np.array_equal(instruments._support_projectors(frame, ranks), loop_support_projectors(frame, ranks))

    def test_bit_equal_with_an_empty_and_a_short_support(self):
        # At mat_eq = 0.1: c keeps one of its two columns, and d none.
        u = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))[0]
        diag = [np.diag(entries) for entries in ([1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0],
                                                 [0, 0, 1.0, np.sqrt(0.95), 0], [0, 0, 0, 0, 0.95])]
        tol = qc.Tolerances(mat_eq=0.1)
        prop = qc.from_pvm(dict(zip("abcd", (u @ m @ u.T for m in diag))), tol)
        frame, ranks, _ = support_frame(prop, tol)
        assert ranks.tolist() == [1, 1, 1, 0]
        assert np.array_equal(instruments._support_projectors(frame, ranks), loop_support_projectors(frame, ranks))

    @pytest.mark.parametrize("d", [8, 64])
    def test_deltas_are_the_norms_of_the_differences(self, d):
        # In chunks of at most _CHUNK_CELLS / 2 entries, against one stack.
        mats = rotated_pvm(d, 1, 3e-9, 0)
        prop = qc.from_pvm(mats)
        frame, ranks, _ = support_frame(prop)
        stack = np.stack(list(mats.values()))
        want = np.linalg.norm(stack - loop_support_projectors(frame, ranks), axis=(1, 2))
        for given in (stack, list(prop.projectors.values())):
            assert np.array_equal(instruments._support_deltas(given, frame, ranks), want)


class TestStackedExtraction:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), max_kraus=st.integers(1, 3),
           eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    def test_equals_the_loop_form(self, seed, d, max_kraus, eps):
        ins = perturbed_elementary(np.random.default_rng(seed), seed, d, max_kraus, eps)
        oracle = loop_extract(ins)
        try:
            got = dict(instruments._extract_elementary(ins, qc.DEFAULT_TOL).projectors)
        except (ExtractionError, StructureError) as err:
            got = str(err)
        if isinstance(oracle, str):
            assert got == oracle
        elif isinstance(got, dict):  # else _check_pvm, which the loop leaves out, rejected it
            assert list(got) == list(oracle)
            assert all(np.array_equal(got[label], oracle[label]) for label in oracle)

    def test_projectors_are_built_once(self, monkeypatch):
        # With 8 or more outcomes the Gram bound reads delta_x from the
        # extracted stack itself: the V_x V_x^dag are built once, not again.
        build, calls = instruments._support_projectors, []
        monkeypatch.setattr(instruments, "_support_projectors", lambda *a: calls.append(1) or build(*a))
        prop = qc.to_elementary(qc.random_pvm(8, [1] * 8, qc.SeededGenerator(2)).base)
        assert len(calls) == 1 and len(prop.labels) == 8

    def test_zero_map_is_named_before_a_later_residual(self):
        e = np.eye(3)
        ins = qc.Instrument(3, 3, {
            "a": qc.QuantumOperation(3, 3, (proj(e[0]),)),
            "zero": qc.QuantumOperation(3, 3, (np.zeros((3, 3)),)),
            "bad": qc.QuantumOperation(3, 3, (proj(e[1]) + proj(e[2]),)),
        })
        with pytest.raises(ExtractionError, match="'zero' is the zero map"):
            instruments._extract_elementary(ins, qc.DEFAULT_TOL)

    def test_residual_error_names_the_first_outcome(self):
        # Two outcomes whose effects are projectors but whose maps are not
        # projector maps (a unitary after the projection).
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        ins = qc.Instrument(2, 2, {
            "z0": qc.QuantumOperation(2, 2, (x @ proj(E0),)),
            "z1": qc.QuantumOperation(2, 2, (x @ proj(E1),)),
        })
        with pytest.raises(ExtractionError, match="'z0': projector map does not reproduce"):
            instruments._extract_elementary(ins, qc.DEFAULT_TOL)


class TestReadOnlyProjectors:
    def test_write_raises(self):
        z = qubit_z()
        with pytest.raises(TypeError):
            z.projectors["z0"] = proj(PLUS)
        with pytest.raises(TypeError):
            del z.projectors["z1"]

    @pytest.mark.parametrize("build", [
        qubit_z,
        lambda: qc.ElementaryProperty(z_instrument(), {"z0": proj(E0), "z1": proj(E1)}),
        lambda: qc.to_elementary(z_instrument()),
        lambda: qc.random_pvm(2, [1, 1], qc.SeededGenerator(5)),
    ], ids=["from_pvm", "constructor", "extraction", "random_pvm"])
    def test_every_construction_site(self, build):
        prop = build()
        with pytest.raises(TypeError):
            prop.projectors["extra"] = np.eye(2)

    @pytest.mark.parametrize("round_trip", [
        lambda prop: pickle.loads(pickle.dumps(prop)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trips_keep_projectors_and_verdicts(self, round_trip):
        z, x = qubit_z(), qubit_x()
        z2 = round_trip(z)
        assert list(z2.projectors) == list(z.projectors)
        assert all(np.array_equal(z2.projectors[label], z.projectors[label]) for label in z.labels)
        with pytest.raises(TypeError):
            z2.projectors["z0"] = proj(PLUS)
        assert qc.are_complementary(z2, x).complementary == qc.are_complementary(z, x).complementary is True
        assert qc.pvm_commute(z2, x) == qc.pvm_commute(z, x) is False
        relabelled = qc.from_pvm({"a": proj(E1), "b": proj(E0)})
        assert qc.are_complementary(z2, relabelled).matched_bijection == {"z0": "b", "z1": "a"}

    def test_from_pvm_takes_a_property_s_projectors(self):
        z = qubit_z()
        assert qc.from_pvm(z.projectors).rank_profile() == z.rank_profile()


SOURCES = {
    "constructor": lambda: qc.ElementaryProperty(z_instrument(), {"z0": proj(E0), "z1": proj(E1)}),
    "from_pvm": lambda: qc.from_pvm({"a": proj(PLUS), "b": proj([1.0, -1.0])}),
    "to_elementary": lambda: qc.to_elementary(qc.random_pvm(4, [2, 1, 1], qc.SeededGenerator(3)).base),
    "random_pvm": lambda: qc.random_pvm(5, [2, 3], qc.SeededGenerator(8)),
}
ROUND_TRIPS = {"pickle": lambda prop: pickle.loads(pickle.dumps(prop)), "deepcopy": copy.deepcopy}


def drifted_family() -> dict:
    """At mat_eq = 0.15 an accepted PVM whose outcome-index sum puts an
    eigenvalue at 4.52: outcome 4's run misses a support direction, and the
    property reads each effect's eigh."""
    e = np.eye(7)
    return {**{f"p{i}": proj(e[i]) for i in range(4)}, "p4": np.diag([0, 0, 0, 0, 1.0, 1.13, 0]), "p5": proj(e[6])}


class TestHeldSpectrum:
    # Every construction path sets the support frame; no step computes it later.
    @pytest.mark.parametrize("build", [
        *SOURCES.values(), *(lambda trip=trip: trip(qubit_z()) for trip in ROUND_TRIPS.values()),
        lambda: qc.from_pvm(drifted_family(), qc.Tolerances(mat_eq=0.15)),
    ], ids=[*SOURCES, *ROUND_TRIPS, "drift-fallback"])
    def test_every_construction_path_holds_its_spectrum(self, build):
        # One d x m frame U, no (n, d, d) eigenvector stack, with each column's
        # owner in outcome order and its eigenvalue w >= 1/2. At every cut
        # up to prob_eq = 0.49, the supports are each effect's eigh's.
        assert not hasattr(qc.ElementaryProperty, "_spectrum")
        prop = build()
        u, owner, w = vars(prop)["_spectrum"]
        assert u.shape == (prop.dim, len(owner)) and w.shape == owner.shape
        assert np.array_equal(np.sort(owner), owner) and (w >= 0.5).all()
        mats = dict(prop.projectors)
        for tol in (qc.DEFAULT_TOL, qc.Tolerances(prob_eq=0.49)):
            held, want = held_supports(prop, tol), effect_supports(mats, tol)
            assert [h.shape[1] for h in held] == [o.shape[1] for o in want]
            assert max(max(largest_sine(h, o), largest_sine(o, h)) for h, o in zip(held, want)) <= 1e-12
        # delta, where held, is one entry per outcome over the whole frame.
        deltas = vars(prop)["_deltas"]
        if deltas is not None:
            ranks = np.bincount(owner, minlength=len(mats))
            assert np.array_equal(deltas, instruments._support_deltas(np.stack(list(mats.values())), u, ranks))

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
    @pytest.mark.parametrize("build", SOURCES.values(), ids=list(SOURCES))
    def test_round_trips_carry_the_spectrum_bit_for_bit(self, build, trip):
        # The frame and the delta of the PVM check travel with the
        # property; the frame stays one d x m array.
        prop = build()
        copied = trip(prop)
        assert [a.tobytes() for a in vars(copied)["_spectrum"]] == [a.tobytes() for a in prop._spectrum]
        assert copied._spectrum[0].shape == prop._spectrum[0].shape
        assert (copied._deltas is None) == (prop._deltas is None)
        if prop._deltas is not None:
            assert copied._deltas.tobytes() == prop._deltas.tobytes()

    def test_deltas_are_held_for_the_whole_frame_or_not_at_all(self):
        # from_pvm at 8 outcomes holds the delta its check read when the cut
        # kept every column of the frame. Outcome p0 keeps one direction at
        # 1 - 4e-9, inside the support at prob_eq = 1e-7, outside at 1e-9:
        # there the check cuts a column and holds no delta.
        u = haar_unitary(16, np.random.default_rng(5))
        mats = {f"p{x}": u[:, 2 * x:2 * x + 2] @ u[:, 2 * x:2 * x + 2].conj().T for x in range(8)}
        mats["p0"] = (u[:, :2] * [1.0, 1.0 - 4e-9]) @ u[:, :2].conj().T
        held = qc.from_pvm(mats)._deltas
        assert held.shape == (8,) and held[0] > 0.0
        assert qc.from_pvm(mats, qc.Tolerances(prob_eq=1e-9))._deltas is None
        # Extraction and the draw hold their frames' own products: delta 0.
        drawn = qc.random_pvm(16, [2] * 8, qc.SeededGenerator(1))
        for prop in (drawn, qc.to_elementary(drawn.base)):
            assert np.array_equal(prop._deltas, np.zeros(8))

    def test_a_shared_frame_pickles_once(self):
        # Rank-1 at d = 64: the projectors and the base's Kraus matrices (the
        # same arrays) take 4 MiB; the one frame 64 KiB more. An extracted
        # property's base holds its own Kraus matrices, 4 MiB more, and its
        # frame 64 KiB, not 64 eigenvector matrices. The draw builds its
        # projectors once, with no second copy of the stack.
        gen = qc.SeededGenerator(0)
        drawn = qc.random_pvm(64, [1] * 64, gen)
        for prop, mib in ((drawn, 4.2), (qc.from_pvm(drawn.projectors), 4.2), (qc.to_elementary(drawn.base), 8.2)):
            assert prop._spectrum[0].shape == (64, 64)
            assert len(pickle.dumps(prop)) <= mib * 2**20
        assert traced_peak(lambda: qc.random_pvm(64, [1] * 64, gen)) <= 5 * 2**20


# Values that hold arrays, each built twice from the same inputs: separately
# built values hold equal arrays in distinct objects. Leaves compare by
# identity; the containers compare their fields, which are leaves.
LEAVES = {
    "QuantumOperation": lambda: qc.projector_operation(proj(E0)),
    "ChoiMatrix": lambda: qc.choi(qc.projector_operation(proj(E0))),
    "DensityState": lambda: qc.basis_state(2, 0),
    "ElementaryProperty": qubit_z,
    "ClassicalOperation": lambda: qc.fine_grained_instrument(2).outcomes["x0"],
    "ClassicalState": lambda: qc.point_mass(2, 0),
}
CONTAINERS = {
    "Instrument": z_instrument,
    "ExclusionWitness": lambda: qc.self_witness(z_instrument()),
    "ComplementarityReport": lambda: qc.are_complementary(qubit_z(), qubit_x()),
}


@pytest.mark.parametrize("build", [*LEAVES.values(), *CONTAINERS.values()],
                         ids=[*LEAVES, *CONTAINERS])
def test_equality_of_array_holding_values_is_a_bool(build):
    a, b = build(), build()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True


@pytest.mark.parametrize("build", LEAVES.values(), ids=list(LEAVES))
def test_array_holding_leaves_hash_by_identity(build):
    a = build()
    assert hash(a) == hash(a) and len({a, build()}) == 2
