import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement.errors import PreconditionError, StructureError
from helpers import E0, E1, proj, qutrit_fine, z_instrument


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
        assert np.allclose(coarse.total_effect(), fine.total_effect())


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
