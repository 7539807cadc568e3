import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcomplement as qc
from qcomplement import DegreeKind
from qcomplement.complementarity import _degrees
from qcomplement.errors import StructureError
from helpers import (
    SubspaceRelation,
    loop_degree,
    proj,
    qubit_x,
    qubit_z,
    qutrit_basis_proj,
    qutrit_fine,
    qutrit_pm2,
    subspace_relation,
)

ENTROPY_THREE_QUARTERS = 0.8112781244591328  # -0.75*log2(0.75) - 0.25*log2(0.25)


def relabelled(prop: qc.ElementaryProperty, mapping: dict[str, str]) -> qc.ElementaryProperty:
    return qc.from_pvm({mapping[label]: p for label, p in prop.projectors.items()})


class TestAreComplementary:
    def test_z_vs_x(self):
        report = qc.are_complementary(qubit_z(), qubit_x())
        assert report.complementary
        assert report.matched_bijection is None
        assert report.witness is not None

    def test_z_vs_relabelled_z(self):
        other = relabelled(qubit_z(), {"z0": "one", "z1": "zero"})
        report = qc.are_complementary(qubit_z(), other)
        assert not report.complementary
        assert report.matched_bijection == {"z0": "one", "z1": "zero"}
        assert report.witness is None

    def test_qutrit_fine_pair(self):
        report = qc.are_complementary(qutrit_fine(), qutrit_pm2())
        assert report.complementary

    def test_witness_fails_other_property(self):
        p, q = qubit_z(), qubit_x()
        report = qc.are_complementary(p, q)
        witness = report.witness
        verifies_p = any(
            qc.is_verifier(op, witness) for op in p.base.outcomes.values()
        )
        verifies_q = any(
            qc.is_verifier(op, witness) for op in q.base.outcomes.values()
        )
        assert verifies_p != verifies_q

    def test_witness_when_one_side_is_refined(self):
        # Every verifier of the fine property verifies the coarse one, so the
        # witness must come from the coarse side.
        coarse = qc.from_pvm({"low": qutrit_basis_proj(0) + qutrit_basis_proj(1),
                              "two": qutrit_basis_proj(2)})
        report = qc.are_complementary(qutrit_fine(), coarse)
        assert report.complementary
        witness = report.witness
        verifies_coarse = any(qc.is_verifier(op, witness) for op in coarse.base.outcomes.values())
        verifies_fine = any(qc.is_verifier(op, witness) for op in qutrit_fine().base.outcomes.values())
        assert verifies_coarse and not verifies_fine

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            qc.are_complementary(qubit_z(), qutrit_fine())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_symmetry(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
        q = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(1))
        ab = qc.are_complementary(p, q)
        ba = qc.are_complementary(q, p)
        assert ab.complementary == ba.complementary
        assert (ab.matched_bijection is None) == (ba.matched_bijection is None)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_self_comparison(self, seed):
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
        report = qc.are_complementary(p, p)
        assert not report.complementary
        assert report.matched_bijection == {label: label for label in p.labels}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_qubit_rank_one_pairs(self, seed):
        gen = qc.SeededGenerator(seed)
        p = qc.random_pvm(2, [1, 1], gen.child(0))
        q = qc.random_pvm(2, [1, 1], gen.child(1))
        assert qc.are_complementary(p, q).complementary

    @staticmethod
    def _rotated_pair(theta):
        c, s = np.cos(theta), np.sin(theta)
        p = qc.from_pvm({"a": np.diag([1.0, 0.0]), "b": np.diag([0.0, 1.0])})
        q = qc.from_pvm({"a": proj([c, s]), "b": proj([-s, c])})
        return p, q

    def test_tolerance_boundary_behaviour(self):
        # Below the subspace resolution the pair counts as equal; between the
        # subspace and probability resolutions it is complementary but no
        # state fails verification measurably, so no witness is claimed.
        near, boundary, apart = 1e-5, 2e-4, 5e-4
        assert not qc.are_complementary(*self._rotated_pair(near)).complementary

        report = qc.are_complementary(*self._rotated_pair(boundary))
        assert report.complementary and report.witness is None

        p, q = self._rotated_pair(apart)
        report = qc.are_complementary(p, q)
        assert report.complementary and report.witness is not None
        fails_one = not all(
            any(qc.is_verifier(op, report.witness) for op in prop.base.outcomes.values())
            for prop in (p, q)
        )
        assert fails_one

    def test_constructor_dict_order_is_not_the_label_order(self):
        # Outcome order is the base instrument's, whatever the dict's order.
        e = np.eye(3)
        base = qc.from_pvm({"lo": proj(e[0]) + proj(e[1]), "hi": proj(e[2])})
        swapped = qc.ElementaryProperty(base.base, {"hi": proj(e[2]), "lo": proj(e[0]) + proj(e[1])})
        assert list(swapped.rank_profile().items()) == [("lo", 2), ("hi", 1)]
        # The constructor's PVM check leaves the spectrum it computed behind.
        assert "_spectrum" in vars(swapped)
        report = qc.classify_relation(base, swapped)
        assert report.matched_bijection == {"lo": "lo", "hi": "hi"}
        assert report.degree_table["lo"].probabilities == {"lo": 1.0, "hi": 0.0}

    def test_each_spectrum_is_computed_once_for_any_tolerance(self, monkeypatch):
        # Rotated by 3e-4 rad, the supports differ at mat_eq = 1e-8 but are
        # equal at ten times that, so the two tolerances give two verdicts.
        theta = 3e-4
        def build():
            return qubit_z(), qc.from_pvm({"a": proj([np.cos(theta), np.sin(theta)]),
                                           "b": proj([-np.sin(theta), np.cos(theta)])})
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        # Construction computes each spectrum, the three decisions none.
        p, q = build()
        assert len(calls) == 2
        assert qc.classify_relation(p, q).complementary
        assert not qc.are_compatible_elementary(p, q)
        scaled = qc.are_complementary(p, q, qc.DEFAULT_TOL.scaled(10))
        assert len(calls) == 2
        fresh = qc.are_complementary(*build(), qc.DEFAULT_TOL.scaled(10))
        assert scaled == fresh
        assert not scaled.complementary and scaled.matched_bijection == {"z0": "a", "z1": "b"}

    @pytest.mark.parametrize("decide", [qc.are_complementary, qc.classify_relation])
    def test_outcome_without_verifier_raises(self, decide):
        # mat_eq = 0.1 admits this family as a PVM, but outcome b's effect tops
        # out at 0.9025 < 1 - prob_eq: no state verifies it.
        tol = qc.Tolerances(mat_eq=0.1)
        p = qc.from_pvm({"a": np.diag([1.0, 0.05]), "b": np.diag([0.0, 0.95])}, tol)
        for pair in ((p, qubit_z()), (qubit_z(), p), (p, p)):
            with pytest.raises(StructureError, match="'b' .*admits no verifier"):
                decide(*pair, tol)


class TestDegreeForVerifier:
    def test_z_state_vs_x_is_strong(self):
        verdict = qc.degree_for_verifier(qc.basis_state(2, 0), qubit_x())
        assert verdict.kind is DegreeKind.STRONG
        assert all(abs(v - 0.5) < 1e-12 for v in verdict.probabilities.values())
        assert abs(verdict.entropy_bits - 1.0) < 1e-12

    def test_qutrit_weak(self):
        verdict = qc.degree_for_verifier(qc.basis_state(3, 0), qutrit_pm2())
        assert verdict.kind is DegreeKind.WEAK
        probs = verdict.probabilities
        assert abs(probs["p"] - 0.5) < 1e-12
        assert abs(probs["m"] - 0.5) < 1e-12
        assert abs(probs["t2"]) < 1e-12

    def test_rotated_basis_mild(self):
        theta = np.pi / 6
        v0 = np.array([np.cos(theta), np.sin(theta)])
        v1 = np.array([-np.sin(theta), np.cos(theta)])
        rotated = qc.from_pvm({"r0": proj(v0), "r1": proj(v1)})
        verdict = qc.degree_for_verifier(qc.basis_state(2, 0), rotated)
        assert verdict.kind is DegreeKind.MILD
        assert abs(verdict.probabilities["r0"] - 0.75) < 1e-12
        assert abs(verdict.probabilities["r1"] - 0.25) < 1e-12
        assert abs(verdict.entropy_bits - ENTROPY_THREE_QUARTERS) < 1e-9

    def test_same_property_not_complementary_here(self):
        verdict = qc.degree_for_verifier(qc.basis_state(2, 0), qubit_z())
        assert verdict.kind is DegreeKind.NOT_COMPLEMENTARY_HERE
        assert abs(verdict.probabilities["z0"] - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            qc.degree_for_verifier(qc.basis_state(3, 0), qubit_z())

    def test_probabilities_short_of_one_by_more_than_prob_eq(self):
        # A valid state and a PVM that from_pvm accepts give probabilities
        # summing to 1 - 1.04e-7; the entropy of the package's own clamped
        # probabilities is not re-checked against prob_eq.
        q = qc.from_pvm({"a": np.diag([1 - 5e-9, 0.0]), "b": np.diag([0.0, 1 - 5e-9])})
        state = qc.DensityState((2,), np.diag([1 - 0.99e-7, 0.0]))
        verdict = qc.degree_for_verifier(state, q)
        p = (1 - 5e-9) * (1 - 0.99e-7)
        assert verdict.kind is DegreeKind.WEAK
        assert verdict.probabilities == {"a": pytest.approx(p, abs=1e-15), "b": 0.0}
        assert verdict.entropy_bits == pytest.approx(-p * math.log2(p), rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvector_probabilities_stay_in_unit_interval(self, seed):
        # Raw traces on an eigenvector of Q_x0 land an ulp outside [0, 1].
        q = qc.random_pvm(3, [1, 1, 1], qc.SeededGenerator(seed))
        _, vecs = np.linalg.eigh(q.projectors["x0"])
        verdict = qc.degree_for_verifier(qc.pure_state(vecs[:, -1]), q)
        assert verdict.kind is DegreeKind.NOT_COMPLEMENTARY_HERE
        for p in verdict.probabilities.values():
            assert 0.0 <= p <= 1.0 and math.copysign(1.0, p) > 0

    def test_composite_verifier_uses_first_factor(self):
        ancilla_state = qc.pure_state(np.kron([1.0, 0.0], [1.0, 1.0]), dims=(2, 2))
        verdict = qc.degree_for_verifier(ancilla_state, qubit_x())
        assert verdict.kind is DegreeKind.STRONG
        assert all(abs(p - 0.5) < 1e-12 for p in verdict.probabilities.values())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), phase=st.floats(0.0, 2 * np.pi))
    def test_probabilities_invariant_under_kraus_phase(self, seed, phase):
        gen = qc.SeededGenerator(seed)
        prop = qc.random_pvm(3, [1, 1, 1], gen.child(0))
        phased = qc.instrument_from_operations(
            [
                (label, qc.QuantumOperation(3, 3, (np.exp(1j * phase) * op.kraus[0],)))
                for label, op in prop.base.outcomes.items()
            ]
        )
        re_extracted = qc.to_elementary(phased)
        state = qc.random_density(3, 2, gen.child(1))
        a = qc.degree_for_verifier(state, prop).probabilities
        b = qc.degree_for_verifier(state, re_extracted).probabilities
        assert all(abs(a[k] - b[k]) < 1e-9 for k in a)


class TestOutcomeEntropy:
    def test_uniform_bit(self):
        assert qc.outcome_entropy([0.5, 0.5]) == 1.0

    def test_deterministic(self):
        assert qc.outcome_entropy([1.0, 0.0]) == 0.0

    def test_three_quarters(self):
        assert abs(qc.outcome_entropy([0.75, 0.25]) - ENTROPY_THREE_QUARTERS) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(StructureError):
            qc.outcome_entropy([1.2, -0.2])

    @pytest.mark.parametrize("probs", [[1 + 5e-8], [-1e-9, 1 + 1e-9]])
    def test_certain_outcome_past_one_within_tolerance_has_zero_entropy(self, probs):
        # Entries are clamped to [0, 1], so roundoff past 1 is no negative entropy.
        assert qc.outcome_entropy(probs) == 0.0

    def test_rejects_unnormalised(self):
        with pytest.raises(StructureError):
            qc.outcome_entropy([0.5, 0.4])

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [1.0, np.nan], [np.nan]])
    def test_rejects_nan(self, probs):
        with pytest.raises(StructureError):
            qc.outcome_entropy(probs)


class TestEntropyVerifierLink:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_zero_entropy_iff_verifier(self, seed):
        # A state verifies some outcome of a property exactly when the outcome
        # distribution it induces is deterministic, i.e. has zero entropy.
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        prop = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(2, d + 1)), rng), gen.child(0))

        label = prop.labels[int(rng.integers(0, len(prop.labels)))]
        projector = prop.projectors[label]
        sigma = qc.random_density(d, d, gen.child(1)).matrix
        inside = projector @ sigma @ projector
        verifier = qc.DensityState((d,), inside / np.trace(inside).real)
        verdict = qc.degree_for_verifier(verifier, prop)
        assert verdict.kind is DegreeKind.NOT_COMPLEMENTARY_HERE
        assert verdict.entropy_bits <= 1e-6

        spread = qc.DensityState((d,), 0.6 * verifier.matrix + 0.4 * np.eye(d) / d)
        spread_verdict = qc.degree_for_verifier(spread, prop)
        verifies = any(p >= 1.0 - 1e-7 for p in spread_verdict.probabilities.values())
        assert not verifies
        assert spread_verdict.entropy_bits > 1e-6


class TestClassifyRelation:
    def test_z_vs_x_all_strong(self):
        report = qc.classify_relation(qubit_z(), qubit_x())
        assert report.complementary
        assert all(v.kind is DegreeKind.STRONG for v in report.degree_table.values())
        assert all(v.kind is DegreeKind.STRONG for v in report.reverse_degree_table.values())

    def test_z_vs_z(self):
        report = qc.classify_relation(qubit_z(), qubit_z())
        assert not report.complementary
        assert all(
            v.kind is DegreeKind.NOT_COMPLEMENTARY_HERE for v in report.degree_table.values()
        )

    def test_qutrit_fine_vs_partial_coarse(self):
        coarse = qc.from_pvm({"low": qutrit_basis_proj(0) + qutrit_basis_proj(1),
                              "two": qutrit_basis_proj(2)})
        report = qc.classify_relation(qutrit_fine(), coarse)
        assert report.complementary
        verdict = report.reverse_degree_table["low"]
        assert verdict.kind is DegreeKind.WEAK
        assert abs(verdict.probabilities["f0"] - 0.5) < 1e-12
        assert abs(verdict.probabilities["f1"] - 0.5) < 1e-12
        assert abs(verdict.probabilities["f2"]) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_strong_triple_equivalence(self, seed, d):
        # Fourier-rotated basis pairs give exactly uniform overlaps.
        gen = qc.SeededGenerator(seed)
        u = qc.haar_unitary(d, gen)
        fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        p = qc.from_pvm({f"a{i}": np.outer(u[:, i], u[:, i].conj()) for i in range(d)})
        rotated = u @ fourier
        q = qc.from_pvm({f"b{i}": np.outer(rotated[:, i], rotated[:, i].conj()) for i in range(d)})
        report = qc.classify_relation(p, q)
        for verdict in list(report.degree_table.values()) + list(report.reverse_degree_table.values()):
            is_strong = verdict.kind is DegreeKind.STRONG
            entropy_max = abs(verdict.entropy_bits - math.log2(d)) <= 1e-6
            uniform = all(abs(v - 1.0 / d) <= 1e-7 for v in verdict.probabilities.values())
            assert is_strong and entropy_max and uniform

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6), eps=st.floats(2e-9, 5e-9))
    def test_weight_below_prob_eq_adds_no_support(self, seed, d, eps):
        # Weight eps of a unit vector v of P_b's range moved onto P_a keeps the
        # sum exact and passes from_pvm; v belongs to b's verifier support alone.
        gen = qc.SeededGenerator(seed)
        rng = gen.rng
        base = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(2, d + 1)), rng), gen.child(0))
        mats = list(base.projectors.values())
        a, b = rng.choice(len(mats), size=2, replace=False)
        v = mats[b] @ (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        shift = eps * np.outer(v, v.conj()) / np.vdot(v, v).real
        mats[a], mats[b] = mats[a] + shift, mats[b] - shift
        p = qc.from_pvm(dict(zip(base.labels, mats)))
        report = qc.classify_relation(p, p)
        assert report.matched_bijection == {x: x for x in p.labels}


def _reference_relation(p, q):
    """Bijection and both degree tables rebuilt from public primitives: greedy
    EQUAL matching of range subspaces, and ``degree_for_verifier`` on the
    maximally mixed state of each range."""
    supports_q = {y: qc.range_subspace(m) for y, m in q.projectors.items()}
    unmatched, mapping = list(supports_q), {}
    for x, m in p.projectors.items():
        support = qc.range_subspace(m)
        y = next((y for y in unmatched
                  if subspace_relation(support, supports_q[y]) is SubspaceRelation.EQUAL), None)
        if y is None:
            mapping = None
            break
        mapping[x] = y
        unmatched.remove(y)
    if unmatched:
        mapping = None

    def table(a, b):
        return {x: qc.degree_for_verifier(qc.DensityState((a.dim,), m / np.trace(m).real), b)
                for x, m in a.projectors.items()}

    return mapping, table(p, q), table(q, p)


def _random_pair(kind, seed):
    gen = qc.SeededGenerator(seed)
    rng = gen.rng
    d = int(rng.integers(2, 6))
    p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
    if kind == "self":
        return p, p
    if kind == "relabelled":
        return p, qc.from_pvm({f"r{x}": m for x, m in reversed(p.projectors.items())})
    return p, qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(1))


def _rotated_pair(rank, theta):
    # Rank 1: a qubit basis rotated by theta. Rank 2: two planes of C^4 whose
    # shared boundary vectors are rotated by theta.
    c, s = np.cos(theta), np.sin(theta)
    if rank == 1:
        return TestAreComplementary._rotated_pair(theta)
    e = np.eye(4)
    p = qc.from_pvm({"lo": proj(e[0]) + proj(e[1]), "hi": proj(e[2]) + proj(e[3])})
    q = qc.from_pvm({"lo": proj(e[0]) + proj(c * e[1] + s * e[2]),
                     "hi": proj(-s * e[1] + c * e[2]) + proj(e[3])})
    return p, q


ORACLE_PAIRS = (
    [pytest.param(_random_pair, kind, seed, id=f"{kind}-{seed}")
     for kind in ("self", "relabelled", "independent") for seed in range(10)]
    + [pytest.param(_rotated_pair, rank, theta, id=f"rank{rank}-{theta:.1e}")
       for rank in (1, 2) for theta in np.geomspace(1e-6, 1e-3, 13)]
)


@pytest.mark.parametrize("build, a, b", ORACLE_PAIRS)
def test_overlap_pass_matches_reference(build, a, b):
    p, q = build(a, b)
    for first, second in ((p, q), (q, p)):
        mapping, table, reverse = _reference_relation(first, second)
        report = qc.classify_relation(first, second)
        assert report.complementary == (mapping is None)
        assert report.matched_bijection == mapping
        verdict = qc.are_complementary(first, second)
        assert (verdict.complementary, verdict.matched_bijection) == (report.complementary, mapping)
        assert (verdict.witness is None) == (report.witness is None)
        if report.witness is not None:
            assert np.array_equal(verdict.witness.matrix, report.witness.matrix)
            verifies = [any(qc.is_verifier(op, report.witness) for op in prop.base.outcomes.values())
                        for prop in (first, second)]
            assert verifies[0] != verifies[1]
        for got, want in ((report.degree_table, table), (report.reverse_degree_table, reverse)):
            assert list(got) == list(want)
            for label, expected in want.items():
                assert got[label].kind is expected.kind
                assert list(got[label].probabilities) == list(expected.probabilities)
                for key, value in got[label].probabilities.items():
                    assert abs(value - expected.probabilities[key]) <= 1e-12
                    assert math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("build, a, b", ORACLE_PAIRS)
def test_degree_tables_equal_the_per_row_oracle(build, a, b):
    # A reported row is already clamped, and clamping moves no row's kind, so
    # the oracle re-derives every verdict exactly, entropy bits included.
    report = qc.classify_relation(*build(a, b))
    for table in (report.degree_table, report.reverse_degree_table):
        for verdict in table.values():
            assert loop_degree(verdict.probabilities) == verdict


def boundary_rows(n: int, eps: float) -> np.ndarray:
    """Rows of n entries at and one ulp around each degree boundary: 1 - eps,
    eps, 1/n +- eps, and the clamp edges 0 and 1."""
    marks = [1.0 - eps, eps, 1.0 / n + eps, 1.0 / n - eps, 1.0 / n, 0.0, 1.0, -1e-17, 1.0 + 1e-16]
    # A set keeps one of 0.0 == -0.0, so -0.0 goes in after it.
    values = sorted({v for m in marks for v in (np.nextafter(m, -1.0), m, np.nextafter(m, 2.0))}) + [-0.0]
    rng = np.random.default_rng(n)
    rows = [np.full(n, v) for v in values]
    # One boundary value in one place, the rest spread over what is left.
    for v in values:
        for place in range(n):
            row = np.full(n, (1.0 - v) / max(n - 1, 1))
            row[place] = v
            rows.append(row)
    rows += list(rng.dirichlet(np.ones(n), size=20))
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("tol", [qc.DEFAULT_TOL, qc.Tolerances(prob_eq=0.25)], ids=["default", "coarse"])
def test_degree_rows_equal_the_per_row_oracle_at_the_boundaries(n, tol):
    rows = boundary_rows(n, tol.prob_eq)
    labels = [f"y{i}" for i in range(n)]
    got = _degrees(rows, labels, tol)
    want = [loop_degree(dict(zip(labels, row.tolist())), tol) for row in rows]
    assert got == want
    for verdict in got:
        assert all(math.copysign(1.0, p) == 1.0 for p in verdict.probabilities.values())
    if n > 1 and tol is qc.DEFAULT_TOL:
        assert {v.kind for v in got} == set(DegreeKind)
