"""Acceptance suite: one test per shipped criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np

import qcomplement as qc
from qcomplement import DegreeKind
from qcomplement.errors import PreconditionError
from helpers import (
    SubspaceRelation,
    contains_vector,
    qubit_x,
    qubit_z,
    qutrit_basis_proj,
    qutrit_fine,
    qutrit_pm2,
    subspace_relation,
)


def verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_mutually_unbiased_pair():
    start = time.perf_counter()
    report = qc.classify_relation(qubit_z(), qubit_x())
    all_strong = all(
        v.kind is DegreeKind.STRONG
        for v in list(report.degree_table.values()) + list(report.reverse_degree_table.values())
    )
    probs_ok = all(
        abs(p - 0.5) <= 1e-7
        for v in list(report.degree_table.values()) + list(report.reverse_degree_table.values())
        for p in v.probabilities.values()
    )
    elapsed = time.perf_counter() - start
    ok = report.complementary and all_strong and probs_ok and elapsed < 1.0
    verdict(1, ok, f"Z vs X complementary with strong table in {elapsed:.3f}s")


def test_criterion_02_qutrit_coarse_graining_caveat():
    start = time.perf_counter()
    fine_z = qutrit_fine().base
    fine_pm = qutrit_pm2().base
    merge = qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)})
    merge_pm = qc.OutcomePartition({"low": ("p", "m"), "two": ("t2",)})
    coarse_z = qc.coarse_grain(fine_z, merge)
    coarse_pm = qc.coarse_grain(fine_pm, merge_pm)

    supports_match = True
    for label in ("low", "two"):
        sub_z = qc.verifier_support(coarse_z[label])
        sub_pm = qc.verifier_support(coarse_pm[label])
        supports_match &= (
            subspace_relation(sub_z, sub_pm) is SubspaceRelation.EQUAL
        )
    low = qc.verifier_support(coarse_z["low"])
    two = qc.verifier_support(coarse_z["two"])
    explicit = (
        low.shape[1] == 2
        and contains_vector(low, [1, 0, 0])
        and contains_vector(low, [0, 1, 0])
        and two.shape[1] == 1
        and contains_vector(two, [0, 0, 1])
    )

    rejected = 0
    for coarse in (coarse_z, coarse_pm):
        try:
            qc.to_elementary(coarse)
        except PreconditionError as err:
            rejected += "atomic" in str(err)
    elapsed = time.perf_counter() - start
    ok = supports_match and explicit and rejected == 2 and elapsed < 1.0
    verdict(2, ok, f"coarse pair shares verifier supports, both rejected as non-atomic ({elapsed:.3f}s)")


def test_criterion_03_extraction_round_trip():
    start = time.perf_counter()
    root = qc.SeededGenerator(2024)
    worst = 0.0
    for trial in range(1000):
        gen = root.child(trial)
        rng = gen.rng
        d = int(rng.integers(2, 6))
        ranks = qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng)
        prop = qc.random_pvm(d, ranks, gen.child(0))
        phased = qc.instrument_from_operations(
            [
                (label, qc.QuantumOperation(d, d, (np.exp(1j * rng.uniform(0, 2 * np.pi)) * op.kraus[0],)))
                for label, op in prop.base.outcomes.items()
            ]
        )
        assert qc.is_repeatable(phased)
        assert all(qc.is_atomic(op) for op in phased.outcomes.values())
        recovered = qc.to_elementary(phased)
        for label in prop.labels:
            worst = max(
                worst,
                float(np.linalg.norm(recovered.projectors[label] - prop.projectors[label])),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    verdict(3, ok, f"1000 extractions, worst projector error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_04_theorem_equivalence():
    start = time.perf_counter()
    root = qc.SeededGenerator(404)
    mismatches = 0
    for trial in range(500):
        gen = root.child(trial)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
        q = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(1))
        if qc.are_compatible_elementary(p, q) != (not qc.are_complementary(p, q).complementary):
            mismatches += 1

    bijection_failures = 0
    for trial in range(100):
        gen = root.child(10_000 + trial)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        p = qc.random_pvm(d, qc.random_rank_profile(d, int(rng.integers(1, d + 1)), rng), gen.child(0))
        order = list(rng.permutation(len(p.labels)))
        relabel = {label: f"perm{order[i]}" for i, label in enumerate(p.labels)}
        q = qc.from_pvm({relabel[label]: mat for label, mat in p.projectors.items()})
        report = qc.are_complementary(p, q)
        if report.complementary or report.matched_bijection != relabel:
            bijection_failures += 1
        if not qc.are_compatible_elementary(p, q):
            bijection_failures += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and bijection_failures == 0 and elapsed < 120.0
    verdict(4, ok, f"500 pairs agree with the theorem, 100 permuted pairs matched ({elapsed:.1f}s)")


def test_criterion_05_fixed_point_characterisation():
    root = qc.SeededGenerator(505)
    failures = 0
    worst_move = 0.0
    for trial in range(500):
        gen = root.child(trial)
        rng = gen.rng
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d))
        u = qc.haar_unitary(d, gen.child(0))
        inside_p = u[:, :rank] @ u[:, :rank].conj().T
        outside_p = u[:, rank:] @ u[:, rank:].conj().T
        op = qc.projector_operation(inside_p)

        sigma = qc.random_density(d, d, gen.child(1)).matrix
        compressed = inside_p @ sigma @ inside_p
        supported = qc.DensityState((d,), compressed / np.trace(compressed).real)
        from qcomplement.operations import apply_unnormalized

        move = float(np.linalg.norm(apply_unnormalized(op, supported) - supported.matrix))
        worst_move = max(worst_move, move)
        if not (qc.is_verifier(op, supported) and qc.is_strong_verifier(op, supported) and move <= 1e-9):
            failures += 1

        tau = qc.random_density(d, d, gen.child(2)).matrix
        leak = outside_p @ tau @ outside_p
        leak = leak / np.trace(leak).real
        unsupported = qc.DensityState((d,), 0.7 * supported.matrix + 0.3 * leak)
        if qc.is_verifier(op, unsupported) or qc.is_strong_verifier(op, unsupported):
            failures += 1
    ok = failures == 0
    verdict(5, ok, f"500+500 states, worst fixed-point drift {worst_move:.2e}, {failures} failures")


def test_criterion_06_inclusion_harnesses():
    quantum = qc.verifier_inclusion_harness(seed=42, dim=3, trials=230)
    classical = qc.classical_theorem_harness(seed=7, size=4, trials=230)
    ok = (
        quantum.filtered_trials >= 200
        and classical.filtered_trials >= 200
        and quantum.violations == 0
        and classical.violations == 0
    )
    verdict(
        6,
        ok,
        "verifier inclusion held on "
        f"{quantum.filtered_trials} quantum / {classical.filtered_trials} classical filtered trials",
    )


def _perturbed_self_witness(ins: qc.Instrument, epsilon: float) -> qc.ExclusionWitness:
    w = qc.self_witness(ins)
    label = w.c.labels[0]
    op = w.c[label]
    kraus = [k.copy() for k in op.kraus]
    kraus[0][0, 0] += epsilon
    outcomes = dict(w.c.outcomes)
    outcomes[label] = qc.QuantumOperation(op.dim_in, op.dim_out, tuple(kraus))
    return qc.ExclusionWitness(
        c=qc.Instrument(w.c.dim_in, w.c.dim_out, outcomes),
        dims_out=w.dims_out,
        partition=w.partition,
        post=w.post,
    )


def test_criterion_07_witness_verification():
    root = qc.SeededGenerator(707)
    instruments = []
    worst = 0.0
    for trial in range(100):
        gen = root.child(trial)
        rng = gen.rng
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        ins = qc.random_instrument(d, d, [f"o{i}" for i in range(n)], gen.child(0))
        instruments.append(ins)
        report = qc.verify_witness(ins, ins, qc.self_witness(ins))
        assert report.valid
        worst = max(worst, report.max_residual)

    perturb_ok = True
    for ins in [qubit_z().base] + instruments[:10]:
        report = qc.verify_witness(ins, ins, _perturbed_self_witness(ins, 1e-3))
        perturb_ok &= (not report.valid) and report.max_residual > 1e-4

    scaling_ok = True
    for ins in (qubit_z().base, instruments[0]):
        ratios = []
        for exponent in np.linspace(-4, -2, 9):
            eps = 10.0 ** exponent
            report = qc.verify_witness(ins, ins, _perturbed_self_witness(ins, eps))
            ratios.append(report.max_residual / eps)
        scaling_ok &= max(ratios) / min(ratios) <= 3.0

    ok = worst <= 1e-10 and perturb_ok and scaling_ok
    verdict(7, ok, f"100 self-witnesses valid (max residual {worst:.1e}), perturbations detected")


def test_criterion_08_classical_bit_remark():
    prepare_zero = qc.ClassicalOperation(2, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))
    sure = qc.classical_verifier_checks(prepare_zero, qc.point_mass(2, 0))
    mixed = qc.classical_verifier_checks(prepare_zero, qc.ClassicalState(2, [0.5, 0.5]))
    ok = sure.is_verifier and sure.is_strong and mixed.is_verifier and not mixed.is_strong
    verdict(8, ok, "point mass is a strong verifier, uniform bit only a verifier")


def test_criterion_09_commutation_compatibility_divergence():
    fine = qutrit_fine()
    coarse = qc.from_pvm(
        {"low": qutrit_basis_proj(0), "high": qutrit_basis_proj(1) + qutrit_basis_proj(2)}
    )
    commute = qc.pvm_commute(fine, coarse)
    compatible = qc.are_compatible_elementary(fine, coarse)
    complementary = qc.are_complementary(fine, coarse).complementary
    ok = commute and not compatible and complementary
    verdict(9, ok, f"commute={commute}, compatible={compatible}, complementary={complementary}")


def test_criterion_10_entropy_checks():
    exact_bit = qc.outcome_entropy([0.5, 0.5])
    skewed = qc.outcome_entropy([0.75, 0.25])
    ok = exact_bit == 1.0 and abs(skewed - 0.811278) <= 1e-6

    root = qc.SeededGenerator(1010)
    for trial in range(10):
        gen = root.child(trial)
        rng = gen.rng
        d = int(rng.integers(2, 6))
        u = qc.haar_unitary(d, gen.child(0))
        fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        p = qc.from_pvm({f"a{i}": np.outer(u[:, i], u[:, i].conj()) for i in range(d)})
        rotated = u @ fourier
        q = qc.from_pvm({f"b{i}": np.outer(rotated[:, i], rotated[:, i].conj()) for i in range(d)})
        report = qc.classify_relation(p, q)
        for v in list(report.degree_table.values()) + list(report.reverse_degree_table.values()):
            strong = v.kind is DegreeKind.STRONG
            max_entropy = abs(v.entropy_bits - math.log2(d)) <= 1e-6
            uniform = all(abs(x - 1.0 / d) <= 1e-7 for x in v.probabilities.values())
            ok &= strong == max_entropy == uniform == True  # noqa: E712
    verdict(10, ok, f"H(1/2,1/2)={exact_bit}, H(3/4,1/4)={skewed:.6f}, strong iff max entropy")
