"""Complementarity and its degrees.

Two elementary properties are complementary when some verifier of one fails
to verify the other; for projective instruments this is a pure geometry
question about the projector supports. On any particular verifier the other
property's outcome distribution classifies the situation: strong (uniform),
mild (all outcomes possible but biased), weak (some outcomes excluded), or
not complementary on this state at all.
"""

import numpy as np

import qcomplement as qc


def pvm(pairs):
    return qc.from_pvm({label: np.outer(v, np.conj(v)) / np.vdot(v, v) for label, v in pairs})


z_prop = pvm([("z0", np.array([1.0, 0.0])), ("z1", np.array([0.0, 1.0]))])
x_prop = pvm([("x+", np.array([1.0, 1.0])), ("x-", np.array([1.0, -1.0]))])

# ---------------------------------------------------------------------------
# Mutually unbiased bases: the paradigm case. Every verifier of Z leaves X
# maximally undetermined, so every table entry is strong.
report = qc.classify_relation(z_prop, x_prop)
print("Z vs X complementary:", report.complementary)
for outcome, degree in report.degree_table.items():
    probs = {k: round(v, 6) for k, v in degree.probabilities.items()}
    print(f"  verifier of {outcome}: {degree.kind.value}, p={probs}, H={degree.entropy_bits:.3f} bits")
print("witness state:", np.round(report.witness.matrix.real, 6).tolist())

# ---------------------------------------------------------------------------
# A basis tilted by pi/6 gives biased but nonvanishing probabilities: mild.
theta = np.pi / 6
tilted = pvm([
    ("r0", np.array([np.cos(theta), np.sin(theta)])),
    ("r1", np.array([-np.sin(theta), np.cos(theta)])),
])
degree = qc.degree_for_verifier(qc.basis_state(2, 0), tilted)
print("tilted basis on |0>:", degree.kind.value, {k: round(v, 4) for k, v in degree.probabilities.items()})

# ---------------------------------------------------------------------------
# A qutrit case where one outcome is excluded outright: weak.
e = np.eye(3)
fine = pvm([("f0", e[0]), ("f1", e[1]), ("f2", e[2])])
pm2 = pvm([("p", e[0] + e[1]), ("m", e[0] - e[1]), ("t2", e[2])])
degree = qc.degree_for_verifier(qc.basis_state(3, 0), pm2)
print("qutrit |0> against {+,-,2}:", degree.kind.value,
      {k: round(v, 4) for k, v in degree.probabilities.items()})

# ---------------------------------------------------------------------------
# Identical properties are never complementary; the bijection comes back.
again = pvm([("one", np.array([0.0, 1.0])), ("zero", np.array([1.0, 0.0]))])
report = qc.are_complementary(z_prop, again)
print("relabelled Z complementary:", report.complementary, "bijection:", report.matched_bijection)

# ---------------------------------------------------------------------------
# Why the definition insists on *elementary* properties. Merging outcomes of
# the two qutrit measurements above yields two coarse instruments that share
# every verifier state, even though the fine measurements are complementary:
# apparent non-complementarity produced purely by discarding information.
merge_fine = qc.coarse_grain(fine.base, qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)}))
merge_pm = qc.coarse_grain(pm2.base, qc.OutcomePartition({"low": ("p", "m"), "two": ("t2",)}))
for label in ("low", "two"):
    a = qc.verifier_support(merge_fine[label])
    b = qc.verifier_support(merge_pm[label])
    # Equal spans: the same dimension, and each vector of b keeps its norm in a.
    kept = np.linalg.norm(a.conj().T @ b, axis=0)
    same = a.shape == b.shape and bool(np.all(kept >= 1 - 1e-8))
    print(f"coarse outcome {label!r}: verifier supports {'equal' if same else 'differ'}")
print("fine measurements complementary:", qc.are_complementary(fine, pm2).complementary)
