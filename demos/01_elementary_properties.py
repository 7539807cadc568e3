"""What makes an instrument the measurement of an elementary property?

A walk through the three structural predicates: completeness (the outcomes
sum to a channel), repeatability (running the instrument twice is the same as
running it once), and atomicity (no outcome is secretly a merge of finer
ones). Instruments passing all three are exactly the projective instruments,
and the projectors can be extracted numerically.
"""

import numpy as np

import qcomplement as qc

# ---------------------------------------------------------------------------
# A computational-basis readout on a qubit, written as Kraus operators.
pi0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
pi1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
readout = qc.instrument_from_operations(
    [("z0", qc.projector_operation(pi0)), ("z1", qc.projector_operation(pi1))]
)

report = qc.validate_instrument(readout)
print("basis readout valid:", report.is_valid)
print("repeatable:", qc.is_repeatable(readout))
print("atomic outcomes:", {k: qc.is_atomic(op) for k, op in readout.outcomes.items()})

prop = qc.to_elementary(readout)
print("projector ranks:", prop.rank_profile())

# ---------------------------------------------------------------------------
# Global phases on the Kraus operators are physically irrelevant and the
# extraction ignores them: e^{i pi/4} Pi_0 yields exactly Pi_0 back.
phased = qc.instrument_from_operations(
    [
        ("z0", qc.QuantumOperation(2, 2, (np.exp(1j * np.pi / 4) * pi0,))),
        ("z1", qc.QuantumOperation(2, 2, (pi1,))),
    ]
)
extracted = qc.to_elementary(phased)
print("phase removed:", np.allclose(extracted.projectors["z0"], pi0))

# ---------------------------------------------------------------------------
# A unitary rotation is a fine instrument but not repeatable: applying the
# bit flip twice is the identity, not the bit flip.
flip = qc.instrument_from_operations(
    [("u", qc.QuantumOperation(2, 2, (np.array([[0, 1], [1, 0]], dtype=complex),)))]
)
print("bit flip repeatable:", qc.is_repeatable(flip))

# ---------------------------------------------------------------------------
# Coarse-graining keeps repeatability but destroys atomicity. Merging the
# first two outcomes of a qutrit readout still gives a valid repeatable
# instrument, yet the merged outcome has a rank-2 Choi matrix, so the
# extraction refuses it: properties obtained by discarding information are
# not elementary.
fine = qc.from_pvm({f"f{i}": np.diag([float(j == i) for j in range(3)]).astype(complex)
                    for i in range(3)}).base
merged = qc.coarse_grain(fine, qc.OutcomePartition({"low": ("f0", "f1"), "two": ("f2",)}))
print("merged instrument repeatable:", qc.is_repeatable(merged))
try:
    qc.to_elementary(merged)
except qc.PreconditionError as err:
    print("extraction rejected:", err)

# Haar-random projective instruments round-trip through the extraction.
random_prop = qc.random_pvm(4, [2, 1, 1], qc.SeededGenerator(11))
recovered = qc.to_elementary(random_prop.base)
errors = [
    float(np.linalg.norm(recovered.projectors[label] - random_prop.projectors[label]))
    for label in random_prop.labels
]
print("random PVM round-trip worst error below 1e-12:", max(errors) < 1e-12)
