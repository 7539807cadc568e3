"""Verifier states: when is a property definitely true?

A verifier of an outcome is a state on which that outcome fires with
probability one. Strong verifiers are additionally left untouched. The two
notions agree for projective operations (every quantum verifier is a fixed
point) but split for measure-and-prepare operations, and the whole verifier
set of an operation is a subspace that can be computed once and for all.
"""

import numpy as np

import qcomplement as qc

pi0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
measure_zero = qc.projector_operation(pi0)

# ---------------------------------------------------------------------------
# Probability-one membership, with and without an ancilla.
print("|0> verifies Pi_0:", qc.is_verifier(measure_zero, qc.basis_state(2, 0)))
print("|+> verifies Pi_0:", qc.is_verifier(measure_zero, qc.pure_state([1, 1])))

bell = qc.pure_state([1, 0, 0, 1], dims=(2, 2))
print("entangled half verifies Pi_0:", qc.is_verifier(measure_zero, bell))

# ---------------------------------------------------------------------------
# Any state with a nonzero success probability can be turned into a verifier
# by conditioning on the outcome; an orthogonal seed cannot.
collapsed = qc.canonical_verifier(measure_zero, qc.pure_state([1, 1]))
print("canonical verifier from |+>:", np.round(collapsed.matrix.real, 6).tolist())
try:
    qc.canonical_verifier(measure_zero, qc.basis_state(2, 1))
except qc.DegenerateSeedError as err:
    print("orthogonal seed rejected:", err)

# ---------------------------------------------------------------------------
# Measure-and-prepare: rho -> Tr[rho] |0><0| succeeds on every state, so
# every state is a verifier, but only |0><0| is left invariant. Verifier and
# strong verifier genuinely differ here.
prepare_zero = qc.QuantumOperation(
    2, 2, (np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex))
)
for name, state in (("|0><0|", qc.basis_state(2, 0)), ("I/2", qc.maximally_mixed(2))):
    print(
        f"{name}: verifier={qc.is_verifier(prepare_zero, state)}, "
        f"strong={qc.is_strong_verifier(prepare_zero, state)}"
    )

# For projective operations the split disappears: verifiers are fixed points.
gen = qc.SeededGenerator(23)
u = qc.haar_unitary(3, gen)
projector = u[:, :2] @ u[:, :2].conj().T
op = qc.projector_operation(projector)
sigma = qc.random_density(3, 3, gen.child(0)).matrix
supported = projector @ sigma @ projector
supported = qc.DensityState((3,), supported / np.trace(supported).real)
print("supported state verifier:", qc.is_verifier(op, supported))
print("supported state fixed point:", qc.is_strong_verifier(op, supported))

# ---------------------------------------------------------------------------
# The verifier set in one object: the eigenvalue-1 eigenspace of the effect.
support = qc.verifier_support(op)
print("verifier support dimension:", support.dim)
inside = qc.range_subspace(supported.matrix)
print("state range inside support:", qc.subspace_contained(inside, support))

flat = qc.QuantumOperation(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2),))
print("effect I/2 has verifiers:", qc.verifier_support(flat).dim > 0)
