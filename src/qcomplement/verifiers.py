"""Verifier-state machinery.

A verifier of an operation is a state on which the outcome occurs with
probability one; a strong verifier is left exactly invariant. For quantum
projective operations the two notions coincide (every verifier is a fixed
point), and the verifier set is characterised by a subspace: the eigenvalue-1
eigenspace of the effect. States may carry ancilla factors; the operation then
acts on the first factor with identity on the rest, which with the unique
deterministic effect (the trace) is fully general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeedError, StructureError
from .instruments import Instrument
from .linalg import DEFAULT_TOL, Subspace, Tolerances, _trusted
from .operations import DensityState, QuantumOperation, apply, apply_unnormalized


def is_verifier(op: QuantumOperation, state: DensityState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the outcome occurs with probability at least 1 - prob_eq."""
    probability, _ = apply(op, state, tol)
    return probability >= 1.0 - tol.prob_eq


def canonical_verifier(
    op: QuantumOperation, seed: DensityState, tol: Tolerances = DEFAULT_TOL
) -> DensityState:
    """The renormalised post-measurement state of ``seed``.

    For an operation belonging to a repeatable instrument this is always a
    verifier. Seeds with vanishing outcome probability are rejected.
    """
    probability, conditional = apply(op, seed, tol)
    if conditional is None or probability <= tol.prob_eq:
        raise DegenerateSeedError(
            f"seed state meets the operation with probability {probability:.3e}"
        )
    return conditional


def is_strong_verifier(
    op: QuantumOperation, state: DensityState, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """True iff the unnormalised output equals the input state exactly
    (Frobenius distance at most ``mat_eq``)."""
    if op.dim_in != op.dim_out:
        raise StructureError("strong verification needs dim_in = dim_out")
    out = apply_unnormalized(op, state)
    return float(np.linalg.norm(out - state.matrix)) <= tol.mat_eq


def is_fixed_point(
    op: QuantumOperation, state: DensityState, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Identical contract to ``is_strong_verifier``; for projective operations
    it agrees with ``is_verifier``."""
    return is_strong_verifier(op, state, tol)


def verifier_support(op: QuantumOperation, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Eigenspace of the effect for eigenvalues at least 1 - prob_eq.

    A state is a verifier iff its range (of the reduced state on the system
    factor) lies inside this subspace; the subspace may be empty, in which
    case the operation has no verifiers.
    """
    # The effect is Hermitian by construction; eigh's order is ascending.
    w, v = np.linalg.eigh(op.effect())
    count = int(np.count_nonzero(w >= 1.0 - tol.prob_eq))
    return _trusted(Subspace, ambient_dim=op.dim_in, basis=v[:, ::-1][:, :count])


@dataclass(frozen=True)
class VerifierReport:
    """Verdict of scanning one state against an instrument's outcomes."""

    outcome: str | None
    probability: float
    is_verifier: bool
    is_strong: bool
    is_fixed_point: bool


def instrument_verifier_report(
    ins: Instrument, state: DensityState, tol: Tolerances = DEFAULT_TOL
) -> VerifierReport:
    """Find the outcome (if any) the state verifies and report its status.

    Strong/fixed-point flags are evaluated for the best outcome when the
    instrument has equal input and output dimensions, otherwise left False.
    """
    best_label: str | None = None
    best_probability = -1.0
    for label, op in ins.outcomes.items():
        probability, _ = apply(op, state, tol)
        if probability > best_probability:
            best_label, best_probability = label, probability
    verified = best_probability >= 1.0 - tol.prob_eq
    strong = False
    if ins.dim_in == ins.dim_out and best_label is not None:
        strong = is_strong_verifier(ins[best_label], state, tol)
    return VerifierReport(
        outcome=best_label if verified else None,
        probability=max(0.0, best_probability),
        is_verifier=verified,
        is_strong=strong,
        is_fixed_point=strong,
    )
