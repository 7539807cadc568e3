"""Verifier-state machinery.

A verifier of an operation is a state on which the outcome occurs with
probability one; a strong verifier is left exactly invariant. For quantum
projective operations the two notions coincide (every verifier is a fixed
point), and the verifier set is characterised by a subspace: the eigenvalue-1
eigenspace of the effect. States may carry ancilla factors; the operation then
acts on the first factor with identity on the rest, which with the unique
deterministic effect (the trace) is fully general. Every verdict reads one
number, Prob(x | rho) = Re tr(E_x rho_1) with rho_1 the state reduced to its
first factor, against 1 - prob_eq; none builds a post-measurement state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeedError, StructureError
from .instruments import Instrument
from .linalg import DEFAULT_TOL, Subspace, Tolerances, _supports, _trusted
from .operations import DensityState, QuantumOperation, _outcome_probabilities, apply, apply_unnormalized


def is_verifier(op: QuantumOperation, state: DensityState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the outcome occurs with probability at least 1 - prob_eq."""
    return _outcome_probabilities([op.effect()], state)[0] >= 1.0 - tol.prob_eq


def canonical_verifier(
    op: QuantumOperation, seed: DensityState, tol: Tolerances = DEFAULT_TOL
) -> DensityState:
    """The renormalised post-measurement state of ``seed``.

    For an operation belonging to a repeatable instrument this is always a
    verifier. Seeds with vanishing outcome probability are rejected.
    """
    probability, conditional = apply(op, seed, tol)
    if conditional is None:
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


def verifier_support(op: QuantumOperation, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Eigenspace of the effect for eigenvalues at least 1 - prob_eq.

    A state is a verifier iff its range (of the reduced state on the system
    factor) lies inside this subspace; the subspace may be empty, in which
    case the operation has no verifiers.
    """
    v, keep = _supports(np.linalg.eigh(op.effect()[None]), tol)
    return _trusted(Subspace, ambient_dim=op.dim_in, basis=v[0][:, keep[0]][:, ::-1])


@dataclass(frozen=True)
class VerifierReport:
    """Verdict of scanning one state against an instrument's outcomes."""

    outcome: str | None
    probability: float
    is_verifier: bool
    is_strong: bool


def instrument_verifier_report(
    ins: Instrument, state: DensityState, tol: Tolerances = DEFAULT_TOL
) -> VerifierReport:
    """Find the outcome (if any) the state verifies and report its status.

    The best outcome is the first of highest probability. The strong flag is
    evaluated for it when the instrument has equal input and output
    dimensions, otherwise left False.
    """
    probabilities = _outcome_probabilities([op.effect() for op in ins.outcomes.values()], state)
    best_probability = max(probabilities)
    best_label = ins.labels[probabilities.index(best_probability)]
    verified = best_probability >= 1.0 - tol.prob_eq
    strong = ins.dim_in == ins.dim_out and is_strong_verifier(ins[best_label], state, tol)
    return VerifierReport(
        outcome=best_label if verified else None,
        probability=best_probability,
        is_verifier=verified,
        is_strong=strong,
    )
