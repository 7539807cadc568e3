"""Outcome-labelled instruments and elementary properties.

An instrument is a family of quantum operations summing to a channel. A
repeatable atomic instrument is, up to irrelevant global phases, a projective
instrument: ``to_elementary`` decides that and extracts the projectors.
Outcome labels are strings with stable insertion order, so reports and
bijection search are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError, PreconditionError, StructureError
from .linalg import DEFAULT_TOL, Tolerances, _trusted, as_matrix, range_subspace
from .operations import (
    OperationReport,
    QuantumOperation,
    choi,
    choi_distance,
    coarse_grain_ops,
    compose_seq,
    is_atomic,
    projector_operation,
    validate_operation,
)


@dataclass(frozen=True)
class Instrument:
    """An ordered map from outcome label to quantum operation.

    All operations must share ``dim_in``/``dim_out``; completeness (the summed
    effect being the identity) is reported by ``validate_instrument`` rather
    than enforced here.
    """

    dim_in: int
    dim_out: int
    outcomes: dict[str, QuantumOperation]

    def __post_init__(self):
        if not self.outcomes:
            raise StructureError("instrument needs at least one outcome")
        for label, op in self.outcomes.items():
            if not isinstance(label, str):
                raise StructureError("outcome labels must be strings")
            if (op.dim_in, op.dim_out) != (self.dim_in, self.dim_out):
                raise StructureError(
                    f"outcome {label!r} acts on ({op.dim_in}, {op.dim_out}), "
                    f"instrument declares ({self.dim_in}, {self.dim_out})"
                )
        object.__setattr__(self, "outcomes", dict(self.outcomes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.outcomes)

    def __getitem__(self, label: str) -> QuantumOperation:
        return self.outcomes[label]

    def total_effect(self) -> np.ndarray:
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for op in self.outcomes.values():
            out += op.effect()
        return out


def instrument_from_operations(pairs) -> Instrument:
    """Build an instrument from (label, operation) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise StructureError("instrument needs at least one outcome")
    first = pairs[0][1]
    return Instrument(first.dim_in, first.dim_out, dict(pairs))


@dataclass(frozen=True)
class InstrumentReport:
    is_valid: bool
    completeness_residual: float
    outcome_reports: dict[str, OperationReport]
    problems: tuple[str, ...] = ()


def validate_instrument(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> InstrumentReport:
    """Per-outcome trace-non-increase plus completeness of the summed effect.

    Complete positivity holds by Kraus form and is not re-checked. Violations
    are listed in the report, not raised, so callers can inspect exactly which
    outcome failed.
    """
    problems: list[str] = []
    outcome_reports: dict[str, OperationReport] = {}
    for label, op in ins.outcomes.items():
        rep = validate_operation(op, tol)
        outcome_reports[label] = rep
        if not rep.is_tni:
            problems.append(f"outcome {label!r} is not trace-non-increasing")
    residual = float(np.linalg.norm(ins.total_effect() - np.eye(ins.dim_in)))
    if residual > tol.mat_eq:
        problems.append(
            f"summed effect differs from identity by {residual:.3e} (limit {tol.mat_eq:.1e})"
        )
    return InstrumentReport(
        is_valid=not problems,
        completeness_residual=residual,
        outcome_reports=outcome_reports,
        problems=tuple(problems),
    )


def is_repeatable(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Check T_x after T_x' = delta_{xx'} T_x over all ordered outcome pairs.

    Pairwise Choi comparison, no shortcut assumed; requires equal input and
    output dimension.
    """
    if ins.dim_in != ins.dim_out:
        raise StructureError("repeatability needs dim_in = dim_out")
    for x, op_x in ins.outcomes.items():
        for xp, op_xp in ins.outcomes.items():
            combined = compose_seq(op_x, op_xp)
            if x == xp:
                if choi_distance(combined, op_x) > tol.mat_eq:
                    return False
            else:
                if float(np.linalg.norm(choi(combined).matrix)) > tol.mat_eq:
                    return False
    return True


@dataclass(frozen=True)
class ElementaryProperty:
    """A repeatable atomic instrument together with its extracted projectors.

    Downstream decisions work on the projectors; audits can always go back to
    the instrument's Choi matrices.
    """

    base: Instrument
    projectors: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.projectors) != set(self.base.outcomes):
            raise StructureError("projector labels do not match instrument outcomes")
        object.__setattr__(
            self,
            "projectors",
            {label: as_matrix(p, f"projector {label!r}") for label, p in self.projectors.items()},
        )

    @property
    def dim(self) -> int:
        return self.base.dim_in

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    def rank_profile(self) -> dict[str, int]:
        return {
            label: int(round(float(np.real(np.trace(p)))))
            for label, p in self.projectors.items()
        }


def _dominant_kraus(op: QuantumOperation) -> np.ndarray:
    """Single effective Kraus matrix of a Choi-rank-one operation."""
    c = choi(op).matrix
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    weight = max(float(w[-1]), 0.0)
    return np.sqrt(weight) * v[:, -1].reshape(op.dim_out, op.dim_in)


def to_elementary(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> ElementaryProperty:
    """Extract the canonical projector form of a repeatable atomic instrument.

    Preconditions (raised as ``PreconditionError``): square dimensions,
    repeatability, per-outcome atomicity. Each projector is recovered as the
    projection on the support of the outcome's single effective Kraus matrix;
    global phases drop out. Numerical inconsistency in the extracted family
    raises ``ExtractionError``.
    """
    if ins.dim_in != ins.dim_out:
        raise PreconditionError("elementary properties need dim_in = dim_out")
    if not is_repeatable(ins, tol):
        raise PreconditionError("instrument is not repeatable")
    for label, op in ins.outcomes.items():
        if not is_atomic(op, tol):
            raise PreconditionError(f"outcome {label!r} is not atomic")
    return _extract_elementary(ins, tol)


def _extract_elementary(ins: Instrument, tol: Tolerances) -> ElementaryProperty:
    """The extraction step of ``to_elementary``, for a square instrument whose
    repeatability and per-outcome atomicity the caller has established."""
    d = ins.dim_in
    projectors: dict[str, np.ndarray] = {}
    for label, op in ins.outcomes.items():
        kraus = _dominant_kraus(op)
        support = range_subspace(kraus, tol)
        if support.dim == 0:
            raise ExtractionError(f"outcome {label!r} is the zero map, it admits no verifier")
        proj = support.projector()
        if choi_distance(projector_operation(proj), op) > tol.mat_eq:
            raise ExtractionError(
                f"outcome {label!r}: projector map does not reproduce the operation"
            )
        projectors[label] = proj

    labels = list(projectors)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if float(np.linalg.norm(projectors[a] @ projectors[b])) > tol.mat_eq:
                raise ExtractionError(f"projectors {a!r} and {b!r} are not orthogonal")
    total = sum(projectors.values())
    if float(np.linalg.norm(total - np.eye(d))) > tol.mat_eq:
        raise ExtractionError("extracted projectors do not sum to the identity")
    return _trusted(ElementaryProperty, base=ins, projectors=projectors)


@dataclass(frozen=True)
class OutcomePartition:
    """Disjoint blocks of old outcome labels, keyed by the new labels."""

    blocks: dict[str, tuple[str, ...]]

    def __post_init__(self):
        blocks = {new: tuple(olds) for new, olds in self.blocks.items()}
        if not blocks:
            raise StructureError("partition needs at least one block")
        seen: set[str] = set()
        for new, olds in blocks.items():
            if not olds:
                raise StructureError(f"block {new!r} is empty")
            for old in olds:
                if old in seen:
                    raise StructureError(f"label {old!r} appears in more than one block")
                seen.add(old)
        object.__setattr__(self, "blocks", blocks)

    def covered(self) -> set[str]:
        return {old for olds in self.blocks.values() for old in olds}


def coarse_grain(ins: Instrument, part: OutcomePartition) -> Instrument:
    """Merge outcomes by summing operations block-wise (exact label matching)."""
    if part.covered() != set(ins.labels):
        missing = set(ins.labels) - part.covered()
        extra = part.covered() - set(ins.labels)
        raise StructureError(
            f"partition does not match outcomes (missing {sorted(missing)}, "
            f"unknown {sorted(extra)})"
        )
    merged = {
        new: coarse_grain_ops([ins[old] for old in olds])
        for new, olds in part.blocks.items()
    }
    return Instrument(ins.dim_in, ins.dim_out, merged)


def from_pvm(projectors, tol: Tolerances = DEFAULT_TOL) -> ElementaryProperty:
    """Build an elementary property from labelled orthogonal projectors.

    Accepts a dict or (label, matrix) pairs. Each matrix must be a nonzero
    Hermitian idempotent; the family must be pairwise orthogonal and sum to
    the identity, all within ``mat_eq``.
    """
    if isinstance(projectors, dict):
        items = list(projectors.items())
    else:
        items = list(projectors)
    if not items:
        raise StructureError("a PVM needs at least one projector")
    mats = {label: as_matrix(p, f"projector {label!r}") for label, p in items}
    dims = {m.shape for m in mats.values()}
    if len(dims) != 1 or any(s[0] != s[1] for s in dims):
        raise StructureError(f"projectors must be square and share dimensions, got {dims}")
    d = next(iter(dims))[0]

    for label, p in mats.items():
        if float(np.linalg.norm(p - p.conj().T)) > tol.mat_eq:
            raise StructureError(f"projector {label!r} is not Hermitian")
        if float(np.linalg.norm(p @ p - p)) > tol.mat_eq:
            raise StructureError(f"projector {label!r} is not idempotent")
        if float(np.real(np.trace(p))) < 0.5:
            raise StructureError(f"projector {label!r} is zero, it admits no verifier")
    labels = list(mats)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if float(np.linalg.norm(mats[a] @ mats[b])) > tol.mat_eq:
                raise StructureError(f"projectors {a!r} and {b!r} are not orthogonal")
    total = sum(mats.values())
    if float(np.linalg.norm(total - np.eye(d))) > tol.mat_eq:
        raise StructureError("projectors do not sum to the identity (incomplete PVM)")

    ins = Instrument(d, d, {label: projector_operation(p) for label, p in mats.items()})
    return _trusted(ElementaryProperty, base=ins, projectors=mats)
