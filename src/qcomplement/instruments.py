"""Outcome-labelled instruments and elementary properties.

An instrument is a family of quantum operations summing to a channel. A
repeatable atomic instrument is, up to irrelevant global phases, a projective
instrument: ``to_elementary`` decides that and extracts the projectors, each
onto its outcome's verifier support. Outcome labels are strings with stable
insertion order, so reports and bijection search are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExtractionError, PreconditionError, StructureError
from .linalg import DEFAULT_TOL, Tolerances, _index, _supports, _trusted, as_matrix
from .operations import (
    QuantumOperation,
    _core_norm,
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
        object.__setattr__(self, "dim_in", _index(self.dim_in, "dim_in"))
        object.__setattr__(self, "dim_out", _index(self.dim_out, "dim_out"))
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
    problems: tuple[str, ...] = ()


def validate_instrument(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> InstrumentReport:
    """Per-outcome trace-non-increase plus completeness of the summed effect.

    Complete positivity holds by Kraus form and is not re-checked. Violations
    are listed in the report, not raised, so callers can inspect exactly which
    outcome failed.
    """
    problems: list[str] = []
    for label, op in ins.outcomes.items():
        if not validate_operation(op, tol).is_tni:
            problems.append(f"outcome {label!r} is not trace-non-increasing")
    residual = float(np.linalg.norm(ins.total_effect() - np.eye(ins.dim_in)))
    if residual > tol.mat_eq:
        problems.append(
            f"summed effect differs from identity by {residual:.3e} (limit {tol.mat_eq:.1e})"
        )
    return InstrumentReport(
        is_valid=not problems,
        completeness_residual=residual,
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
            if _core_norm(compose_seq(op_x, op_xp), op_x if x == xp else None) > tol.mat_eq:
                return False
    return True


@dataclass(frozen=True)
class ElementaryProperty:
    """A repeatable atomic instrument together with its extracted projectors.

    Downstream decisions work on the projectors, read-only copies in the
    base's outcome order, and on their effects' spectrum, computed once and
    tied to no tolerance; audits can go back to the instrument's Choi matrices.
    """

    base: Instrument
    projectors: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.projectors) != set(self.base.outcomes):
            raise StructureError("projector labels do not match instrument outcomes")
        mats = {label: _read_only(label, self.projectors[label]) for label in self.base.labels}
        _check_pvm(mats, self.base.dim_in, DEFAULT_TOL)
        object.__setattr__(self, "projectors", mats)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The batched eigh of the effects P^dag P, in ``labels`` order."""
        stack = np.stack(list(self.projectors.values()))
        return np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)

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


def to_elementary(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> ElementaryProperty:
    """Extract the canonical projector form of a repeatable atomic instrument.

    Preconditions (raised as ``PreconditionError``): square dimensions,
    repeatability, per-outcome atomicity. Each projector is the projection
    onto the outcome's verifier support, the eigenvalue >= 1 - prob_eq
    eigenspace of its effect; global phases drop out. Numerical inconsistency
    in the extracted family raises ``ExtractionError``.
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
    projectors: dict[str, np.ndarray] = {}
    effects = np.stack([op.effect() for op in ins.outcomes.values()])
    v, keep = _supports(np.linalg.eigh(effects), tol)
    for (label, op), vectors, kept in zip(ins.outcomes.items(), v, keep):
        if not kept.any():
            raise ExtractionError(f"outcome {label!r} is the zero map, it admits no verifier")
        basis = vectors[:, kept]
        proj = basis @ basis.conj().T
        if choi_distance(projector_operation(proj), op) > tol.mat_eq:
            raise ExtractionError(
                f"outcome {label!r}: projector map does not reproduce the operation"
            )
        proj.flags.writeable = False
        projectors[label] = proj
    _check_pvm(projectors, ins.dim_in, tol, ExtractionError)
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
    the identity, all within ``mat_eq``. The property keeps read-only copies.
    """
    items = list(projectors.items() if isinstance(projectors, dict) else projectors)
    if not items:
        raise StructureError("a PVM needs at least one projector")
    mats = {label: _read_only(label, p) for label, p in items}
    d = next(iter(mats.values())).shape[0]
    _check_pvm(mats, d, tol)
    ins = Instrument(d, d, {label: projector_operation(p) for label, p in mats.items()})
    return _trusted(ElementaryProperty, base=ins, projectors=mats)


def _read_only(label: str, p) -> np.ndarray:
    """A read-only copy, so no write can make a property's spectrum stale."""
    mat = as_matrix(p, f"projector {label!r}").copy()
    mat.flags.writeable = False
    return mat


def _check_pvm(mats: dict[str, np.ndarray], d: int, tol: Tolerances, error=StructureError):
    """Raise ``error`` unless ``mats`` are nonzero d x d orthogonal projectors,
    pairwise orthogonal and summing to the identity, all within ``mat_eq``."""
    for label, p in mats.items():
        if p.shape != (d, d):
            raise error(f"projector {label!r} has shape {p.shape}, expected ({d}, {d})")
        if float(np.linalg.norm(p - p.conj().T)) > tol.mat_eq:
            raise error(f"projector {label!r} is not Hermitian")
        if float(np.linalg.norm(p @ p - p)) > tol.mat_eq:
            raise error(f"projector {label!r} is not idempotent")
        if float(np.real(np.trace(p))) < 0.5:
            raise error(f"projector {label!r} is zero, it admits no verifier")
    # Not the Gram form <P_a^dag P_a, P_b P_b^dag> = |P_a P_b|^2: its error of
    # about 1e-16 is mat_eq^2, so exact PVMs at d = 32 fail it.
    labels, stack = list(mats), np.stack(list(mats.values()))
    for i, a in enumerate(labels[:-1]):
        bad = np.flatnonzero(np.linalg.norm(stack[i] @ stack[i + 1 :], axis=(1, 2)) > tol.mat_eq)
        if bad.size:
            raise error(f"projectors {a!r} and {labels[i + 1 + bad[0]]!r} are not orthogonal")
    if float(np.linalg.norm(stack.sum(axis=0) - np.eye(d))) > tol.mat_eq:
        raise error("projectors do not sum to the identity (incomplete PVM)")
