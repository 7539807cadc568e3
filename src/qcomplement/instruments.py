"""Outcome-labelled instruments and elementary properties.

An instrument is a family of quantum operations summing to a channel. A
repeatable atomic instrument is, up to irrelevant global phases, a projective
instrument: ``to_elementary`` decides that and extracts the projectors, each
onto its outcome's verifier support. Outcome labels are strings with stable
insertion order, so reports and bijection search are deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, reduce
from math import isqrt
from types import MappingProxyType

import numpy as np

from .errors import ExtractionError, PreconditionError, StructureError
from .linalg import _CHUNK_CELLS, _FINITE, DEFAULT_TOL, Tolerances, _check_entries, _index, _is_psd, _supports, _trusted, as_matrix
from .operations import QuantumOperation, _choi_core, coarse_grain_ops, is_atomic, projector_operation


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


def instrument_from_operations(pairs) -> Instrument:
    """Build an instrument from (label, operation) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise StructureError("instrument needs at least one outcome")
    first = pairs[0][1]
    return Instrument(first.dim_in, first.dim_out, _labelled(pairs))


def _labelled(pairs) -> dict:
    """The (label, value) pairs as a dict in their order; a label given twice
    raises ``StructureError``, as it does in a model file."""
    out = {}
    for label, value in pairs:
        if label in out:
            raise StructureError(f"duplicate outcome label {label!r}")
        out[label] = value
    return out


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
    effects = _effects(ins, _kraus_groups(ins))
    eye = np.eye(ins.dim_in)
    # I - E is Hermitian by construction; the check only asks it to be finite.
    slack = eye - effects
    _check_entries(slack.view(float), "matrix", _FINITE)
    problems = [f"outcome {label!r} is not trace-non-increasing"
                for label, tni in zip(ins.labels, _is_psd(slack, tol)) if not tni]
    residual = float(np.linalg.norm(reduce(np.add, effects) - eye))
    if not residual <= tol.mat_eq:
        problems.append(
            f"summed effect differs from identity by {residual:.3e} (limit {tol.mat_eq:.1e})"
        )
    return InstrumentReport(
        is_valid=not problems,
        completeness_residual=residual,
        problems=tuple(problems),
    )


def _kraus_groups(ins: Instrument) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per Kraus count k: the outcome indices and their (m, k, d_out, d_in) stack."""
    ops, members = list(ins.outcomes.values()), {}
    for i, op in enumerate(ops):
        members.setdefault(len(op.kraus), []).append(i)
    return [(np.array(idx), np.array([ops[i].kraus for i in idx])) for idx in members.values()]


def _chunks(count: int, cells: int) -> list[slice]:
    """Runs of ``count`` items of ``cells`` cells each, at most ``_CHUNK_CELLS``
    cells (and at least one item) per run."""
    step = max(1, _CHUNK_CELLS // cells)
    return [slice(start, start + step) for start in range(0, count, step)]


def _effects(ins: Instrument, groups) -> np.ndarray:
    """The (n, dim_in, dim_in) effects in outcome order, added as ``effect`` adds
    (left to right: ``sum`` may pair terms up, which moves the last bits)."""
    out = np.empty((len(ins.outcomes), ins.dim_in, ins.dim_in), dtype=complex)
    for idx, kraus in groups:
        out[idx] = reduce(np.add, (kraus.conj().swapaxes(-1, -2) @ kraus).swapaxes(0, 1))
    return out


def _products(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The (m, k * k, d, d) products first[x, i] @ second[x, j], i outer."""
    m, k = first.shape[:2]
    return (first[:, :, None] @ second[:, None]).reshape(m, k * k, *first.shape[-2:])


def _residuals(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """||Choi(plus[x]) - Choi(minus[x])||_F for two (m, k, d, d) Kraus stacks."""
    return np.linalg.norm(_choi_core(plus, minus), axis=(-2, -1))


def _composite_norms(groups):
    """Yield ``(rows, cols, norms)`` per block pair, ``norms[i, j]`` being
    ||Choi(T_x after T_x')||_F for x = rows[i] and x' = cols[j].

    The squared norm sums |tr((K_xk^dag K_xk')(K_x'l' K_x'l^dag))|^2 over the
    Kraus indices: a matmul of the A = K^dag K rows against the B = K K^dag
    rows, then a blockwise sum, with no subtraction. A block is a run of
    outcomes of one Kraus count with at most isqrt(_CHUNK_CELLS) rows, so
    memory does not grow with the number of outcomes.
    """
    blocks = [
        (idx[part], kraus[part])
        for idx, kraus in groups
        for part in _chunks(len(idx), kraus.shape[1] ** 2 * isqrt(_CHUNK_CELLS))
    ]
    for rows, left in blocks:
        a = _products(left.conj().swapaxes(-1, -2), left).reshape(-1, left[0, 0].size)
        for cols, right in blocks:
            # conj(K_l) K_l'^T = (K_l' K_l^dag)^T, so g holds every tr(A B).
            g = a @ _products(right.conj(), right.swapaxes(-1, -2)).reshape(-1, a.shape[1]).T
            sq = np.square(g.view(float), out=g.view(float))  # |g|^2 in place: re^2, im^2
            sq = sq.reshape(len(rows), sq.shape[0] // len(rows), len(cols), -1)
            yield rows, cols, np.sqrt(sq.sum(axis=(1, 3)))
            del g, sq  # one block pair's table at a time


def is_repeatable(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Check T_x after T_x' = delta_{xx'} T_x over all ordered outcome pairs.

    Off-diagonal pairs need Choi(T_x T_x') = 0, read from the Gram table of
    ``_composite_norms``, a sum of squares that cannot cancel. Diagonal pairs
    compare Choi(T_x T_x) with Choi(T_x) through the QR difference core,
    stacked over outcomes with one Kraus count. No shortcut is assumed;
    requires equal input and output dimension.
    """
    if ins.dim_in != ins.dim_out:
        raise StructureError("repeatability needs dim_in = dim_out")
    groups = _kraus_groups(ins)
    for rows, cols, norms in _composite_norms(groups):
        if not np.all((norms <= tol.mat_eq) | (rows[:, None] == cols)):
            return False
    for idx, kraus in groups:
        m, k, d = kraus.shape[:3]
        for part in _chunks(m, (k * k + k) * d * d):
            # The Kraus list of compose_seq(T_x, T_x), in its order, against T_x.
            if not np.all(_residuals(_products(kraus[part], kraus[part]), kraus[part]) <= tol.mat_eq):
                return False
    return True


@dataclass(frozen=True, eq=False)
class ElementaryProperty:
    """A repeatable atomic instrument together with its extracted projectors.

    Downstream decisions work on the projectors, read-only copies in the
    base's outcome order held in a read-only mapping, and on their effects'
    spectrum, computed once and tied to no tolerance: the constructor,
    ``from_pvm`` and ``to_elementary`` keep the one their PVM check read.
    ``==`` is identity: two properties are equal when their outcome maps
    are, by ``choi_distance`` at a tolerance.
    """

    base: Instrument
    projectors: Mapping[str, np.ndarray]

    def __post_init__(self):
        if set(self.projectors) != set(self.base.outcomes):
            raise StructureError("projector labels do not match instrument outcomes")
        mats = {label: _read_only(label, self.projectors[label]) for label in self.base.labels}
        spectrum = _check_pvm(mats, self.base.dim_in, DEFAULT_TOL)
        object.__setattr__(self, "projectors", MappingProxyType(mats))
        object.__setattr__(self, "_spectrum", spectrum)

    def __reduce__(self):
        # A mapping proxy does not pickle; the property is rebuilt from a dict.
        return _elementary, (self.base, dict(self.projectors))

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """A spectral decomposition (w, v) of the effects P^dag P, in
        ``labels`` order; when no construction step left one, their batched
        eigh."""
        return _effect_spectrum(np.stack(list(self.projectors.values())))

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
    groups = _kraus_groups(ins)
    v, keep = _supports(np.linalg.eigh(_effects(ins, groups)), tol)
    stack = _support_projectors(v, keep)
    residual = np.empty(len(stack))
    for idx, kraus in groups:
        for part in _chunks(len(idx), (1 + kraus.shape[1]) * ins.dim_in**2):
            residual[idx[part]] = _residuals(stack[idx[part], None], kraus[part])
    for label, kept, res in zip(ins.labels, keep, residual):
        if not kept.any():
            raise ExtractionError(f"outcome {label!r} is the zero map, it admits no verifier")
        if not res <= tol.mat_eq:
            raise ExtractionError(
                f"outcome {label!r}: projector map does not reproduce the operation"
            )
    projectors = dict(zip(ins.labels, stack))
    # The exact spectrum of each V_x V_x^dag: eigenvalue 1 on the kept columns
    # of v, 0 on the rest. Its supports are the projectors' at any tolerance,
    # where E's own eigenvalues, a little below 1 on a support, are not.
    spectrum = (keep.astype(float), v)
    _check_pvm(projectors, ins.dim_in, tol, ExtractionError, spectrum)
    return _elementary(ins, projectors, spectrum)


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
    items = list(projectors.items() if isinstance(projectors, Mapping) else projectors)
    if not items:
        raise StructureError("a PVM needs at least one projector")
    mats = _labelled((label, _read_only(label, p)) for label, p in items)
    d = next(iter(mats.values())).shape[0]
    spectrum = _check_pvm(mats, d, tol)
    ins = Instrument(d, d, {label: projector_operation(p) for label, p in mats.items()})
    return _elementary(ins, mats, spectrum)


def _elementary(base: Instrument, projectors: dict[str, np.ndarray], spectrum=None) -> ElementaryProperty:
    """An elementary property from projectors already checked against
    ``base``, in its outcome order, holding their effects' ``spectrum`` when
    given; the arrays are made read-only and held in a read-only mapping, so
    no write can make the property's spectrum stale."""
    for p in projectors.values():
        p.flags.writeable = False
    prop = _trusted(ElementaryProperty, base=base, projectors=MappingProxyType(projectors))
    if spectrum is not None:
        object.__setattr__(prop, "_spectrum", spectrum)
    return prop


def _read_only(label: str, p) -> np.ndarray:
    """A read-only copy, so no write can make a property's spectrum stale."""
    mat = as_matrix(p, f"projector {label!r}").copy()
    mat.flags.writeable = False
    return mat


def _effect_spectrum(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batched eigh of the effects P^dag P of an (n, d, d) projector stack."""
    return np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)


def _support_projectors(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack of projectors V_x V_x^dag onto the supports of
    ``_supports``, V_x being ``v[x][:, keep[x]]``."""
    frames = [vectors[:, kept] for vectors, kept in zip(v, keep)]
    return np.stack([frame @ frame.conj().T for frame in frames])


def _check_pvm(mats: dict[str, np.ndarray], d: int, tol: Tolerances, error=StructureError, spectrum=None):
    """Raise ``error`` unless ``mats`` are nonzero d x d orthogonal projectors,
    pairwise orthogonal and summing to the identity, all within ``mat_eq``.

    Returns the effects' spectrum the check read: ``spectrum`` when the
    caller holds one, as extraction does, else the batched eigh of P^dag P,
    computed once the per-projector checks have passed.
    """
    for label, p in mats.items():
        if p.shape != (d, d):
            raise error(f"projector {label!r} has shape {p.shape}, expected ({d}, {d})")
        if float(np.linalg.norm(p - p.conj().T)) > tol.mat_eq:
            raise error(f"projector {label!r} is not Hermitian")
        if float(np.linalg.norm(p @ p - p)) > tol.mat_eq:
            raise error(f"projector {label!r} is not idempotent")
        if float(np.real(np.trace(p))) < 0.5:
            raise error(f"projector {label!r} is zero, it admits no verifier")
    labels, stack = list(mats), np.stack(list(mats.values()))
    if spectrum is None:
        spectrum = _effect_spectrum(stack)
    n = len(stack)
    suspect = np.arange(n)[:, None] < np.arange(n)
    if n >= _GRAM_MIN_OUTCOMES:
        suspect &= ~(_orthogonality_bound(stack, spectrum, tol) <= tol.mat_eq / 2)
    for i in np.flatnonzero(suspect.any(axis=1)):
        pairs = np.flatnonzero(suspect[i])
        bad = pairs[np.linalg.norm(stack[i] @ stack[pairs], axis=(1, 2)) > tol.mat_eq]
        if bad.size:
            raise error(f"projectors {labels[i]!r} and {labels[bad[0]]!r} are not orthogonal")
    if float(np.linalg.norm(stack.sum(axis=0) - np.eye(d))) > tol.mat_eq:
        raise error("projectors do not sum to the identity (incomplete PVM)")
    return spectrum


# From this many outcomes on, one Gram of the support frames costs less than
# the n(n-1)/2 direct products: at d = 8 on one BLAS thread the two are even
# at 8 outcomes, and at 2 outcomes the Gram costs five times the one product.
_GRAM_MIN_OUTCOMES = 8


def _orthogonality_bound(stack: np.ndarray, spectrum, tol: Tolerances) -> np.ndarray:
    """An (n, n) array whose entry (a, b) bounds |P_a P_b|_F from above.

    Not the Gram form <P_a^dag P_a, P_b P_b^dag> = |P_a P_b|_F^2: its rounding
    of about 1e-16 is mat_eq^2, so exact PVMs at d = 32 fail it. Here each
    entry of G = U^dag U, with U = [V_1 | V_2 | ...] the supports of
    ``spectrum`` at ``tol``, is an inner product computed directly, so a
    block norm |V_a^dag V_b|_F is itself good to about 1e-16. With
    delta_x = |P_x - V_x V_x^dag|_F,
    |P_a P_b|_F <= |V_a^dag V_b|_F + delta_a + delta_b + delta_a delta_b.
    A pair whose bound is at most mat_eq / 2 passes the direct check with
    room to spare; ``_check_pvm`` runs that check on every other pair, in
    order, so the first bad pair named is the one the pairwise loop names.
    """
    v, keep = _supports(spectrum, tol)
    ranks = keep.sum(axis=1)
    if not ranks.all():
        # An empty support bounds nothing: every pair runs the direct check.
        return np.full((len(stack), len(stack)), np.inf)
    delta = np.linalg.norm(stack - _support_projectors(v, keep), axis=(1, 2))
    frame = v.swapaxes(-1, -2)[keep].T
    # Columns of U come outcome by outcome, so block sums are reduceat sums.
    starts = np.cumsum(ranks) - ranks
    gram = np.abs(frame.conj().T @ frame) ** 2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts, axis=1))
    return norms + delta[:, None] + delta * (1.0 + delta[:, None])
