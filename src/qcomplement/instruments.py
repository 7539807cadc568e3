"""Outcome-labelled instruments and elementary properties.

An instrument is a family of quantum operations summing to a channel. A
repeatable atomic instrument is, up to irrelevant global phases, a projective
instrument: ``to_elementary`` decides that and extracts the projectors, each
onto its outcome's verifier support. Outcome labels are strings with stable
insertion order, so reports and bijection search are deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from math import isqrt
from types import MappingProxyType

import numpy as np

from .errors import ExtractionError, PreconditionError, StructureError
from .linalg import (
    _CHUNK_CELLS,
    _FINITE,
    DEFAULT_TOL,
    Tolerances,
    _as_array,
    _check_entries,
    _index,
    _is_psd,
    _sq_norms,
    _supports,
    _trusted,
    as_matrix,
)
from .operations import QuantumOperation, _choi_core, coarse_grain_ops, is_atomic


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

    Every effect E_y is PSD, so lambda_min(I - E_x) >= lambda_min(I - sum E)
    >= -r for every outcome x, r = ||sum E - I||_F the completeness residual.
    When r plus a rounding term is at most ``eig_cut``, every outcome passes
    the per-outcome PSD test (``_is_psd``) and none is run. The term,
    16 d (d + d_out + n + k) u (1 + r) with n outcomes, at most k Kraus
    matrices per outcome and u the unit roundoff, covers the computed
    effects and the Hermitian matrices ``eigvalsh`` reads from them, their
    left-to-right sums, the residual's own rounding and ``eigvalsh``'s
    backward error (README, "Numerical conventions"). Otherwise every
    outcome's I - E_x is decomposed, in one batched ``eigvalsh``.
    """
    groups = _kraus_groups(ins)
    effects = _effects(ins, groups)
    eye = np.eye(ins.dim_in)
    residual = float(np.linalg.norm(reduce(np.add, effects) - eye))
    d, kraus = ins.dim_in, max(stack.shape[1] for _, stack in groups)
    rounding = 16 * d * (d + ins.dim_out + len(effects) + kraus) * (np.finfo(float).eps / 2) * (1.0 + residual)
    problems = []
    if not residual + rounding <= tol.eig_cut:
        # I - E is Hermitian by construction; the check only asks it to be finite.
        slack = eye - effects
        _check_entries(slack.view(float), "matrix", _FINITE)
        problems = [f"outcome {label!r} is not trace-non-increasing"
                    for label, tni in zip(ins.labels, _is_psd(slack, tol)) if not tni]
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


def _projector_residuals(ins: Instrument, groups, stack: np.ndarray) -> np.ndarray:
    """||Choi(P_x . P_x^dag) - Choi(T_x)||_F per outcome x of ``ins``, with
    ``stack`` the (n, d, d) projectors P_x in outcome order, stacked over the
    outcomes of one Kraus count."""
    residual = np.empty(len(stack))
    for idx, kraus in groups:
        for part in _chunks(len(idx), (1 + kraus.shape[1]) * ins.dim_in**2):
            residual[idx[part]] = _residuals(stack[idx[part], None], kraus[part])
    return residual


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
    base's outcome order held in a read-only mapping, and on ``_spectrum``,
    the support frame (U, owner, w) of their effects P^dag P, tied to no
    tolerance: the eigenvectors of eigenvalue w >= 1/2, one outcome's after
    another's, owner[i] being column i's outcome (``_support_frame``).
    ``to_elementary`` holds the kept eigenvectors of the effects it built
    the projectors from and ``random_pvm`` its Haar unitary, both with
    w = 1, and delta 0; the constructor and ``from_pvm`` the frame their
    PVM check read (see ``_pvm_spectrum``).

    The constructor checks its input: ``base`` must be square, the
    projectors a PVM, and each outcome's operation within ``mat_eq`` of its
    projector's map rho -> P rho P, all at ``DEFAULT_TOL``, else
    ``StructureError``. ``==`` is identity: two properties are equal when
    their outcome maps are, by ``choi_distance`` at a tolerance.
    ``_deltas`` holds delta_x = |P_x - V_x V_x^dag|_F, V_x all of x's
    columns of U (``_pvm_bounds``), or None.
    """

    base: Instrument
    projectors: Mapping[str, np.ndarray]

    def __post_init__(self):
        base = self.base
        if base.dim_in != base.dim_out:
            raise StructureError("elementary properties need dim_in = dim_out")
        if set(self.projectors) != set(base.outcomes):
            raise StructureError("projector labels do not match instrument outcomes")
        mats, stack = _read_only_family(((label, self.projectors[label]) for label in base.labels), base.dim_in)
        spectrum, deltas = _check_pvm(base.labels, stack, DEFAULT_TOL)
        residual = _projector_residuals(base, _kraus_groups(base), stack)
        for label, res in zip(base.labels, residual):
            if not res <= DEFAULT_TOL.mat_eq:
                raise StructureError(f"outcome {label!r}: operation is not its projector's map")
        object.__setattr__(self, "projectors", MappingProxyType(mats))
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_deltas", deltas)

    def __reduce__(self):
        # A mapping proxy does not pickle; the property is rebuilt from a dict
        # and the frame and deltas it holds.
        return _elementary, (self.base, dict(self.projectors), self._spectrum, self._deltas)

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
    frame = v.swapaxes(-1, -2)[keep].T  # the kept columns, outcome by outcome
    stack = _support_projectors(frame, keep.sum(axis=1))
    residual = _projector_residuals(ins, groups, stack)
    for label, kept, res in zip(ins.labels, keep, residual):
        if not kept.any():
            raise ExtractionError(f"outcome {label!r} is the zero map, it admits no verifier")
        if not res <= tol.mat_eq:
            raise ExtractionError(
                f"outcome {label!r}: projector map does not reproduce the operation"
            )
    # Eigenvalue 1, the exact spectrum of each V_x V_x^dag: its supports are
    # the projectors' at any tolerance, where E's own eigenvalues, a little
    # below 1 on a support, are not; and delta is 0 on every column.
    m = frame.shape[1]
    spectrum = (frame, np.nonzero(keep)[0], np.ones(m))
    _check_pvm(ins.labels, stack, tol, ExtractionError, spectrum)
    return _elementary(ins, dict(zip(ins.labels, stack)), spectrum, np.zeros(len(stack)))


def _labels(value, name: str) -> tuple[str, ...]:
    """``value`` as a nonempty tuple of str labels, else ``StructureError``;
    a bare str, which ``tuple`` would split into its characters, is refused."""
    labels = tuple(value) if isinstance(value, Iterable) and not isinstance(value, str) else (None,)
    if not all(isinstance(label, str) for label in labels):
        raise StructureError(f"{name} must be an iterable of str labels, got {value!r}")
    if not labels:
        raise StructureError(f"{name} is empty")
    return labels


@dataclass(frozen=True)
class OutcomePartition:
    """Disjoint blocks of old outcome labels, keyed by the new labels."""

    blocks: dict[str, tuple[str, ...]]

    def __post_init__(self):
        blocks = {new: _labels(olds, f"block {new!r}") for new, olds in self.blocks.items()}
        if not blocks:
            raise StructureError("partition needs at least one block")
        seen: set[str] = set()
        for olds in blocks.values():
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
    mats, stack = _read_only_family(items)
    d = stack.shape[1]
    spectrum, deltas = _check_pvm(list(mats), stack, tol)
    # Each checked projector is its outcome's one Kraus matrix, rho -> P rho P.
    ops = {label: _trusted(QuantumOperation, dim_in=d, dim_out=d, kraus=(p,)) for label, p in mats.items()}
    return _elementary(Instrument(d, d, ops), mats, spectrum, deltas)


def _elementary(base: Instrument, projectors: dict[str, np.ndarray], spectrum, deltas=None) -> ElementaryProperty:
    """An elementary property from projectors already checked against
    ``base``, in its outcome order, holding their effects' support frame
    ``spectrum`` = (U, owner, w) and its per-outcome ``deltas``, or None;
    the projectors are made read-only and held in a read-only mapping, so
    no write can make the property's frame stale."""
    for p in projectors.values():
        p.flags.writeable = False
    return _trusted(ElementaryProperty, base=base, projectors=MappingProxyType(projectors),
                    _spectrum=spectrum, _deltas=deltas)


def _read_only_family(pairs, d: int | None = None) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The projector boundary: the (label, matrix) pairs as one read-only
    (n, d, d) complex stack, so no write can make a property's frame stale,
    and a dict of its rows by label, d the first matrix's row count unless
    given. Entries come first: where the one conversion refuses the family,
    the first pair a pair-by-pair read (``as_matrix``, ``_labelled``)
    refuses raises; then the first matrix that is not d x d."""
    pairs = list(pairs)
    try:
        stack = _as_array([p for _, p in pairs], "projector", 3)
        stack.flags.writeable = False  # before its rows are taken, which keep the flag
        mats = _labelled(zip([label for label, _ in pairs], stack))
    except StructureError as exc:
        refused, stack = exc, None
        mats = _labelled((label, as_matrix(p, f"projector {label!r}")) for label, p in pairs)
    d = next(iter(mats.values())).shape[0] if d is None else d
    if stack is not None and stack.shape[1:] == (d, d):
        return mats, stack
    for label, p in mats.items():
        if p.shape != (d, d):
            raise StructureError(f"projector {label!r} has shape {p.shape}, expected ({d}, {d})")
    raise refused


def _support_projectors(frame: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack of projectors V_x V_x^dag, V_x being the run of
    ``ranks[x]`` columns of the d x m ``frame`` that belongs to outcome x,
    one outcome's run after another's: one stacked product per support
    size, each V_x V_x^dag bit for bit the product of V_x alone."""
    d = frame.shape[0]
    starts = np.cumsum(ranks) - ranks
    # Not np.unique: its first call imports numpy.ma (about 15 ms, 1.4 MB).
    sizes = sorted(set(ranks.tolist()))
    out = None if len(sizes) == 1 else np.empty((len(ranks), d, d), dtype=complex)
    for k in sizes:
        xs = np.flatnonzero(ranks == k)
        # Row i of rows[j] is column i of V_x, x = xs[j].
        rows = frame.T[(starts[xs, None] + np.arange(k)).ravel()].reshape(len(xs), k, d)
        block = rows.swapaxes(-1, -2) @ rows.conj()
        if out is None:
            return block
        out[xs] = block
    return out


def _support_deltas(projectors, frame: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """delta_x = |P_x - V_x V_x^dag|_F per outcome, ``projectors`` being the
    P_x in order (a list or a stack) and V_x the runs of ``frame`` that
    ``_support_projectors`` reads, at most ``_CHUNK_CELLS / 2`` entries of
    V_x V_x^dag at a time."""
    delta, ends = np.empty(len(ranks)), np.cumsum(ranks)
    for part in _chunks(len(ranks), 2 * frame.shape[0] ** 2):
        cols = slice(ends[part][0] - ranks[part][0], ends[part][-1])
        supports = _support_projectors(frame[:, cols], ranks[part])
        supports -= projectors[part]
        delta[part] = np.sqrt(_sq_norms(supports))
    return delta


def _support_frame(spectrum, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The supports at ``tol`` of the frame ``spectrum`` = (U, owner, w) of
    n outcomes, cut by ``_supports`` as one mask ``keep`` on U's columns:
    the kept columns side by side, U_tol = [V_1 | V_2 | ...], one outcome's
    after another's; the number of columns of each outcome; and ``keep``."""
    u, owner, w = spectrum
    u, keep = _supports((w, u), tol)
    return u.T[keep].T, np.bincount(owner[keep], minlength=n), keep


# The per-projector checks of ``_check_pvm``, in the order it reads them.
_PROJECTOR_FAULTS = ("is not Hermitian", "is not idempotent", "is zero, it admits no verifier")


def _check_pvm(labels, stack: np.ndarray, tol: Tolerances, error=StructureError, spectrum=None):
    """Raise ``error`` unless the (n, d, d) ``stack``, labelled in order by
    ``labels``, holds nonzero orthogonal projectors, pairwise orthogonal and
    summing to the identity, all within ``mat_eq``; the message names the
    first projector and its first failed check, or the first pair a loop
    over them would name. Shapes are the boundary's (``_read_only_family``).

    From ``_GRAM_MIN_OUTCOMES`` projectors on, ``_pvm_bounds`` certifies
    the Hermitian and idempotent checks of each projector, and the
    orthogonality of each pair, whose bound is at most mat_eq / 2; the rest
    run directly, stacked. Trace and completeness always run directly.

    Returns the effects' support frame the check read, ``spectrum`` when
    the caller holds the frame of the projectors themselves, with w = 1 (as
    extraction does: each projector is then its own support's, delta 0),
    else ``_pvm_spectrum``; and the delta of the whole frame that the
    bounds read, which the property keeps for ``pvm_commute``, or None.
    """
    (n, d), bounds = stack.shape[:2], None
    if n >= _GRAM_MIN_OUTCOMES:
        held = spectrum is not None
        spectrum = spectrum if held else _pvm_spectrum(stack)
        bounds = _pvm_bounds(stack, spectrum, tol, held)
    # Certified projectors pass; the rest take the direct checks, stacked.
    direct = np.ones(n, dtype=bool) if bounds is None else ~(np.maximum(bounds[1], bounds[2]) <= tol.mat_eq / 2)
    failed = np.zeros((n, 3), dtype=bool)
    if direct.any():
        part = stack if direct.all() else stack[direct]
        failed[direct, 0] = np.sqrt(_sq_norms(part - part.conj().swapaxes(-1, -2))) > tol.mat_eq
        failed[direct, 1] = np.sqrt(_sq_norms(part @ part - part)) > tol.mat_eq
    failed[:, 2] = np.trace(stack, axis1=1, axis2=2).real < 0.5
    if failed.any():
        i, check = np.argwhere(failed)[0]
        raise error(f"projector {labels[i]!r} {_PROJECTOR_FAULTS[check]}")
    if spectrum is None:
        spectrum = _pvm_spectrum(stack)
    suspect = np.arange(n)[:, None] < np.arange(n)
    if bounds is not None:
        suspect &= ~(bounds[3] <= tol.mat_eq / 2)
    for i in np.flatnonzero(suspect.any(axis=1)):
        pairs = np.flatnonzero(suspect[i])
        bad = pairs[np.sqrt(_sq_norms(stack[i] @ stack[pairs])) > tol.mat_eq]
        if bad.size:
            raise error(f"projectors {labels[i]!r} and {labels[bad[0]]!r} are not orthogonal")
    if float(np.linalg.norm(stack.sum(axis=0) - np.eye(d))) > tol.mat_eq:
        raise error("projectors do not sum to the identity (incomplete PVM)")
    return spectrum, None if bounds is None else bounds[0]


def _pvm_spectrum(stack: np.ndarray):
    """The support frame (U, owner, w) of the effects E_x = P_x^dag P_x of
    a checked PVM stack: U holds the columns whose eigenvalue is at least
    1/2, orthonormal within each outcome's run (README, "Numerical
    conventions").

    Outcome x's run is read from k_x = min(rint(|P_x|_F^2), d) columns of
    P_x, chosen by Cholesky with complete pivoting (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, 10.3): on a projector
    every pivot is at least 1/d, so they are independent. A rank-1 column
    is only normalised, to u, with w = |P_x u|^2; a wider run is
    orthonormalised, one stacked QR per rank, and w holds the eigenvalues
    of the effect compressed to it, whose eigenvectors rotate it: one
    stacked k x k eigh per rank. By min-max, every eigenvalue of E_x off
    the top k_x is at most |P_x|_F^2 - sum(w on x's run); where that
    reaches 1/2, below every cut 1 - prob_eq, the frame is read from the
    batched eigh of the effects instead.
    """
    n, d = stack.shape[:2]
    squares = _sq_norms(stack)
    ranks = np.minimum(np.rint(squares), d).astype(int)
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    ends = np.cumsum(ranks)
    starts, rows, w = ends - ranks, np.empty((ends[-1], d), dtype=complex), np.empty(ends[-1])
    for k in sorted(set(ranks[ranks > 0].tolist())):
        xs = np.flatnonzero(ranks == k)
        # Every run of one rank (rank-1 PVMs, equal blocks): no copy of the stack.
        p, at = stack if len(xs) == n else stack[xs], np.arange(len(xs))
        if k == 1:
            cols = p[at, :, np.argmax(diag[xs], axis=1)]
            norms = np.linalg.norm(cols, axis=1)
            # A zero column stays zero, w = 0, and the min-max test refuses it.
            rows[starts[xs]] = u = cols / np.where(norms > 0.0, norms, 1.0)[:, None]
            w[starts[xs]] = np.square(np.abs(p @ u[..., None])).sum(axis=(1, 2))
            continue
        # Each pivot is the largest diagonal entry of the Schur complement the
        # earlier steps leave; row j of chol[i] is column j of xs[i]'s factor.
        res, floor = diag[xs].copy(), np.finfo(float).eps * squares[xs]
        chol = np.zeros((len(xs), k, d), dtype=complex)
        for j in range(k):
            piv = np.argmax(res, axis=1)
            col, pivot = p[at, :, piv] - (chol[at, :j, piv].conj()[:, None] @ chol[:, :j])[:, 0], res[at, piv]
            # A pivot at rounding level adds no direction: its column stays zero.
            chol[:, j] = col * (np.where(pivot > floor, pivot, np.inf) ** -0.5)[:, None]
            res -= np.square(np.abs(chol[:, j]))
            res[at, piv] = -np.inf
        frames = np.linalg.qr(chol.swapaxes(-1, -2))[0]
        images = p @ frames
        run = starts[xs, None] + np.arange(k)
        w[run], rot = np.linalg.eigh(images.conj().swapaxes(-1, -2) @ images)
        rows[run] = (frames @ rot).swapaxes(-1, -2)
    owner = np.repeat(np.arange(n), ranks)
    if not (squares - np.bincount(owner, w, n) < 0.5).all():
        w, v = np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
        rows, owner, w = v.swapaxes(-1, -2).reshape(-1, d), np.repeat(np.arange(n), d), w.ravel()
    half = w >= 0.5
    return rows[half].T, owner[half], w[half]


# From this many outcomes on, ``_check_pvm`` certifies the Hermitian and
# idempotent checks and pairwise orthogonality from one Gram of the support
# frame (``_pvm_bounds``), and from this many pairs on ``pvm_commute`` reads
# its overlap table. Timed on the pairwise products alone: at d = 8 on one BLAS
# thread they are even at 8 outcomes; at 2 the Gram costs five products.
_GRAM_MIN_OUTCOMES = 8


def _pvm_bounds(stack: np.ndarray, spectrum, tol: Tolerances, held: bool = False):
    """``(delta, hermitian, idempotent, pairs)``: the delta below, or None
    unless the cut kept every column of the frame, and upper bounds on the
    computed |P_x - P_x^dag|_F, |P_x^2 - P_x|_F and, at (a, b), |P_a P_b|_F,
    from the supports V_x that ``_support_frame`` cuts from the frame
    ``spectrum`` at ``tol``; None when a support is empty, for it bounds
    nothing.

    With delta_x = |P_x - V_x V_x^dag|_F (``_support_deltas``; 0 when
    ``held``: the stack is its frame's own V_x V_x^dag, bit for bit) and
    the Gram G = U^dag U of U = [V_1 | V_2 | ...], whose diagonal blocks
    give eps_x = |V_x^dag V_x - I|_F, the bounds are 2 delta_x,
    eps_x (1 + eps_x) + delta_x (3 + 2 eps_x + delta_x) and
    |G_ab|_F + delta_a + delta_b + delta_a delta_b, each plus the rounding
    term 16 d^2 u (1 + eps_a + delta_a)(1 + eps_b + delta_b), a = b = x for
    the first two, u the unit roundoff (README, "Numerical conventions").
    """
    frame, ranks, keep = _support_frame(spectrum, len(stack), tol)
    if not ranks.all():
        return None
    delta = np.zeros(len(stack)) if held else _support_deltas(stack, frame, ranks)
    # G - I: the off-diagonal blocks stay the V_a^dag V_b. Columns of U come
    # outcome by outcome, so block sums are reduceat sums.
    gram = frame.conj().T @ frame
    gram.flat[:: len(gram) + 1] -= 1.0
    starts = np.cumsum(ranks) - ranks
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(gram) ** 2, starts, axis=0), starts, axis=1))
    eps, d = np.diagonal(norms), stack.shape[-1]
    scale = 1.0 + eps + delta
    rounding = 16 * d * d * (np.finfo(float).eps / 2) * scale[:, None] * scale
    own = np.diagonal(rounding)
    return (delta if keep.all() else None, 2.0 * delta + own,
            eps * (1.0 + eps) + delta * (3.0 + 2.0 * eps + delta) + own,
            norms + delta[:, None] + delta * (1.0 + delta[:, None]) + rounding)
