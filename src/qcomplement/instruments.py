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
from functools import reduce
from math import isqrt
from types import MappingProxyType

import numpy as np

from .errors import ExtractionError, PreconditionError, StructureError
from .linalg import _CHUNK_CELLS, _FINITE, DEFAULT_TOL, Tolerances, _check_entries, _index, _is_psd, _supports, _trusted, as_matrix
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
    a spectral decomposition (w, v) of their effects P^dag P in ``labels``
    order, tied to no tolerance and set by every construction path:
    ``to_elementary`` holds the exact 0/1 spectrum of the effects'
    eigenvectors it built the projectors from; ``random_pvm`` the exact 0/1
    spectrum of its one Haar unitary, and the constructor and ``from_pvm``
    the spectrum their PVM check read (see ``_pvm_spectrum``). The last two
    hold v as a read-only broadcast of one d x d frame over the outcomes.

    The constructor checks its input: ``base`` must be square, the
    projectors a PVM, and each outcome's operation within ``mat_eq`` of its
    projector's map rho -> P rho P, all at ``DEFAULT_TOL``, else
    ``StructureError``. ``==`` is identity: two properties are equal when
    their outcome maps are, by ``choi_distance`` at a tolerance.
    """

    base: Instrument
    projectors: Mapping[str, np.ndarray]

    def __post_init__(self):
        base = self.base
        if base.dim_in != base.dim_out:
            raise StructureError("elementary properties need dim_in = dim_out")
        if set(self.projectors) != set(base.outcomes):
            raise StructureError("projector labels do not match instrument outcomes")
        mats = {label: _read_only(label, self.projectors[label]) for label in base.labels}
        spectrum = _check_pvm(mats, base.dim_in, DEFAULT_TOL)
        residual = _projector_residuals(base, _kraus_groups(base), np.stack(list(mats.values())))
        for label, res in zip(base.labels, residual):
            if not res <= DEFAULT_TOL.mat_eq:
                raise StructureError(f"outcome {label!r}: operation is not its projector's map")
        object.__setattr__(self, "projectors", MappingProxyType(mats))
        object.__setattr__(self, "_spectrum", spectrum)

    def __reduce__(self):
        # A mapping proxy does not pickle; the property is rebuilt from a dict
        # and the spectrum it holds. A frame every outcome shares (stride 0)
        # travels once and is broadcast again on load.
        w, v = self._spectrum
        return _elementary, (self.base, dict(self.projectors), (w, v[0] if v.strides[0] == 0 else v))

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
    residual = _projector_residuals(ins, groups, stack)
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
    # Each checked projector is its outcome's one Kraus matrix, rho -> P rho P.
    ops = {label: _trusted(QuantumOperation, dim_in=d, dim_out=d, kraus=(p,)) for label, p in mats.items()}
    return _elementary(Instrument(d, d, ops), mats, spectrum)


def _elementary(base: Instrument, projectors: dict[str, np.ndarray], spectrum) -> ElementaryProperty:
    """An elementary property from projectors already checked against
    ``base``, in its outcome order, holding their effects' ``spectrum``; the
    arrays are made read-only and held in a read-only mapping, so no write
    can make the property's spectrum stale. A spectrum whose v is one (d, d)
    frame holds it broadcast over the outcomes."""
    for p in projectors.values():
        p.flags.writeable = False
    w, v = spectrum
    if v.ndim == 2:
        spectrum = (w, np.broadcast_to(v, (len(w), *v.shape)))
    return _trusted(ElementaryProperty, base=base, projectors=MappingProxyType(projectors), _spectrum=spectrum)


def _read_only(label: str, p) -> np.ndarray:
    """A read-only copy, so no write can make a property's spectrum stale."""
    mat = as_matrix(p, f"projector {label!r}").copy()
    mat.flags.writeable = False
    return mat


def _support_projectors(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack of projectors V_x V_x^dag onto the supports of
    ``_supports``, V_x being ``v[x][:, keep[x]]``: one stacked product per
    support size, each V_x V_x^dag bit for bit the product of V_x alone."""
    ranks = keep.sum(axis=1)
    # Not np.unique: its first call imports numpy.ma (about 15 ms, 1.4 MB).
    sizes = sorted(set(ranks.tolist()))
    out = None if len(sizes) == 1 else np.empty((len(keep), *v.shape[-2:]), dtype=complex)
    for k in sizes:
        xs = np.flatnonzero(ranks == k)
        rows, cols = np.nonzero(keep[xs])
        # Row i of frames[j] is column i of V_x, x = xs[j].
        frames = v[xs[rows], :, cols].reshape(len(xs), k, v.shape[-2])
        block = frames.swapaxes(-1, -2) @ frames.conj()
        if out is None:
            return block
        out[xs] = block
    return out


def _support_deltas(projectors, v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """delta_x = |P_x - V_x V_x^dag|_F per outcome, ``projectors`` being the
    P_x in order (a list or a stack) and V_x the supports of ``_supports``
    as ``_support_projectors`` builds them, at most ``_CHUNK_CELLS / 2``
    entries of V_x V_x^dag at a time."""
    delta = np.empty(len(keep))
    for part in _chunks(len(keep), 2 * v.shape[-1] ** 2):
        supports = _support_projectors(v[part], keep[part])
        supports -= projectors[part]
        delta[part] = np.linalg.norm(supports, axis=(1, 2))
    return delta


def _support_frame(spectrum, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The supports of ``spectrum`` at ``tol`` side by side, U = [V_1 | V_2 |
    ...], one outcome's columns after another's, and the number of columns
    of each outcome."""
    v, keep = _supports(spectrum, tol)
    return v.swapaxes(-1, -2)[keep].T, keep.sum(axis=1)


# The per-projector checks of ``_check_pvm``, in the order it reads them.
_PROJECTOR_FAULTS = ("is not Hermitian", "is not idempotent", "is zero, it admits no verifier")


def _check_pvm(mats: dict[str, np.ndarray], d: int, tol: Tolerances, error=StructureError, spectrum=None):
    """Raise ``error`` unless ``mats`` are nonzero d x d orthogonal projectors,
    pairwise orthogonal and summing to the identity, all within ``mat_eq``.

    The shapes are checked in a loop, then the Hermitian, idempotent and
    nonzero checks run stacked over the projectors before the first bad
    shape; the message names the first projector that fails, and its first
    failed check, as a loop over projectors would.

    Returns the effects' spectrum the check read: ``spectrum`` when the
    caller holds one, else ``_pvm_spectrum`` of the projectors, computed
    once the per-projector checks have passed. A held spectrum must be the
    exact 0/1 spectrum of ``mats`` themselves, as extraction's is, so each
    projector is its own support projector and no V_x V_x^dag is rebuilt.
    """
    labels, given = list(mats), list(mats.values())
    shaped = next((i for i, p in enumerate(given) if p.shape != (d, d)), len(given))
    if shaped:
        stack = np.stack(given[:shaped])
        failed = np.stack([
            np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(1, 2)) > tol.mat_eq,
            np.linalg.norm(stack @ stack - stack, axis=(1, 2)) > tol.mat_eq,
            np.trace(stack, axis1=1, axis2=2).real < 0.5,
        ], axis=1)
        if failed.any():
            i, check = np.argwhere(failed)[0]
            raise error(f"projector {labels[i]!r} {_PROJECTOR_FAULTS[check]}")
    if shaped < len(given):
        raise error(f"projector {labels[shaped]!r} has shape {given[shaped].shape}, expected ({d}, {d})")
    held = spectrum is not None
    if not held:
        spectrum = _pvm_spectrum(stack)
    n = len(stack)
    suspect = np.arange(n)[:, None] < np.arange(n)
    if n >= _GRAM_MIN_OUTCOMES:
        bound = _orthogonality_bound(stack, spectrum, tol, held)
        suspect &= ~(bound <= tol.mat_eq / 2)
    for i in np.flatnonzero(suspect.any(axis=1)):
        pairs = np.flatnonzero(suspect[i])
        bad = pairs[np.linalg.norm(stack[i] @ stack[pairs], axis=(1, 2)) > tol.mat_eq]
        if bad.size:
            raise error(f"projectors {labels[i]!r} and {labels[bad[0]]!r} are not orthogonal")
    if float(np.linalg.norm(stack.sum(axis=0) - np.eye(d))) > tol.mat_eq:
        raise error("projectors do not sum to the identity (incomplete PVM)")
    return spectrum


def _pvm_spectrum(stack: np.ndarray):
    """A spectrum (w, v) of the effects E_x = P_x^dag P_x of a checked PVM
    stack, read from one eigh: v is one d x d matrix, broadcast read-only
    over the n outcomes, whose columns are orthonormal within each outcome's
    run.

    The eigenvalues of the Hermitian part of H = sum_x x P_x sit near the
    outcome indices, so eigenvector j goes to outcome clip(rint(lambda_j),
    0, n - 1); each outcome's columns U_x are a run, since lambda ascends.
    One power step, E_x U_x orthonormalised into Q_x, turns the run onto
    the effect's range, from which U_x leans by about the family's overlaps.
    On its run, w[x] holds the eigenvalues of (P_x Q_x)^dag (P_x Q_x), the
    effect compressed to Q_x, whose eigenvectors rotate Q_x; w[x] is 0 on
    every other column. A rank-1 run reads |P_x q|^2 directly, and larger
    ones take one stacked eigh per run length.

    By min-max, every eigenvalue of E_x off the top |U_x| is at most
    tr E_x - tr(Q_x^dag E_x Q_x) = |P_x|_F^2 - sum(w[x]). Where that reaches
    1/2, below every cut 1 - prob_eq, a run may miss a support direction
    (eigenvalues of H off their index by 1/2 or more): the spectrum is then
    the batched eigh of the effects, one per outcome.
    """
    n, d = stack.shape[:2]
    h = np.tensordot(np.arange(n, dtype=float), stack, axes=1)
    lam, u = np.linalg.eigh((h + h.conj().T) / 2.0)
    sizes = np.bincount(np.clip(np.rint(lam), 0, n - 1).astype(int), minlength=n)
    starts = np.cumsum(sizes) - sizes
    w = np.zeros((n, d))
    for k in np.unique(sizes[sizes > 0]).tolist():
        xs = np.flatnonzero(sizes == k)
        cols = starts[xs, None] + np.arange(k)
        # Every run of one length (rank-1 PVMs, equal blocks): no copy of the stack.
        p = stack if len(xs) == n else stack[xs]
        # E_x U_x = ((P_x U_x)^dag P_x)^dag, without a conjugate copy of P_x.
        turned = ((p @ u[:, cols].transpose(1, 0, 2)).conj().swapaxes(-1, -2) @ p).conj().swapaxes(-1, -2)
        frames = np.linalg.qr(turned)[0]
        images = p @ frames
        if k == 1:
            w[xs[:, None], cols] = np.square(np.abs(images)).sum(axis=1)
        else:
            w[xs[:, None], cols], rot = np.linalg.eigh(images.conj().swapaxes(-1, -2) @ images)
            frames = frames @ rot
        u[:, cols] = frames.transpose(1, 0, 2)
    flat = stack.reshape(n, -1).view(float)
    if not (np.einsum("ij,ij->i", flat, flat) - w.sum(axis=1) < 0.5).all():
        return np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
    return w, np.broadcast_to(u, (n, d, d))


# From this many outcomes on, one Gram of the support frames costs less than
# the n(n-1)/2 direct products: at d = 8 on one BLAS thread the two are even
# at 8 outcomes, and at 2 outcomes the Gram costs five times the one product.
_GRAM_MIN_OUTCOMES = 8


def _orthogonality_bound(stack: np.ndarray, spectrum, tol: Tolerances, held: bool = False) -> np.ndarray:
    """An (n, n) array whose entry (a, b) bounds |P_a P_b|_F from above.

    Not the Gram form <P_a^dag P_a, P_b P_b^dag> = |P_a P_b|_F^2: its rounding
    of about 1e-16 is mat_eq^2, so exact PVMs at d = 32 fail it. Here each
    entry of G = U^dag U, with U the ``_support_frame`` of ``spectrum`` at
    ``tol``, is an inner product computed directly, so a block norm
    |V_a^dag V_b|_F is itself good to about 1e-16. With
    delta_x = |P_x - V_x V_x^dag|_F (``_support_deltas``),
    |P_a P_b|_F <= |V_a^dag V_b|_F + delta_a + delta_b + delta_a delta_b.
    ``held`` says that the spectrum is the exact 0/1 spectrum of the stack
    itself, whose supports rebuild it bit for bit: every delta is 0.
    A pair whose bound is at most mat_eq / 2 passes the direct check with
    room to spare; ``_check_pvm`` runs that check on every other pair, in
    order, so the first bad pair named is the one the pairwise loop names.
    """
    frame, ranks = _support_frame(spectrum, tol)
    if not ranks.all():
        # An empty support bounds nothing: every pair runs the direct check.
        return np.full((len(stack), len(stack)), np.inf)
    delta = np.zeros(len(stack)) if held else _support_deltas(stack, *_supports(spectrum, tol))
    # Columns of U come outcome by outcome, so block sums are reduceat sums.
    starts = np.cumsum(ranks) - ranks
    gram = np.abs(frame.conj().T @ frame) ** 2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts, axis=1))
    return norms + delta[:, None] + delta * (1.0 + delta[:, None])
