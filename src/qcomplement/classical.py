"""Finite classical theory backend.

States are column probability vectors, operations act by left multiplication
with nonnegative substochastic matrices, and the unique deterministic effect
is the all-ones row covector. Atomicity in the classical cone means a single
nonzero entry (the extremal rays of the nonnegative-matrix cone), which is
the counterpart of unit Choi rank. Up to outcome relabelling there is a
single classical elementary property: the fine-grained instrument reading out
the phase-space point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import StructureError
from .linalg import DEFAULT_TOL, Tolerances, _check_entries, _index, _trusted

if TYPE_CHECKING:
    from .compatibility import HarnessReport


def _as_real_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    _check_entries(arr, name)
    return arr


@dataclass(frozen=True, eq=False)
class ClassicalOperation:
    """A nonnegative substochastic matrix acting on probability vectors.

    Nonnegativity and column sums are reported by ``validate_classical``, not
    enforced at construction. ``==`` is identity; compare two operations'
    matrices at a tolerance.
    """

    size_in: int
    size_out: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size_in", _index(self.size_in, "size_in"))
        object.__setattr__(self, "size_out", _index(self.size_out, "size_out"))
        arr = _as_real_matrix(self.matrix, "classical matrix")
        if arr.shape != (self.size_out, self.size_in):
            raise StructureError(
                f"matrix has shape {arr.shape}, expected ({self.size_out}, {self.size_in})"
            )
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class ClassicalInstrument:
    size_in: int
    size_out: int
    outcomes: dict[str, ClassicalOperation]

    def __post_init__(self):
        object.__setattr__(self, "size_in", _index(self.size_in, "size_in"))
        object.__setattr__(self, "size_out", _index(self.size_out, "size_out"))
        if not self.outcomes:
            raise StructureError("classical instrument needs at least one outcome")
        for label, op in self.outcomes.items():
            if (op.size_in, op.size_out) != (self.size_in, self.size_out):
                raise StructureError(
                    f"outcome {label!r} acts on ({op.size_in}, {op.size_out}), "
                    f"instrument declares ({self.size_in}, {self.size_out})"
                )
        object.__setattr__(self, "outcomes", dict(self.outcomes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.outcomes)

    def __getitem__(self, label: str) -> ClassicalOperation:
        return self.outcomes[label]

    def total_matrix(self) -> np.ndarray:
        return sum(op.matrix for op in self.outcomes.values())


@dataclass(frozen=True, eq=False)
class ClassicalState:
    """A probability vector; ``==`` is identity, so compare ``probs`` at a
    tolerance."""

    size: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size", _index(self.size, "size"))
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.shape != (self.size,):
            raise StructureError(f"probs has length {probs.size}, expected {self.size}")
        # Written so that NaN fails each test.
        if not np.all(probs >= -DEFAULT_TOL.prob_eq):
            raise StructureError("probabilities must be nonnegative")
        if not abs(float(probs.sum()) - 1.0) <= DEFAULT_TOL.prob_eq:
            raise StructureError("probabilities must sum to one")
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))


def point_mass(size: int, index: int) -> ClassicalState:
    size, index = _index(size, "size"), _index(index, "point")
    if not 0 <= index < size:
        raise StructureError(f"point {index} out of range for size {size}")
    probs = np.zeros(size)
    probs[index] = 1.0
    return ClassicalState(size, probs)


@dataclass(frozen=True)
class ClassicalReport:
    is_valid: bool
    problems: tuple[str, ...] = ()


def validate_classical(ins: ClassicalInstrument, tol: Tolerances = DEFAULT_TOL) -> ClassicalReport:
    """Nonnegativity and substochasticity per outcome, stochasticity of the sum."""
    problems: list[str] = []
    for label, op in ins.outcomes.items():
        if np.any(op.matrix < -tol.prob_eq):
            problems.append(f"outcome {label!r} has negative entries")
        col_sums = op.matrix.sum(axis=0)
        if np.any(col_sums > 1.0 + tol.prob_eq):
            problems.append(
                f"outcome {label!r} has column sums above one (max {float(col_sums.max()):.6f})"
            )
    total = ins.total_matrix().sum(axis=0)
    if np.any(np.abs(total - 1.0) > tol.prob_eq):
        problems.append("full coarse-graining is not deterministic (column sums differ from 1)")
    return ClassicalReport(is_valid=not problems, problems=tuple(problems))


def classical_is_elementary(
    ins: ClassicalInstrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, ClassicalInstrument | None]:
    """Decide whether the instrument is the classical elementary property.

    True iff every outcome matrix has exactly one nonzero entry, that entry
    sits on the diagonal with value one (a single off-diagonal entry cannot
    be idempotent, a non-unit one cannot be repeatable), and the diagonal
    positions partition the phase space. The canonical form returned on
    success is the same instrument with outcomes sorted by their point.
    """
    if ins.size_in != ins.size_out:
        raise StructureError("elementary decision needs size_in = size_out")
    n = ins.size_in
    points: dict[str, int] = {}
    for label, op in ins.outcomes.items():
        rows, cols = np.nonzero(np.abs(op.matrix) > tol.prob_eq)
        if len(rows) != 1:
            return False, None
        r, c = int(rows[0]), int(cols[0])
        if r != c or abs(float(op.matrix[r, c]) - 1.0) > tol.prob_eq:
            return False, None
        points[label] = r
    if sorted(points.values()) != list(range(n)):
        return False, None
    ordered = sorted(ins.outcomes, key=points.get)
    canonical = ClassicalInstrument(n, n, {label: ins[label] for label in ordered})
    return True, canonical


@dataclass(frozen=True)
class ClassicalVerifierReport:
    is_verifier: bool
    is_strong: bool


def classical_verifier_checks(
    op: ClassicalOperation, state: ClassicalState, tol: Tolerances = DEFAULT_TOL
) -> ClassicalVerifierReport:
    """Probability-one check versus exact invariance of the distribution."""
    if op.size_in != state.size:
        raise StructureError(
            f"operation expects size {op.size_in}, state has size {state.size}"
        )
    out = op.matrix @ state.probs
    verifier = float(out.sum()) >= 1.0 - tol.prob_eq
    strong = op.size_in == op.size_out and bool(
        np.max(np.abs(out - state.probs)) <= tol.prob_eq
    )
    return ClassicalVerifierReport(is_verifier=verifier, is_strong=strong)


def verifier_points(op: ClassicalOperation, tol: Tolerances = DEFAULT_TOL) -> frozenset[int]:
    """Phase-space points on which the operation fires with probability one:
    column sums at least 1 - ``prob_eq``.

    A state is a verifier iff its support lies inside this set.
    """
    return frozenset(np.flatnonzero(op.matrix.sum(axis=0) >= 1.0 - tol.prob_eq).tolist())


def fine_grained_instrument(size: int, permutation=None) -> ClassicalInstrument:
    """The unique classical elementary property, optionally relabelled."""
    size = _index(size, "size")
    if size < 1:
        raise StructureError(f"size must be at least 1, got {size}")
    if permutation is None:
        order = list(range(size))
    else:
        order = [_index(p, "permutation entry") for p in permutation]
    if sorted(order) != list(range(size)):
        raise StructureError(f"permutation must rearrange 0..{size - 1}, got {order}")
    outcomes = {}
    for i, point in enumerate(order):
        mat = np.zeros((size, size))
        mat[point, point] = 1.0
        outcomes[f"x{i}"] = _trusted(ClassicalOperation, size_in=size, size_out=size, matrix=mat)
    return _trusted(ClassicalInstrument, size_in=size, size_out=size, outcomes=outcomes)


# A trial's ancilla has 1 to _ANCILLA levels; a chunk pads each to _ANCILLA.
_ANCILLA = 3


def _classical_batch(gens: list, size: int, tol: Tolerances) -> list:
    """Harness trials for the classical verifier-inclusion theorem, one per
    generator.

    The repeatable instrument is fine-grained by construction (repeatable
    draws are measure-zero otherwise): outcome x heralds and verifies point
    perm[x] alone. The realisation tensors a random ancilla distribution
    sigma_x onto each heralded point, and the post-processing routes each
    branch to outcomes with a deterministic output point. A composite g_y
    therefore reads only the point its branch heralds: its one possibly
    nonzero entry, (w_y . sigma).sum, sits in that point's column. It is
    atomic when that entry exceeds ``prob_eq``, and its verifier points are
    then that one point or none, inside its branch's: inclusion holds by
    construction, so only the atomic composites are counted. Each trial
    makes its draws in turn, and the entries then come from one pass over all
    trials.

    Per branch, a trial draws one output point for each outcome reading it
    (never read, since verifier points are columns, but part of the
    stream), then whether each input (point, level) goes to one drawn
    outcome or is split at random, then those outcomes or weights. The
    output points and a trial's extra readers are drawn as scalars: a draw
    with ``size`` pays about 4 us for ``np.prod(size)``, more than the one
    to three values cost, and numpy's integer draws consume the same stream
    either way. A branch with one reader skips its outcome draw, which
    would consume nothing and return zeros.
    """
    from .compatibility import _case_index, _draw_branches

    n, pad = size, _ANCILLA
    perms, sigmas, levels, branches, readers, single, choices, draws = ([] for _ in range(8))
    for gen in gens:
        rng = gen.rng
        perms.append(rng.permutation(n))
        m = int(rng.integers(1, pad + 1))
        sigmas.append(rng.random((n, m)))
        levels.append(m)
        reads, counts = _draw_branches(rng, n)
        branches.append(reads)
        readers.extend(counts)
        for count in counts:
            for _ in range(count):
                rng.integers(0, n)
            single.append(rng.random() < 0.5)
            if not single[-1]:
                draws.append(rng.random((n * m, count)).ravel())
            elif count > 1:
                choices.append(rng.integers(0, count, size=n * m))
            else:
                choices.append(np.zeros(n * m, dtype=int))
    trial, _, _, branch = _case_index(branches, [n] * len(gens))
    cases = np.arange(len(branch))
    levels = np.array(levels)
    level = np.arange(pad)

    # One row per branch and input of width 3 (a branch has at most 3
    # readers), normalised by its sum taken left to right, as numpy sums rows.
    inputs = n * levels.repeat(n)
    single = np.array(single).repeat(inputs)
    readers = np.array(readers)
    weights = np.zeros((len(single), 3))
    weights[np.flatnonzero(single), np.concatenate(choices or [np.empty(0, dtype=int)])] = 1.0
    weights[~single[:, None] & (np.arange(3) < readers.repeat(inputs)[:, None])] = np.concatenate(
        draws or [np.empty(0)]) + 1e-3
    weights /= ((weights[:, 0] + weights[:, 1]) + weights[:, 2])[:, None]

    # Outcome y's weights w_y[point[y], a]: its branch's rows at the point
    # the branch heralds, at y's rank among the branch's readers.
    point = np.concatenate(perms)[branch]
    by_branch = np.argsort(branch, kind="stable")
    rank = np.empty_like(branch)
    rank[by_branch] = cases - (np.cumsum(readers) - readers)[branch[by_branch]]
    m_y = levels[trial][:, None]
    row = (np.cumsum(inputs) - inputs)[branch][:, None] + point[:, None] * m_y + level
    w = np.where(level < m_y, weights[np.where(level < m_y, row, 0), rank[:, None]], 0.0)

    sigma = np.zeros((len(gens), n, pad))
    sigma[np.broadcast_to(level < levels[:, None, None], sigma.shape)] = np.concatenate(
        [s.ravel() for s in sigmas]) + 1e-3
    sigma = (sigma / sigma.sum(axis=2, keepdims=True)).reshape(-1, pad)

    # The realisation of x takes perm[x] to (perm[x], a) with weight
    # sigma_x[a], and post_y takes (p, a) to its output point with weight
    # w_y[p, a]: g_y's one entry, in column point[y].
    atomic = (w * sigma[branch]).sum(axis=1) > tol.prob_eq
    return [(c, []) for c in np.bincount(trial[atomic], minlength=len(gens)).tolist()]


def classical_theorem_harness(
    seed: int, size: int, trials: int, tol: Tolerances = DEFAULT_TOL
) -> HarnessReport:
    """Random trials of the verifier-inclusion theorem in classical theory.

    Each atomic composite reads only the point its branch heralds, so its
    verifier points lie inside its branch's by construction: the report
    counts the atomic composites and its violations are always 0. The
    harness driver lives in ``compatibility``, which is imported here so
    that the rest of this module loads without it."""
    from .compatibility import _run_harness

    return _run_harness("classical", _classical_batch, seed, size, trials, tol)
