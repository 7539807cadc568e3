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


# A trial's ancilla has 1 to _ANCILLA levels, drawn uniformly.
_ANCILLA = 3


def _classical_batch(gens: list, size: int, tol: Tolerances) -> list:
    """Harness trials for the classical verifier-inclusion theorem: each
    generator's count of atomic composites, with no violations.

    Outcome x of the fine-grained repeatable instrument heralds point
    perm[x]; the realisation puts sigma_x on its levels, and composite y of
    branch x has the one possibly nonzero entry sum_a w_y[perm[x], a]
    sigma_x[a], so only the m rows at perm[x] of x's weights are read. With
    one reader, w_y is 1 on every input (x / x for a split), so the entry is
    about 1, above every ``prob_eq`` (below 1/2), and counts with no
    arithmetic.

    Per branch, a trial draws one output point for each reader (never read,
    since verifier points are columns, but part of the stream), whether
    each input goes to one drawn reader or is split at random, then those
    readers or weights for every input. Draws of one to three values are
    scalars: a draw with ``size`` pays about 4 us for ``np.prod(size)``,
    and numpy's integer draws consume the same stream either way. A branch
    with one reader skips its reader draw, which would consume nothing.
    """
    from .compatibility import _draw_branches
    from .sampling import _streams

    n = size
    results = []
    for rng in _streams(gens):
        perm = rng.permutation(n)
        m = int(rng.integers(1, _ANCILLA + 1))
        sigma = rng.random((n, m)) + 1e-3
        _, counts = _draw_branches(rng, n)
        atomic = 0
        for x, count in enumerate(counts):
            for _ in range(count):
                rng.integers(0, n)
            split = not rng.random() < 0.5
            if split:
                drawn = rng.random((n * m, count))
            elif count > 1:
                drawn = rng.integers(0, count, size=n * m)
            if count == 1:
                atomic += 1
                continue
            rows = drawn[perm[x] * m:perm[x] * m + m]
            if split:
                weights = rows + 1e-3
                weights /= weights.sum(axis=1, keepdims=True)
            else:
                weights = (rows[:, None] == np.arange(count)).astype(float)
            entries = (weights * (sigma[x] / sigma[x].sum())[:, None]).sum(axis=0)
            atomic += int(np.count_nonzero(entries > tol.prob_eq))
        results.append((atomic, []))
    return results


def classical_theorem_harness(
    seed: int, size: int, trials: int, tol: Tolerances = DEFAULT_TOL
) -> HarnessReport:
    """Random trials of the verifier-inclusion theorem in classical theory.

    Each trial draws a fine-grained repeatable instrument, a realisation
    that tensors a random ancilla distribution onto each heralded point, and
    a post-processing that routes each branch's inputs to outcomes with a
    deterministic output point. An atomic composite (one entry above
    ``prob_eq``) reads only the point its branch heralds, so its verifier
    points lie inside its branch's by construction: the report counts the
    atomic composites and its violations are always 0. The harness driver
    lives in ``compatibility``, which is imported here so that the rest of
    this module loads without it."""
    from .compatibility import _run_harness

    return _run_harness("classical", _classical_batch, seed, size, trials, tol)
