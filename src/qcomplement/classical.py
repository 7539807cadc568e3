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

import numpy as np

from .compatibility import HarnessReport, _run_harness
from .errors import StructureError
from .linalg import DEFAULT_TOL, Tolerances, _check_entries, _index, _trusted
from .sampling import SeededGenerator


def _as_real_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    _check_entries(arr, name)
    return arr


@dataclass(frozen=True)
class ClassicalOperation:
    """A nonnegative substochastic matrix acting on probability vectors.

    Nonnegativity and column sums are reported by ``validate_classical``, not
    enforced at construction.
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


@dataclass(frozen=True)
class ClassicalState:
    size: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size", _index(self.size, "size"))
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.shape != (self.size,):
            raise StructureError(f"probs has length {probs.size}, expected {self.size}")
        if np.any(probs < -DEFAULT_TOL.prob_eq):
            raise StructureError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > DEFAULT_TOL.prob_eq:
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


def _verifier_mask(matrices: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Per matrix in a stack (or for one matrix), which input points it
    accepts with probability one: column sums at least 1 − ``prob_eq``."""
    return matrices.sum(axis=-2) >= 1.0 - tol.prob_eq


def verifier_points(op: ClassicalOperation, tol: Tolerances = DEFAULT_TOL) -> frozenset[int]:
    """Phase-space points on which the operation fires with probability one.

    A state is a verifier iff its support lies inside this set.
    """
    return frozenset(int(j) for j in np.nonzero(_verifier_mask(op.matrix, tol))[0])


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


def _check_inclusion(
    t: ClassicalInstrument,
    realisation: np.ndarray,
    post: np.ndarray,
    branch: np.ndarray,
    tol: Tolerances,
) -> tuple[int, list]:
    """Check verifier inclusion for every composite outcome at once.

    ``realisation[x]`` is the (n·m)×n realisation of outcome x of ``t``;
    composite outcome y reads branch ``branch[y]`` alone, with the n×(n·m)
    post-processing ``post[y]``: g_y = post[y] @ realisation[branch[y]].
    Outcomes with exactly one entry of g_y above ``prob_eq`` are atomic, and
    their verifier points must lie inside those of the branch they read.
    """
    x_labels = t.labels
    g = post @ realisation[branch]
    atomic = np.count_nonzero(np.abs(g) > tol.prob_eq, axis=(1, 2)) == 1
    g_points = _verifier_mask(g, tol)
    t_points = _verifier_mask(np.stack([t[x].matrix for x in x_labels]), tol)[branch]
    violations = [
        (f"y{y}", x_labels[branch[y]],
         np.nonzero(g_points[y])[0].tolist(), np.nonzero(t_points[y])[0].tolist())
        for y in np.nonzero(atomic & np.any(g_points & ~t_points, axis=1))[0]
    ]
    return int(np.count_nonzero(atomic)), violations


def _classical_trial(gen: SeededGenerator, size: int, tol: Tolerances):
    """One harness trial for the classical verifier-inclusion theorem.

    The repeatable instrument is fine-grained by construction (repeatable
    draws are measure-zero otherwise); the realisation tensors a random
    ancilla distribution onto each heralded point, and the post-processing
    routes each branch to outcomes with a deterministic output point, making
    the composite outcomes atomic by construction.
    """
    rng = gen.rng
    n = size
    perm = rng.permutation(n)
    t = fine_grained_instrument(n, perm.tolist())

    m = int(rng.integers(1, 4))
    raw = rng.random((n, m)) + 1e-3
    sigma = raw / raw.sum(axis=1, keepdims=True)

    # Realisation branch per heralded point p = perm[x]: (E_pp p) tensor sigma_x.
    realisation = np.zeros((n, n * m, n))
    realisation[np.arange(n)[:, None], perm[:, None] * m + np.arange(m), perm[:, None]] = sigma

    extra = int(rng.integers(0, 3))
    branch = np.concatenate([rng.permutation(n), rng.integers(0, n, size=extra)])

    # Composite outcome y reads branch[y] only: one matrix per y.
    post = np.zeros((n + extra, n, n * m))
    inputs = np.arange(n * m)
    for z in range(n):
        ys = np.nonzero(branch == z)[0]
        out_point = rng.integers(0, n, size=len(ys))
        if rng.random() < 0.5:
            weights = np.zeros((n * m, len(ys)))
            weights[inputs, rng.integers(0, len(ys), size=n * m)] = 1.0
        else:
            raw = rng.random((n * m, len(ys))) + 1e-3
            weights = raw / raw.sum(axis=1, keepdims=True)
        post[ys, out_point, inputs[:, None]] = weights
    return _check_inclusion(t, realisation, post, branch, tol)


def classical_theorem_harness(
    seed: int, size: int, trials: int, tol: Tolerances = DEFAULT_TOL
) -> HarnessReport:
    """Random check of the verifier-inclusion theorem in classical theory."""
    return _run_harness("classical", _classical_trial, seed, size, trials, tol)
