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
from .linalg import DEFAULT_TOL, Tolerances
from .sampling import SeededGenerator


def _as_real_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise StructureError(f"{name} contains non-finite entries")
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
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.shape != (self.size,):
            raise StructureError(f"probs has length {probs.size}, expected {self.size}")
        if np.any(probs < -DEFAULT_TOL.prob_eq):
            raise StructureError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > DEFAULT_TOL.prob_eq:
            raise StructureError("probabilities must sum to one")
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))


def point_mass(size: int, index: int) -> ClassicalState:
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
    """Phase-space points on which the operation fires with probability one.

    A state is a verifier iff its support lies inside this set.
    """
    col_sums = op.matrix.sum(axis=0)
    return frozenset(int(j) for j in np.nonzero(col_sums >= 1.0 - tol.prob_eq)[0])


def fine_grained_instrument(size: int, permutation=None) -> ClassicalInstrument:
    """The unique classical elementary property, optionally relabelled."""
    order = list(range(size)) if permutation is None else [int(p) for p in permutation]
    if sorted(order) != list(range(size)):
        raise StructureError(f"permutation must rearrange 0..{size - 1}, got {order}")
    outcomes = {}
    for i, point in enumerate(order):
        mat = np.zeros((size, size))
        mat[point, point] = 1.0
        outcomes[f"x{i}"] = ClassicalOperation(size, size, mat)
    return ClassicalInstrument(size, size, outcomes)


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
    perm = [int(v) for v in rng.permutation(n)]
    t = fine_grained_instrument(n, perm)
    x_labels = list(t.labels)
    point_of = {label: perm[i] for i, label in enumerate(x_labels)}

    m = int(rng.integers(1, 4))
    sigma = {}
    for x in x_labels:
        raw = rng.random(m) + 1e-3
        sigma[x] = raw / raw.sum()

    # Realisation branch per heralded point: (E_pp p) tensor sigma_x.
    c_ops = {}
    for x in x_labels:
        mat = np.zeros((n * m, n))
        p = point_of[x]
        mat[p * m : (p + 1) * m, p] = sigma[x]
        c_ops[x] = ClassicalOperation(n, n * m, mat)

    extra = int(rng.integers(0, 3))
    y_labels = [f"y{i}" for i in range(n + extra)]
    order = rng.permutation(n)
    assignment = {}
    for i, y in enumerate(y_labels):
        assignment[y] = x_labels[order[i]] if i < n else x_labels[int(rng.integers(0, n))]

    post: dict[str, dict[str, np.ndarray]] = {}
    for z in x_labels:
        branch_ys = [y for y in y_labels if assignment[y] == z]
        out_point = {y: int(rng.integers(0, n)) for y in branch_ys}
        deterministic = bool(rng.random() < 0.5)
        mats = {y: np.zeros((n, n * m)) for y in y_labels}
        for u in range(n * m):
            if deterministic:
                weights = np.zeros(len(branch_ys))
                weights[int(rng.integers(0, len(branch_ys)))] = 1.0
            else:
                raw = rng.random(len(branch_ys)) + 1e-3
                weights = raw / raw.sum()
            for w_val, y in zip(weights, branch_ys):
                mats[y][out_point[y], u] += w_val
        post[z] = mats

    checked = 0
    violations = []
    for y in y_labels:
        g_y = np.zeros((n, n))
        for z in x_labels:
            g_y += post[z][y] @ c_ops[z].matrix
        nz = np.nonzero(np.abs(g_y) > tol.prob_eq)
        if len(nz[0]) == 0 or len(nz[0]) > 1:
            continue
        checked += 1
        g_op = ClassicalOperation(n, n, g_y)
        matched = max(
            x_labels,
            key=lambda x: float(np.abs(post[x][y] @ c_ops[x].matrix).sum()),
        )
        g_points = verifier_points(g_op, tol)
        t_points = verifier_points(t[matched], tol)
        if not g_points <= t_points:
            violations.append((y, matched, sorted(g_points), sorted(t_points)))
    return checked, violations


def classical_theorem_harness(
    seed: int, size: int, trials: int, tol: Tolerances = DEFAULT_TOL
) -> HarnessReport:
    """Random check of the verifier-inclusion theorem in classical theory."""
    if size < 2:
        raise StructureError("harness needs size at least 2")
    return _run_harness("classical", _classical_trial, seed, size, trials, tol)
