"""Complementarity decisions between elementary properties.

Two elementary properties are complementary when some verifier state of one
fails to verify the other. For projective instruments this reduces to
comparing the projector supports: the properties are non-complementary iff
the support families match under a bijection of outcomes. Degrees (strong,
mild, weak) are classified per verifier state from the outcome distribution
it induces on the other property. Support matching, the witness search and
both degree tables read one overlap matrix between the two support frames,
which ``_overlap`` forms, as it does for ``compatibility.pvm_commute``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import StructureError
from .instruments import ElementaryProperty, _support_frame
from .linalg import DEFAULT_TOL, Tolerances
from .operations import DensityState, _outcome_probabilities, pure_state


class DegreeKind(enum.Enum):
    NOT_COMPLEMENTARY_HERE = "not-complementary-here"
    WEAK = "weak"
    MILD = "mild"
    STRONG = "strong"


@dataclass(frozen=True)
class DegreeVerdict:
    """Outcome distribution of one property on a verifier of the other,
    classified into a complementarity degree."""

    kind: DegreeKind
    probabilities: dict[str, float]
    entropy_bits: float


@dataclass(frozen=True)
class ComplementarityReport:
    complementary: bool
    matched_bijection: dict[str, str] | None
    witness: DensityState | None = None
    degree_table: dict[str, DegreeVerdict] = field(default_factory=dict)
    reverse_degree_table: dict[str, DegreeVerdict] = field(default_factory=dict)


def outcome_entropy(probabilities) -> float:
    """Shannon entropy of an outcome distribution, in bits.

    Entries must be nonnegative and sum to one within ``prob_eq``; they are
    clamped to [0, 1], and the convention 0 log 0 = 0 applies.
    """
    probs = [float(p) for p in probabilities]
    # Written so that NaN fails each test.
    if not all(p >= -DEFAULT_TOL.prob_eq for p in probs):
        raise StructureError("probabilities must be nonnegative")
    if not abs(sum(probs) - 1.0) <= DEFAULT_TOL.prob_eq:
        raise StructureError(f"probabilities sum to {sum(probs)!r}, expected 1")
    return _entropy(min(max(p, 0.0), 1.0) for p in probs)


def _entropy(probs) -> float:
    """Shannon entropy in bits of nonnegative ``probs``, unchecked: for
    probabilities the package computed and clamped itself."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _degrees(rows: np.ndarray, labels, tol: Tolerances) -> list[DegreeVerdict]:
    """The degree verdict of each row of an (m, n) array of outcome
    probabilities over ``labels``, with every test run in one array pass."""
    eps = tol.prob_eq
    certain = (rows >= 1.0 - eps).any(axis=1).tolist()
    strong = (np.abs(rows - 1.0 / rows.shape[1]) <= eps).all(axis=1).tolist()
    mild = ((eps <= rows) & (rows <= 1.0 - eps)).all(axis=1).tolist()
    # + 0.0 turns a clipped -0.0 into the 0.0 that max(0.0, -0.0) gives.
    clamped = (np.clip(rows, 0.0, 1.0) + 0.0).tolist()
    verdicts = []
    for c, s, m, row in zip(certain, strong, mild, clamped):
        kind = (DegreeKind.NOT_COMPLEMENTARY_HERE if c else DegreeKind.STRONG if s
                else DegreeKind.MILD if m else DegreeKind.WEAK)
        verdicts.append(DegreeVerdict(kind, dict(zip(labels, row)), _entropy(row)))
    return verdicts


def degree_for_verifier(
    verifier: DensityState, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> DegreeVerdict:
    """Classify how undetermined property ``q`` is on a given verifier state.

    Boundary handling: a probability within ``prob_eq`` of 1 counts as
    certain (not complementary on this state), within ``prob_eq`` of 0 as
    vanishing. Strong means all outcomes uniform at 1/|Y|; mild means all
    outcomes strictly inside (0, 1); weak allows vanishing outcomes as long
    as none is certain. Reported probabilities are clamped to [0, 1].
    """
    # Each projector is its outcome's effect: Prob(x | rho) = tr(P_x rho_1).
    probs = _outcome_probabilities(list(q.projectors.values()), verifier)
    return _degrees(np.array([probs]), q.labels, tol)[0]


def _overlap(p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances):
    """The one relation of a pair that complementarity and compatibility read:
    the ``_support_frame`` (U, ranks, keep) of each at ``tol``, cut from the
    frame of its effects the property holds (computed once, tied to no
    tolerance), and C = U_P^dag U_Q. Unequal dimensions: ``StructureError``."""
    if p.dim != q.dim:
        raise StructureError(f"properties live on different dimensions: {p.dim} vs {q.dim}")
    frames = [_support_frame(prop._spectrum, len(prop.labels), tol) for prop in (p, q)]
    return *frames, frames[0][0].conj().T @ frames[1][0]


def _witness_vector(frame, coords, weights, blocks, other_blocks, tol: Tolerances):
    """First vector of ``frame``, or uniform superposition of two from one
    block, that verifies no outcome of the other property.

    ``coords`` holds each frame vector's coordinates in the other frame and
    ``weights`` their squared norms per other outcome. Within one support, the
    states that still verify the other property fall into pairwise-orthogonal
    intersection subspaces. Hence either some basis vector already fails, or
    two basis vectors verify distinct outcomes and their superposition fails.
    """
    hit = weights >= 1.0 - tol.prob_eq
    verified = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)  # first outcome, or -1
    for block in blocks.T:
        rows = np.flatnonzero(block)
        failed = rows[verified[rows] < 0]
        if failed.size:
            return frame[:, failed[0]]
        for i, j in combinations(rows, 2):
            if verified[i] != verified[j]:
                mixed = (np.abs(coords[i] + coords[j]) ** 2 / 2.0) @ other_blocks
                if not (mixed >= 1.0 - tol.prob_eq).any():
                    return (frame[:, i] + frame[:, j]) / np.sqrt(2.0)
    return None


def _relation(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances, tables: bool, search: bool = True
) -> ComplementarityReport:
    """One pass over the ``_overlap`` C of the two properties.

    Block (x, y) of C compares the supports of x and y: they are equal when
    every row and every column of the block has norm at least 1 - mat_eq.
    Rows of C are P's support vectors in Q's frame (columns are Q's in P's),
    which the witness search thresholds at prob_eq; without ``search`` none
    runs and a complementary report carries no witness. Block sums of |C|^2
    give M[x, y] = tr(P_x Q_y), whose row x over rank P_x is the outcome
    distribution of Q on the maximally mixed state of P_x's support. An
    outcome whose support is empty admits no verifier: ``StructureError``.
    """
    (frame_p, ranks_p, _), (frame_q, ranks_q, _), overlap = _overlap(p, q, tol)
    for prop, ranks in ((p, ranks_p), (q, ranks_q)):
        if not ranks.all():
            raise StructureError(f"projector {prop.labels[int(ranks.argmin())]!r} has no eigenvalue "
                                 "within prob_eq of 1, it admits no verifier")
    # The frames' columns come outcome by outcome, ranks[x] of them for x:
    # entry (i, x) of a block indicator is 1 when column i spans outcome x.
    blocks_p, blocks_q = (np.repeat(np.eye(len(ranks)), ranks, axis=0) for ranks in (ranks_p, ranks_q))
    weight = np.abs(overlap) ** 2
    to_q = weight @ blocks_q
    to_p = weight.T @ blocks_p
    # Vectors of each frame whose norm within block (x, y) falls short.
    short_p = np.sqrt(to_q) < 1.0 - tol.mat_eq
    short_q = np.sqrt(to_p) < 1.0 - tol.mat_eq
    equal = (blocks_p.T @ short_p == 0) & (short_q.T @ blocks_q == 0)
    # Supports within one property are orthogonal, so each support equals at
    # most one of the other's; a match exists iff ``equal`` is a permutation.
    mapping = None
    if (equal.sum(axis=0) == 1).all() and (equal.sum(axis=1) == 1).all():
        mapping = {x: q.labels[y] for x, y in zip(p.labels, equal.argmax(axis=1))}
    witness = None
    if search and mapping is None:
        vector = _witness_vector(frame_p, overlap, to_q, blocks_p, blocks_q, tol)
        if vector is None:
            vector = _witness_vector(frame_q, overlap.conj().T, to_p, blocks_q, blocks_p, tol)
        witness = None if vector is None else pure_state(vector)
    degree_table, reverse = {}, {}
    if tables:
        m = blocks_p.T @ to_q
        degree_table = dict(zip(p.labels, _degrees(m / blocks_p.sum(axis=0)[:, None], q.labels, tol)))
        reverse = dict(zip(q.labels, _degrees(m.T / blocks_q.sum(axis=0)[:, None], p.labels, tol)))
    return ComplementarityReport(mapping is None, mapping, witness, degree_table, reverse)


def are_complementary(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> ComplementarityReport:
    """Decide complementarity of two elementary properties.

    Non-complementary iff the projector supports match under some bijection
    of outcomes (the bijection is returned). When complementary, the report
    carries a pure verifier state of one property that fails the other at the
    ``prob_eq`` resolution. The two thresholds are incommensurate: supports
    misaligned by an angle between roughly sqrt(2 mat_eq) and sqrt(prob_eq)
    are already distinguishable as subspaces while no state fails
    verification measurably, and the witness is then None.
    """
    return _relation(p, q, tol, tables=False)


def classify_relation(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> ComplementarityReport:
    """Full pairwise report: complementarity verdict plus degree tables.

    The canonical verifier family is the maximally mixed state on each
    projector's range, a deterministic and basis-independent choice; degrees
    for any other verifier remain available through ``degree_for_verifier``.
    The table is reported per outcome, both directions, without collapsing to
    a single pairwise label.
    """
    return _relation(p, q, tol, tables=True)
