"""Shared fixtures-in-plain-functions for the test suite."""

import enum
import math
import tracemalloc

import numpy as np

import qcomplement as qc
from qcomplement import instruments
from qcomplement.errors import StructureError


def proj(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def qubit_z() -> qc.ElementaryProperty:
    return qc.from_pvm({"z0": proj(E0), "z1": proj(E1)})


def qubit_x() -> qc.ElementaryProperty:
    return qc.from_pvm({"xp": proj(PLUS), "xm": proj(MINUS)})


def qutrit_basis_proj(i: int) -> np.ndarray:
    v = np.zeros(3)
    v[i] = 1.0
    return proj(v)


def qutrit_fine() -> qc.ElementaryProperty:
    return qc.from_pvm({f"f{i}": qutrit_basis_proj(i) for i in range(3)})


def qutrit_pm2() -> qc.ElementaryProperty:
    plus3 = proj([1.0, 1.0, 0.0])
    minus3 = proj([1.0, -1.0, 0.0])
    return qc.from_pvm({"p": plus3, "m": minus3, "t2": qutrit_basis_proj(2)})


def z_instrument() -> qc.Instrument:
    return qubit_z().base


def measure_and_prepare_zero() -> qc.QuantumOperation:
    # rho -> Tr[rho] |0><0| on a qubit
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return qc.QuantumOperation(2, 2, (k0, k1))


def haar_pvm(d: int, ranks, seed: int) -> qc.ElementaryProperty:
    return qc.random_pvm(d, ranks, qc.SeededGenerator(seed))


def bell_state() -> qc.DensityState:
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return qc.pure_state(v, dims=(2, 2))


# (seed, dim or size, trials) that are not all integers; each must raise
# StructureError at the harness boundary.
NON_INTEGER_HARNESS_ARGS = [(1, 2.5, 3), (1, 3, 2.0), (1.0, 3, 2), (True, 3, 2)]


def traced_peak(call) -> int:
    """The traced peak, in bytes, of allocations made while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# An independent subspace oracle: principal-angle comparison of orthonormal
# bases, each a ``(d, k)`` array of columns, which no decision of the package
# reads.
class SubspaceRelation(enum.Enum):
    EQUAL = "equal"
    A_INSIDE_B = "a-inside-b"
    B_INSIDE_A = "b-inside-a"
    OVERLAPPING = "overlapping"
    ORTHOGONAL = "orthogonal"


def contains_vector(sub: np.ndarray, v, tol=qc.DEFAULT_TOL) -> bool:
    """True iff projecting ``v`` onto ``sub`` keeps its norm within ``mat_eq``."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return True
    if sub.shape[1] == 0:
        return False
    return float(np.linalg.norm(sub.conj().T @ vec)) >= (1.0 - tol.mat_eq) * norm


def subspace_relation(a: np.ndarray, b: np.ndarray, tol=qc.DEFAULT_TOL) -> SubspaceRelation:
    """How two subspaces of one ambient space relate. One lies inside the
    other when projecting each of its basis vectors onto the other keeps the
    norm within ``mat_eq``; ``ORTHOGONAL`` needs every cross inner product at
    most ``mat_eq``."""
    if a.shape[0] != b.shape[0]:
        raise StructureError(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] == 0 and b.shape[1] == 0:
        return SubspaceRelation.EQUAL
    if a.shape[1] == 0:
        return SubspaceRelation.A_INSIDE_B
    if b.shape[1] == 0:
        return SubspaceRelation.B_INSIDE_A
    cross = a.conj().T @ b
    a_in_b = bool(np.all(np.linalg.norm(cross, axis=1) >= 1.0 - tol.mat_eq))
    b_in_a = bool(np.all(np.linalg.norm(cross, axis=0) >= 1.0 - tol.mat_eq))
    if a_in_b and b_in_a:
        return SubspaceRelation.EQUAL
    if a_in_b:
        return SubspaceRelation.A_INSIDE_B
    if b_in_a:
        return SubspaceRelation.B_INSIDE_A
    if float(np.max(np.abs(cross))) <= tol.mat_eq:
        return SubspaceRelation.ORTHOGONAL
    return SubspaceRelation.OVERLAPPING


def subspace_contained(inner: np.ndarray, outer: np.ndarray, tol=qc.DEFAULT_TOL) -> bool:
    """True iff ``inner`` lies in ``outer`` (equality included)."""
    rel = subspace_relation(inner, outer, tol)
    return rel in (SubspaceRelation.EQUAL, SubspaceRelation.A_INSIDE_B)


def kron_apply(op: qc.QuantumOperation, state: qc.DensityState) -> np.ndarray:
    """Oracle for ``apply_unnormalized``: sum_k (K (x) I) rho (K (x) I)^dag
    with each extended Kraus matrix built by ``np.kron``; on a state with no
    ancilla dimension beyond 1, K itself acts, as sum_k K rho K^dag."""
    if state.dims[0] != op.dim_in:
        raise StructureError("state's first factor does not match the operation")
    rest = state.dim // op.dim_in
    mats = list(op.kraus) if rest == 1 else [np.kron(k, np.eye(rest)) for k in op.kraus]
    out = np.zeros((op.dim_out * rest, op.dim_out * rest), dtype=complex)
    for k in mats:
        out += k @ state.matrix @ k.conj().T
    return out


def kron_probability(op: qc.QuantumOperation, state: qc.DensityState) -> float:
    """Oracle outcome probability: the trace of ``kron_apply``, clamped to [0, 1]."""
    return min(1.0, max(0.0, float(np.real(np.trace(kron_apply(op, state))))))


def loop_degree(probs: dict, tol=qc.DEFAULT_TOL) -> qc.DegreeVerdict:
    """Oracle for the degree tables: one row of outcome probabilities
    classified entry by entry, clamped with ``min``/``max`` and its entropy
    summed in order."""
    values = list(probs.values())
    n = len(values)
    eps = tol.prob_eq
    if any(p >= 1.0 - eps for p in values):
        kind = qc.DegreeKind.NOT_COMPLEMENTARY_HERE
    elif all(abs(p - 1.0 / n) <= eps for p in values):
        kind = qc.DegreeKind.STRONG
    elif all(eps <= p <= 1.0 - eps for p in values):
        kind = qc.DegreeKind.MILD
    else:
        kind = qc.DegreeKind.WEAK
    clamped = [min(1.0, max(0.0, p)) for p in values]
    entropy = 0.0
    for p in clamped:
        if p > 0.0:
            entropy -= p * math.log2(p)
    return qc.DegreeVerdict(kind, dict(zip(probs, clamped)), entropy)


def loop_check_pvm(mats: dict, d: int, tol=qc.DEFAULT_TOL) -> str | None:
    """Oracle for the PVM check: the ``StructureError`` message of the
    per-projector checks, then every pair's direct product |P_a P_b|_F in
    order, then completeness; None when the family passes."""
    for label, p in mats.items():
        if p.shape != (d, d):
            return f"projector {label!r} has shape {p.shape}, expected ({d}, {d})"
        if float(np.linalg.norm(p - p.conj().T)) > tol.mat_eq:
            return f"projector {label!r} is not Hermitian"
        if float(np.linalg.norm(p @ p - p)) > tol.mat_eq:
            return f"projector {label!r} is not idempotent"
        if float(np.real(np.trace(p))) < 0.5:
            return f"projector {label!r} is zero, it admits no verifier"
    labels, stack = list(mats), np.stack(list(mats.values()))
    for i, a in enumerate(labels[:-1]):
        bad = np.flatnonzero(np.linalg.norm(stack[i] @ stack[i + 1 :], axis=(1, 2)) > tol.mat_eq)
        if bad.size:
            return f"projectors {a!r} and {labels[i + 1 + bad[0]]!r} are not orthogonal"
    if float(np.linalg.norm(stack.sum(axis=0) - np.eye(d))) > tol.mat_eq:
        return "projectors do not sum to the identity (incomplete PVM)"
    return None


def effect_supports(mats: dict, tol=qc.DEFAULT_TOL) -> list[np.ndarray]:
    """Oracle for the supports of projectors from outside: per outcome, an
    orthonormal basis of the eigenvalue >= 1 - prob_eq eigenspace of its
    effect P^dag P, from one batched eigh of the effects."""
    stack = np.stack(list(mats.values()))
    w, v = np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
    return [vectors[:, weights >= 1.0 - tol.prob_eq] for weights, vectors in zip(w, v)]


def support_frame(prop: qc.ElementaryProperty, tol=qc.DEFAULT_TOL):
    """``instruments._support_frame`` of the frame a property holds: its
    supports at ``tol`` side by side, their ranks and the mask that cut them."""
    return instruments._support_frame(prop._spectrum, len(prop.labels), tol)


def largest_sine(a: np.ndarray, b: np.ndarray) -> float:
    """The largest principal-angle sine of span(a) against span(b), both
    orthonormal bases: the spectral norm of (I - b b^dag) a."""
    return float(np.linalg.norm(a - b @ (b.conj().T @ a), 2)) if a.size else 0.0


def loop_pvm_commute(p: qc.ElementaryProperty, q: qc.ElementaryProperty, tol=qc.DEFAULT_TOL) -> bool:
    """Oracle for ``pvm_commute``: the direct commutator of every projector
    pair in order, the first one above ``mat_eq`` deciding False."""
    if p.dim != q.dim:
        raise StructureError(f"properties live on different dimensions: {p.dim} vs {q.dim}")
    for a in p.projectors.values():
        for b in q.projectors.values():
            if float(np.linalg.norm(a @ b - b @ a)) > tol.mat_eq:
                return False
    return True


def haar_unitary(d: int, rng) -> np.ndarray:
    """A Haar-random d x d unitary: the phase-corrected Q of a QR."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_pvm(d: int, rank: int, theta: float, seed: int) -> dict:
    """A Haar PVM of projectors of ``rank`` (the last one takes what is left)
    whose first support vector is rotated by ``theta`` toward the second
    support's first vector: every projector stays Hermitian and idempotent,
    and the first pair's overlap |P_0 P_1|_F is about theta."""
    u = haar_unitary(d, np.random.default_rng([seed, d]))
    edges = [*range(0, d, rank), d]
    blocks = [u[:, a:b].copy() for a, b in zip(edges[:-1], edges[1:])]
    blocks[0][:, 0] = np.cos(theta) * blocks[0][:, 0] + np.sin(theta) * blocks[1][:, 0]
    return {f"p{i}": b @ b.conj().T for i, b in enumerate(blocks)}
