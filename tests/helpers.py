"""Shared fixtures-in-plain-functions for the test suite."""

import enum
import tracemalloc

import numpy as np

import qcomplement as qc
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
# bases (``qc.Subspace``), which no decision of the package reads.
class SubspaceRelation(enum.Enum):
    EQUAL = "equal"
    A_INSIDE_B = "a-inside-b"
    B_INSIDE_A = "b-inside-a"
    OVERLAPPING = "overlapping"
    ORTHOGONAL = "orthogonal"


def contains_vector(sub: qc.Subspace, v, tol=qc.DEFAULT_TOL) -> bool:
    """True iff projecting ``v`` onto ``sub`` keeps its norm within ``mat_eq``."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return True
    if sub.dim == 0:
        return False
    return float(np.linalg.norm(sub.basis.conj().T @ vec)) >= (1.0 - tol.mat_eq) * norm


def subspace_relation(a: qc.Subspace, b: qc.Subspace, tol=qc.DEFAULT_TOL) -> SubspaceRelation:
    """How two subspaces of one ambient space relate. One lies inside the
    other when projecting each of its basis vectors onto the other keeps the
    norm within ``mat_eq``; ``ORTHOGONAL`` needs every cross inner product at
    most ``mat_eq``."""
    if a.ambient_dim != b.ambient_dim:
        raise StructureError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dim == 0 and b.dim == 0:
        return SubspaceRelation.EQUAL
    if a.dim == 0:
        return SubspaceRelation.A_INSIDE_B
    if b.dim == 0:
        return SubspaceRelation.B_INSIDE_A
    cross = a.basis.conj().T @ b.basis
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


def subspace_contained(inner: qc.Subspace, outer: qc.Subspace, tol=qc.DEFAULT_TOL) -> bool:
    """True iff ``inner`` lies in ``outer`` (equality included)."""
    rel = subspace_relation(inner, outer, tol)
    return rel in (SubspaceRelation.EQUAL, SubspaceRelation.A_INSIDE_B)
