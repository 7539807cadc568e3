"""Shared fixtures-in-plain-functions for the test suite."""

import tracemalloc

import numpy as np

import qcomplement as qc


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
