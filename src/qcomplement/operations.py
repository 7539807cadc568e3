"""Quantum operations as Kraus families.

An operation is a completely positive trace-non-increasing map given by a
nonempty list of Kraus matrices. Maps are equal iff their Choi matrices are,
since Kraus lists are not unique; the Choi matrix sums vec(K) vec(K)^dag over
row-major vec, on output x input. Decisions never build it: distances and ranks
come from a K x K core of the K Kraus matrices, exactly. ``choi()`` builds the
d^2 x d^2 matrix for audits and as the test oracle. An operation acts on the
first factor of a state: its outcome probability is Re tr(E rho_1), rho_1 the
reduced state, and no K (x) I is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import StructureError
from .linalg import _FINITE, DEFAULT_TOL, Tolerances, _check_entries, _index, _is_hermitian, _is_psd, _trusted, as_matrix


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A CP trace-non-increasing map held as Kraus matrices.

    Each Kraus matrix has shape ``(dim_out, dim_in)``. The zero map is
    representable as a list containing one zero matrix. Trace-non-increase
    is not enforced at construction; ``validate_operation`` reports it.
    ``==`` is identity: two maps are equal when their ``choi_distance`` is
    within a tolerance, which no Kraus-wise comparison can decide.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim_in", _index(self.dim_in, "dim_in"))
        object.__setattr__(self, "dim_out", _index(self.dim_out, "dim_out"))
        if self.dim_in < 1 or self.dim_out < 1:
            raise StructureError("operation dimensions must be positive")
        mats = tuple(as_matrix(k, "kraus matrix") for k in self.kraus)
        if not mats:
            raise StructureError("operation needs at least one Kraus matrix")
        for k in mats:
            if k.shape != (self.dim_out, self.dim_in):
                raise StructureError(
                    f"kraus matrix has shape {k.shape}, expected "
                    f"({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus", mats)

    def effect(self) -> np.ndarray:
        """The effect E = sum of K^dag K; Tr[E rho] is the outcome probability."""
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ k
        return out


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """The Choi matrix of a map; ``==`` is identity, and two maps are
    equal when their ``choi_distance`` is within a tolerance."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix, "choi matrix")
        d = self.dim_in * self.dim_out
        if mat.shape != (d, d):
            raise StructureError(f"choi matrix has shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "matrix", mat)


def choi(op: QuantumOperation) -> ChoiMatrix:
    """Choi matrix sum_k vec(K_k) vec(K_k)^dag with row-major vec."""
    vecs = np.stack([k.reshape(-1) for k in op.kraus])
    matrix = np.einsum("ki,kj->ij", vecs, vecs.conj())
    return _trusted(ChoiMatrix, dim_in=op.dim_in, dim_out=op.dim_out, matrix=matrix)


def _kraus_columns(kraus) -> np.ndarray:
    """V with the row-major vec of each Kraus matrix as a column: Choi = V V^dag.
    A (..., k, d_out, d_in) stack gives one V per (k, d_out, d_in) family."""
    kraus = np.asarray(kraus)
    return kraus.reshape(*kraus.shape[:-2], -1).swapaxes(-1, -2)


def _choi_core(plus, minus=None) -> np.ndarray:
    """K x K core R S R^dag of Choi(plus) - Choi(minus) = Q (R S R^dag) Q^dag,
    where [V_plus | V_minus] = Q R and S = +1/-1 marks each column's side. Q has
    orthonormal columns: same Frobenius norm and nonzero spectrum, no digits
    lost to the cancellation of a Gram-matrix identity for the squared norm.
    ``plus`` and ``minus`` are Kraus families or stacks of them (one core each)."""
    v = _kraus_columns(plus)
    if minus is None:  # S = I: R^dag R = V^dag V has the same norm and spectrum
        return v.conj().swapaxes(-1, -2) @ v
    w = _kraus_columns(minus)
    r = np.linalg.qr(np.concatenate([v, w], axis=-1), mode="r")
    signs = np.repeat([1.0, -1.0], [v.shape[-1], w.shape[-1]])
    return (r * signs) @ r.conj().swapaxes(-1, -2)


def _core_norm(plus: QuantumOperation, minus: QuantumOperation | None = None) -> float:
    """Frobenius norm of Choi(plus) - Choi(minus), or of Choi(plus) alone."""
    return float(np.linalg.norm(_choi_core(plus.kraus, None if minus is None else minus.kraus)))


def choi_distance(a: QuantumOperation, b: QuantumOperation) -> float:
    """Frobenius distance between the Choi matrices of two maps."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise StructureError("operations act between different spaces")
    return _core_norm(a, b)


@dataclass(frozen=True)
class OperationReport:
    is_tni: bool
    is_tp: bool


def validate_operation(op: QuantumOperation, tol: Tolerances = DEFAULT_TOL) -> OperationReport:
    """Check trace-non-increase (I - E PSD) and trace preservation (E = I).

    Complete positivity needs no check: every Kraus family defines a CP map,
    its Choi matrix being a sum of rank-one PSD terms.
    """
    effect = op.effect()
    # I - E is Hermitian by construction; the coercion only checks it is finite.
    tni = bool(_is_psd(as_matrix(np.eye(op.dim_in) - effect, limit=_FINITE), tol))
    tp = float(np.linalg.norm(effect - np.eye(op.dim_in))) <= tol.mat_eq
    return OperationReport(is_tni=tni, is_tp=tp)


def is_atomic(op: QuantumOperation, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the Choi matrix has numerical rank at most one.

    Atomic operations sit on extremal rays of the CP cone; a Kraus list
    of mutually proportional matrices still counts as atomic. One Kraus
    matrix is atomic by its count: its core is 1 x 1, and no decomposition
    runs.
    """
    if len(op.kraus) == 1:
        return True
    w = np.linalg.eigvalsh(_hermitized(_choi_core(op.kraus)))
    top = float(w[-1])
    if top <= 0.0:
        return True
    return int(np.count_nonzero(w > tol.eig_cut * top)) <= 1


def _hermitized(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True, eq=False)
class DensityState:
    """A density operator, possibly on a composite system.

    ``dims`` lists the tensor factors in kron order; ``matrix`` acts on the
    full product space. Validated at construction: Hermitian, PSD within
    ``eig_cut`` and unit trace within ``prob_eq`` (package defaults).
    ``==`` is identity; compare two states' matrices at a tolerance.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims, mat = _state_fields(self.dims, self.matrix, psd_test=True)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def reduce(self, keep: int) -> "DensityState":
        """Partial trace keeping only the tensor factor at index ``keep``."""
        keep = _index(keep, "factor index")
        if not 0 <= keep < len(self.dims):
            raise StructureError(f"factor index {keep} out of range")
        n = len(self.dims)
        shaped = self.matrix.reshape(self.dims + self.dims)
        # Row axis i and column axis n+i share an index (trace) except `keep`.
        row_idx = list(range(n))
        col_idx = list(range(n))
        col_idx[keep] = n
        reduced = np.einsum(shaped, row_idx + col_idx, [keep, n])
        return _trusted(DensityState, dims=(self.dims[keep],), matrix=reduced)


def _state_fields(dims, matrix, psd_test: bool) -> tuple[tuple[int, ...], np.ndarray]:
    """The checked ``dims`` and coerced ``matrix`` of a state; raises
    ``StructureError`` as the ``DensityState`` docstring says. ``psd_test``
    is off only for matrices PSD by construction."""
    dims = tuple(_index(d, "state dimension") for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise StructureError("state dims must be positive")
    mat = as_matrix(matrix, "state matrix")
    d = prod(dims)
    if mat.shape != (d, d):
        raise StructureError(f"state matrix has shape {mat.shape}, expected ({d}, {d})")
    if not _is_hermitian(mat, DEFAULT_TOL):
        raise StructureError("state matrix is not Hermitian within tolerance")
    if psd_test and not _is_psd(mat, DEFAULT_TOL):
        raise StructureError("state matrix is not positive semidefinite")
    if abs(float(np.real(np.trace(mat))) - 1.0) > DEFAULT_TOL.prob_eq:
        raise StructureError("state matrix does not have unit trace")
    return dims, mat


def _built_state(dims, matrix) -> DensityState:
    """A state whose matrix is PSD by construction (v v^dag, a Wishart
    product): every ``DensityState`` check but the eigenvalue PSD test."""
    dims, mat = _state_fields(dims, matrix, psd_test=False)
    return _trusted(DensityState, dims=dims, matrix=mat)


def pure_state(vector, dims=None) -> DensityState:
    """Density state |v><v| from a (normalised or unnormalised) state vector."""
    vec = np.ravel(np.asarray(vector, dtype=complex))
    _check_entries(vec.view(float), "state vector")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise StructureError("cannot build a state from the zero vector")
    vec = vec / norm
    if dims is None:
        dims = (vec.size,)
    return _built_state(dims, np.outer(vec, vec.conj()))


def basis_state(d: int, index: int, dims=None) -> DensityState:
    d, index = _index(d, "dimension"), _index(index, "basis index")
    if not 0 <= index < d:
        raise StructureError(f"basis index {index} out of range for dimension {d}")
    vec = np.zeros(d)
    vec[index] = 1.0
    return pure_state(vec, dims)


def maximally_mixed(d: int, dims=None) -> DensityState:
    d = _index(d, "dimension")
    if d < 1:
        raise StructureError("state dims must be positive")
    return DensityState(tuple(dims) if dims is not None else (d,), np.eye(d) / d)


def identity_operation(d: int) -> QuantumOperation:
    d = _index(d, "dimension")
    if d < 1:
        raise StructureError("operation dimensions must be positive")
    return QuantumOperation(d, d, (np.eye(d, dtype=complex),))


def zero_operation(dim_in: int, dim_out: int) -> QuantumOperation:
    dim_in, dim_out = _index(dim_in, "dim_in"), _index(dim_out, "dim_out")
    if dim_in < 1 or dim_out < 1:
        raise StructureError("operation dimensions must be positive")
    return QuantumOperation(dim_in, dim_out, (np.zeros((dim_out, dim_in), dtype=complex),))


def projector_operation(projector) -> QuantumOperation:
    """The single-Kraus map rho -> P rho P for a projector (or any matrix) P."""
    mat = as_matrix(projector, "projector")
    if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise StructureError("projector must be square and nonempty")
    return _trusted(QuantumOperation, dim_in=mat.shape[0], dim_out=mat.shape[0], kraus=(mat,))


def _ancilla_dim(state: DensityState, dim: int) -> int:
    """The dimension of the factors after the first, which must be ``dim``."""
    if state.dims[0] != dim:
        raise StructureError(f"state's first factor has dimension {state.dims[0]}, expected {dim}")
    return state.dim // dim


def _outcome_probabilities(effects, state: DensityState) -> list[float]:
    """Prob(x | rho) = Re tr(E_x rho_1), clamped to [0, 1], for each d x d
    effect of the nonempty list ``effects``: the one outcome-probability rule,
    with rho_1 the state reduced to its first factor."""
    rho = state.matrix if _ancilla_dim(state, len(effects[0])) == 1 else state.reduce(0).matrix
    return [min(1.0, max(0.0, float(np.einsum("ij,ji->", e, rho).real))) for e in effects]


def apply(op: QuantumOperation, state: DensityState, tol: Tolerances = DEFAULT_TOL):
    """Apply an operation to a state, acting on the first tensor factor.

    Returns ``(probability, conditional_state_or_None)``. The probability is
    clamped to [0, 1]; the conditional state is the renormalised output when
    the probability exceeds ``prob_eq``, otherwise ``None``.
    """
    out = apply_unnormalized(op, state)
    raw = float(np.real(np.trace(out)))
    probability = min(1.0, max(0.0, raw))
    if probability <= tol.prob_eq:
        return probability, None
    dims = (op.dim_out,) + state.dims[1:]
    return probability, _trusted(DensityState, dims=dims, matrix=_hermitized(out) / raw)


def apply_unnormalized(op: QuantumOperation, state: DensityState) -> np.ndarray:
    """The raw output sum_k (K (x) I) rho (K (x) I)^dag without renormalisation:
    block (s, t) over the ancillas is sum_k K rho_st K^dag, and a single-factor
    state is its one block."""
    r = _ancilla_dim(state, op.dim_in)
    blocks = state.matrix if r == 1 else np.ascontiguousarray(
        state.matrix.reshape(op.dim_in, r, op.dim_in, r).transpose(1, 3, 0, 2))
    out = np.zeros(blocks.shape[:-2] + (op.dim_out, op.dim_out), dtype=complex)
    for k in op.kraus:
        out += k @ blocks @ k.conj().T
    return out if r == 1 else out.transpose(2, 0, 3, 1).reshape(op.dim_out * r, op.dim_out * r)


def compose_seq(second: QuantumOperation, first: QuantumOperation) -> QuantumOperation:
    """Sequential composition second after first; Kraus list of all products."""
    if first.dim_out != second.dim_in:
        raise StructureError(
            f"cannot compose: first outputs dimension {first.dim_out}, "
            f"second expects {second.dim_in}"
        )
    mats = tuple(k2 @ k1 for k2 in second.kraus for k1 in first.kraus)
    return _trusted(QuantumOperation, dim_in=first.dim_in, dim_out=second.dim_out, kraus=mats)


def coarse_grain_ops(parts) -> QuantumOperation:
    """Sum of operations, realised by concatenating Kraus lists."""
    parts = list(parts)
    if not parts:
        raise StructureError("cannot coarse-grain an empty list of operations")
    dims = {(p.dim_in, p.dim_out) for p in parts}
    if len(dims) != 1:
        raise StructureError(f"operations act between different spaces: {sorted(dims)}")
    mats = tuple(k for p in parts for k in p.kraus)
    return _trusted(QuantumOperation, dim_in=parts[0].dim_in, dim_out=parts[0].dim_out, kraus=mats)
