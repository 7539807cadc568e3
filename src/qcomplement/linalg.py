"""Dense complex-matrix kernel: eigendecomposition, PSD tests, verifier
supports and column spaces.

Every decision procedure in the package reduces to the primitives here, so the
tolerance semantics are fixed in one place:

* rank decisions use a relative cut ``eig_cut * sigma_max`` (scale invariant),
* every verifier support a decision reads is an effect's eigenvalue
  >= ``1 - prob_eq`` eigenspace, cut by ``_supports`` from an eigh or from
  the frame an elementary property holds (``instruments._support_frame``),
* a support or column space is a plain ``(d, k)`` array of orthonormal
  columns, ``k = 0`` for the zero space,
* PSD tests tolerate eigenvalues down to ``-eig_cut * max(1, spectral norm)``.

Input is validated once, where it enters the package: public constructors check
what Python callers pass and the model reader (``serialize``) what a file holds;
values built from checked values skip the constructors' checks via ``_trusted``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import StructureError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every decision procedure.

    ``eig_cut`` cuts eigenvalue/singular-value spectra (rank, PSD slack),
    ``mat_eq`` bounds Frobenius distances treated as equality of matrices or
    maps, and ``prob_eq`` bounds probability comparisons.
    """

    eig_cut: float = 1e-9
    mat_eq: float = 1e-8
    prob_eq: float = 1e-7

    def __post_init__(self):
        for name in ("eig_cut", "mat_eq", "prob_eq"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.prob_eq < 0.5:
            raise ValueError("prob_eq must be below 0.5")

    def scaled(self, factor: float) -> "Tolerances":
        """Scale mat_eq and prob_eq together by one factor (eig_cut fixed)."""
        return Tolerances(self.eig_cut, self.mat_eq * factor, self.prob_eq * factor)


DEFAULT_TOL = Tolerances()


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set as
    given, skipping ``__post_init__``.

    Only for values the package derived from already-validated inputs, whose
    construction guarantees what the checks would test; every field must be
    given in the form ``__post_init__`` would have normalised it to.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _index(value, name: str) -> int:
    """``value`` as an int; booleans and non-integers raise ``StructureError``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise StructureError(f"{name} must be an integer, got {value!r}")


# No valid Kraus, state or substochastic matrix has an entry above 1 in modulus.
# The cap sits far above that, where the eighth power of an entry still fits in
# a double: the Frobenius norm of a Kraus-space core reaches it, and so does
# |G|^2 of a repeatability Gram entry, tr(K^dag K K K^dag).
_ENTRY_LIMIT = 1e30
# The kernel's Hermitian, PSD and range checks take any finite matrix: they
# also see derived ones, such as an effect built from capped Kraus entries.
_FINITE = float(np.finfo(float).max)
# The cell budget of one stacked numpy call over a variable number of items
# (harness trials, instrument outcomes), so that peak memory does not grow
# with the number of items.
_CHUNK_CELLS = 2**16


def _check_entries(arr: np.ndarray, name: str, limit: float = _ENTRY_LIMIT) -> None:
    """Raise ``StructureError`` unless every entry of the real array ``arr``
    is at most ``limit`` in magnitude; NaN and infinities fail the one
    comparison too."""
    if arr.size and not np.abs(arr).max() <= limit:
        raise StructureError(f"{name} entries must be finite and at most {limit:.0e} in magnitude")


def as_matrix(m, name: str = "matrix", limit: float = _ENTRY_LIMIT) -> np.ndarray:
    """Coerce to a 2-d C-ordered complex array whose real and imaginary parts
    are at most ``limit`` in magnitude, or raise ``StructureError``."""
    arr = np.asarray(m, dtype=complex, order="C")
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    _check_entries(arr.view(float), name, limit)
    return arr


def _is_hermitian(arr: np.ndarray, tol: Tolerances) -> bool:
    """True iff the square matrix ``arr``, which ``as_matrix`` already
    coerced, is within ``mat_eq * max(1, ||arr||_F)`` of its adjoint."""
    scale = max(1.0, float(np.linalg.norm(arr)))
    return float(np.linalg.norm(arr - arr.conj().T)) <= tol.mat_eq * scale


def _is_psd(arr: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``is_psd`` for each matrix of a coerced (..., d, d) stack already known
    to be Hermitian, as a bool array of shape ``arr.shape[:-2]``; NaN fails."""
    if arr.shape[-1] == 0:
        return np.ones(arr.shape[:-2], dtype=bool)
    w = np.linalg.eigvalsh(arr)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    return w[..., 0] >= -tol.eig_cut * scale


def is_psd(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the minimum eigenvalue is at least
    ``-eig_cut * max(1, spectral norm)``. Input must be Hermitian."""
    arr = as_matrix(m, "matrix", _FINITE)
    if arr.shape[0] != arr.shape[1]:
        raise StructureError(f"matrix must be square, got shape {arr.shape}")
    if not _is_hermitian(arr, tol):
        raise StructureError("matrix is not Hermitian within tolerance")
    return bool(_is_psd(arr, tol))


def _supports(spectrum, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Verifier supports from a spectral decomposition ``(w, v)`` of an
    (n, d, d) stack of effects, such as their batched eigh, or of a support
    frame: eigenvectors ``v`` (columns) and the mask ``keep`` of eigenvalues
    >= 1 - prob_eq; support i is spanned by ``v[i][:, keep[i]]``."""
    w, v = spectrum
    return v, w >= 1.0 - tol.prob_eq


def range_subspace(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis, as the columns of a ``(d, k)`` array, of the column
    space at numerical rank threshold ``eig_cut * sigma_max``; ``k = 0`` for
    the zero space. An audit primitive, no decision reads it."""
    arr = as_matrix(m, limit=_FINITE)
    if arr.size == 0:
        return np.zeros((arr.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol.eig_cut * s[0]))
    return u[:, :rank]
