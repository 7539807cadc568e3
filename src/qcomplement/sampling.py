"""Seeded random generators for property suites and harnesses.

Streams are numpy PCG64 generators keyed by ``SeedSequence(seed, spawn_key)``,
so the same seed and parameters reproduce bit-identical draws, and per-trial
children are statistically independent. The stream algorithm identifier is
echoed into harness reports for reproducibility across releases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .instruments import ElementaryProperty, Instrument, _elementary, _labelled, _support_projectors
from .linalg import _index, _trusted
from .operations import DensityState, QuantumOperation, _built_state, projector_operation

STREAM_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SeededGenerator:
    """A reproducible random stream with deterministic child derivation.

    The seed and every path index must be nonnegative integers; anything
    else raises ``StructureError`` here, not numpy's error on first use.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", _entropy(self.seed, "seed"))
        try:
            path = tuple(self.path)
        except TypeError:
            raise StructureError(f"path must be a sequence of child indices, got {self.path!r}") from None
        object.__setattr__(self, "path", tuple(_entropy(i, "child index") for i in path))

    @property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def child(self, index: int) -> "SeededGenerator":
        """Independent stream for one trial; safe to use concurrently."""
        # The seed and path are checked already; a harness makes hundreds of
        # children per call.
        return _trusted(SeededGenerator, seed=self.seed, path=self.path + (_entropy(index, "child index"),))


def _entropy(value, name: str) -> int:
    """``value`` as a nonnegative int, as ``SeedSequence`` takes it."""
    value = _index(value, name)
    if value < 0:
        raise StructureError(f"{name} must be nonnegative, got {value}")
    return value


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a Ginibre matrix, or a stack of them, by one
    phase-corrected QR."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_unitary(d: int, gen: SeededGenerator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    d = _index(d, "dimension")
    if d < 1:
        raise StructureError("dimension must be at least 1")
    return _haar(_ginibre(d, d, gen.rng))


def _pvm_draw(d: int, profiles, gens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Haar-rotated coordinate-block PVM on C^d per (rank profile,
    generator) pair: the (outcomes, d, d) projector stack, all PVMs'
    outcomes in order; the (PVMs, d, d) unitaries; and the (PVMs, d) owner
    index, the outcome within its PVM of each unitary's column.

    Each generator draws one Ginibre matrix; one stacked QR rotates them
    all, and ``_support_projectors`` forms the projectors B B^dag of the
    column blocks B, one stacked product per rank, so the numbers are those
    of per-PVM calls, bit for bit. A PVM's unitary and owner index, with
    eigenvalue 1 on every column, are thus its support frame (U, owner, w),
    and each projector is its block's own product.
    Profiles are trusted: positive ranks summing to d.
    """
    u = _haar(np.stack([_ginibre(d, d, gen.rng) for gen in gens]))
    ranks = np.array([rank for p in profiles for rank in p])
    owner = np.array([np.repeat(np.arange(len(p)), p) for p in profiles])
    return _support_projectors(np.hstack(u), ranks), u, owner


def random_pvm(d: int, ranks, gen: SeededGenerator) -> ElementaryProperty:
    """Haar-rotated coordinate-block PVM with the requested rank profile."""
    d = _index(d, "dimension")
    if d < 1:
        raise StructureError("dimension must be at least 1")
    ranks = [_index(r, "rank") for r in ranks]
    if any(r < 1 for r in ranks) or sum(ranks) != d:
        raise StructureError(f"ranks must be positive and sum to {d}, got {ranks}")
    stack, frames, owner = _pvm_draw(d, [ranks], [gen])
    projectors = {f"x{i}": p for i, p in enumerate(stack)}
    # Blocks of one unitary: orthogonal, idempotent and complete by
    # construction, each the projector of its block's columns, eigenvalue 1.
    outcomes = {label: projector_operation(p) for label, p in projectors.items()}
    ins = _trusted(Instrument, dim_in=d, dim_out=d, outcomes=outcomes)
    # The unitary is the support frame, each projector its block's own product.
    return _elementary(ins, projectors, (frames[0], owner[0], np.ones(d)), np.zeros(len(ranks)))


def random_density(d: int, rank: int, gen: SeededGenerator) -> DensityState:
    """Random mixed state of the given rank (normalised Wishart factor)."""
    d, rank = _index(d, "dimension"), _index(rank, "rank")
    if not 1 <= rank <= d:
        raise StructureError(f"rank must be in [1, {d}], got {rank}")
    g = _ginibre(d, rank, gen.rng)
    m = g @ g.conj().T
    return _built_state((d,), m / float(np.real(np.trace(m))))


def random_rank_profile(d: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Random composition of d into the given number of positive parts."""
    d, parts = _index(d, "dimension"), _index(parts, "parts")
    if not 1 <= parts <= d:
        raise StructureError(f"parts must be in [1, {d}], got {parts}")
    cuts = np.sort(rng.choice(d - 1, size=parts - 1, replace=False) + 1)
    edges = np.concatenate(([0], cuts, [d]))
    return np.diff(edges).tolist()


def _kraus_families(parts: np.ndarray, counts) -> np.ndarray:
    """Jointly normalised Gaussian Kraus families, as one (count, d_out, d_in)
    stack: each run of ``counts[i]`` consecutive matrices has sum K^dag K = I.

    ``parts``, a (count, 2, d_out, d_in) normal draw, holds the real and
    imaginary parts of each matrix in turn, the same numbers ``count`` calls
    of ``_ginibre`` draw. Each family's K^dag K is summed in order, as a loop
    over its matrices would; one stacked ``eigh`` then gives every family's
    inverse square root.
    """
    raw = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    gram = raw.conj().swapaxes(-1, -2) @ raw
    total = np.zeros((len(counts),) + gram.shape[1:], dtype=complex)
    for j in range(int(counts.max())):
        more = counts > j
        total[more] += gram[starts[more] + j]
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return raw @ np.repeat(inv_sqrt, counts, axis=0)


def _kraus_draw(d_in: int, d_out: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` jointly normalised Gaussian Kraus matrices, as a
    (count, d_out, d_in) array: sum K^dag K = I."""
    return _kraus_families(rng.standard_normal((count, 2, d_out, d_in)), [count])


def random_instrument(
    d_in: int, d_out: int, labels, gen: SeededGenerator, kraus_per_outcome: int = 1
) -> Instrument:
    """Random instrument: jointly normalised Gaussian Kraus families.

    With one Kraus matrix per outcome, every outcome is atomic.
    """
    labels = list(labels)
    d_in, d_out = _index(d_in, "d_in"), _index(d_out, "d_out")
    kraus_per_outcome = _index(kraus_per_outcome, "kraus_per_outcome")
    if not labels:
        raise StructureError("instrument needs at least one outcome")
    if min(d_in, d_out, kraus_per_outcome) < 1:
        raise StructureError("dimensions and kraus_per_outcome must be positive")
    if len(labels) * kraus_per_outcome * d_out < d_in:
        raise StructureError("the Kraus matrices need at least d_in rows in total to normalise")
    kraus = _kraus_draw(d_in, d_out, len(labels) * kraus_per_outcome, gen.rng)
    kraus = kraus.reshape(len(labels), kraus_per_outcome, d_out, d_in)
    outcomes = _labelled(
        (label, _trusted(QuantumOperation, dim_in=d_in, dim_out=d_out, kraus=tuple(mats)))
        for label, mats in zip(labels, kraus)
    )
    return Instrument(d_in, d_out, outcomes)
