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
from .instruments import ElementaryProperty, Instrument
from .linalg import _index, _trusted
from .operations import DensityState, QuantumOperation, projector_operation

STREAM_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SeededGenerator:
    """A reproducible random stream with deterministic child derivation."""

    seed: int
    path: tuple[int, ...] = ()

    @property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def child(self, index: int) -> "SeededGenerator":
        """Independent stream for one trial; safe to use concurrently."""
        return SeededGenerator(self.seed, self.path + (_index(index, "child index"),))


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(d: int, gen: SeededGenerator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    if d < 1:
        raise StructureError("dimension must be at least 1")
    q, r = np.linalg.qr(_ginibre(d, d, gen.rng))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_pvm(d: int, ranks, gen: SeededGenerator) -> ElementaryProperty:
    """Haar-rotated coordinate-block PVM with the requested rank profile."""
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks) or sum(ranks) != d:
        raise StructureError(f"ranks must be positive and sum to {d}, got {ranks}")
    u = haar_unitary(d, gen)
    projectors = {}
    start = 0
    for i, rank in enumerate(ranks):
        block = u[:, start : start + rank]
        projectors[f"x{i}"] = block @ block.conj().T
        start += rank
    # Blocks of one unitary: orthogonal, idempotent and complete by construction.
    outcomes = {label: projector_operation(p) for label, p in projectors.items()}
    ins = _trusted(Instrument, dim_in=d, dim_out=d, outcomes=outcomes)
    return _trusted(ElementaryProperty, base=ins, projectors=projectors)


def random_density(d: int, rank: int, gen: SeededGenerator) -> DensityState:
    """Random mixed state of the given rank (normalised Wishart factor)."""
    if not 1 <= rank <= d:
        raise StructureError(f"rank must be in [1, {d}], got {rank}")
    g = _ginibre(d, rank, gen.rng)
    m = g @ g.conj().T
    return DensityState((d,), m / float(np.real(np.trace(m))))


def random_rank_profile(d: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Random composition of d into the given number of positive parts."""
    if not 1 <= parts <= d:
        raise StructureError(f"parts must be in [1, {d}], got {parts}")
    cuts = np.sort(rng.choice(np.arange(1, d), size=parts - 1, replace=False))
    edges = np.concatenate(([0], cuts, [d]))
    return list(np.diff(edges).astype(int))


def _kraus_draw(d_in: int, d_out: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` jointly normalised Gaussian Kraus matrices, as a
    (count, d_out, d_in) array: sum K^dag K = I.

    One (count, 2, d_out, d_in) normal draw holds the real and imaginary parts
    of each matrix in turn, the same numbers ``count`` calls of ``_ginibre``
    draw.
    """
    parts = rng.standard_normal((count, 2, d_out, d_in))
    raw = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
    total = np.zeros((d_in, d_in), dtype=complex)
    for k in raw:
        total += k.conj().T @ k
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return raw @ inv_sqrt


def random_instrument(
    d_in: int, d_out: int, labels, gen: SeededGenerator, kraus_per_outcome: int = 1
) -> Instrument:
    """Random instrument: jointly normalised Gaussian Kraus families.

    With one Kraus matrix per outcome, every outcome is atomic.
    """
    labels = list(labels)
    if not labels:
        raise StructureError("instrument needs at least one outcome")
    if min(d_in, d_out, kraus_per_outcome) < 1:
        raise StructureError("dimensions and kraus_per_outcome must be positive")
    if len(labels) * kraus_per_outcome * d_out < d_in:
        raise StructureError("the Kraus matrices need at least d_in rows in total to normalise")
    kraus = _kraus_draw(d_in, d_out, len(labels) * kraus_per_outcome, gen.rng)
    kraus = kraus.reshape(len(labels), kraus_per_outcome, d_out, d_in)
    outcomes = {
        label: _trusted(QuantumOperation, dim_in=d_in, dim_out=d_out, kraus=tuple(mats))
        for label, mats in zip(labels, kraus)
    }
    return Instrument(d_in, d_out, outcomes)
