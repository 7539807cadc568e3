"""Seeded random generators for property suites and harnesses.

Streams are numpy PCG64 generators keyed by ``SeedSequence(seed, spawn_key)``,
so the same seed and parameters reproduce bit-identical draws, and per-trial
children are statistically independent. The stream algorithm identifier is
echoed into harness reports for reproducibility across releases.

``SeededGenerator.rng`` is the public path and the reference; the public
draws below read it. The harness batches read their streams from
``_streams`` instead, which derives the PCG64 states of a whole chunk of
children in one array pass, bit-equal to
``PCG64(SeedSequence(seed, spawn_key=path))``. ``SeedSequence`` mixes its
entropy by fixed 32-bit hashing (M. E. O'Neill, "Developing a seed_seq
Alternative", pcg-random.org, 2015): numpy's ``SeedSequence(seed)`` mixes
the seed, and ``_streams`` derives only the hashes of the path words, the
eight output hashes and PCG64's two 128-bit LCG steps from four of its
output words. That derivation follows numpy's seeding algorithm as it
stands; the parity test against ``SeededGenerator.rng`` is what catches a
change to it.
"""

from __future__ import annotations

from collections.abc import Iterator
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


# numpy's SeedSequence hash and mix constants, and PCG64's LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first, and
    one word for 0: how ``SeedSequence`` splits its entropy."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(start: int, mult: int, count: int) -> list[int]:
    """The ``count + 1`` hash constants from ``start`` on. The constant steps
    between a hash's xor and its product, so hash k takes constants k and
    k + 1; the steps do not depend on the data hashed."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# The eight hashes that turn the pool into PCG64's seed run twice over its
# four words: their first and second constants, one row per round.
_OUTPUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)
_OUTPUT_XOR, _OUTPUT_MUL = _OUTPUT_CONSTS[:-1].reshape(2, 4), _OUTPUT_CONSTS[1:].reshape(2, 4)


def _streams(gens: list) -> Iterator[np.random.Generator]:
    """The stream of each generator in ``gens``, in order, bit-equal to its
    ``rng``, as one reused ``Generator`` set to each one's PCG64 state in
    turn. Each stream must be finished before the next is read, for reading
    the next resets it.

    The states are derived together, a group per seed and path length in
    32-bit words (an index of 2**32 or more takes several). ``SeedSequence``
    hashes each entropy word, the seed's and then the path's, into each of
    the four pool words in turn, with a hash constant that steps on every
    hash whatever the data. So the seed's part is mixed once per seed, by
    numpy's ``SeedSequence(seed)``, whose ``pool`` holds it; the constant
    has by then stepped once per hash: 4 fill the pool, 12 mix across it,
    and 4 more come for each seed word past four. The path words of every child of the group
    are hashed at once and mixed in one word position at a time, over
    uint32 arrays, whose wrapping products are the algorithm's own. The
    pool then hashes into eight output words, read as four little-endian
    uint64: PCG64 takes the first two as its 128-bit initial state s and the
    last two as its stream i, sets inc = 2i + 1 and steps its LCG twice,
    state = (inc + s) a + inc mod 2**128 for its multiplier a.
    """
    words = [[word for index in gen.path for word in _words(index)] for gen in gens]
    groups: dict[tuple[int, int], list[int]] = {}
    for row, (gen, path_words) in enumerate(zip(gens, words)):
        groups.setdefault((gen.seed, len(path_words)), []).append(row)
    pools = {seed: np.random.SeedSequence(seed).pool for seed in {gen.seed for gen in gens}}
    states = [(0, 0)] * len(gens)
    for (seed, count), rows in groups.items():
        const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, len(_words(seed)) - 4), 2**32) & _MASK32
        consts = np.array(_hash_consts(const, _MULT_A, 4 * count), dtype=np.uint32)
        entropy = np.array([words[row] for row in rows], dtype=np.uint32).reshape(len(rows), count, 1)
        # Each path word hashed for each pool word: (children, words, 4).
        hashed = (entropy ^ consts[:-1].reshape(count, 4)) * consts[1:].reshape(count, 4)
        hashed ^= hashed >> 16
        mixer = np.tile(pools[seed], (len(rows), 1))
        for k in range(count):
            mixer = mixer * np.uint32(_MIX_L) - hashed[:, k] * np.uint32(_MIX_R)
            mixer ^= mixer >> 16
        out = (mixer[:, None] ^ _OUTPUT_XOR) * _OUTPUT_MUL
        out ^= out >> 16
        for row, (s0, s1, s2, s3, i0, i1, i2, i3) in zip(rows, out.reshape(-1, 8).tolist()):
            start = (s0 | s1 << 32) << 64 | s2 | s3 << 32
            inc = ((i0 | i1 << 32) << 65 | (i2 | i3 << 32) << 1 | 1) & _MASK128
            states[row] = ((start + inc) * _PCG64_MULT + inc) & _MASK128, inc
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in states:
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


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


def _pvm_blocks(u: np.ndarray, profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinate-block PVM on C^d rotated by each of the (PVMs, d, d)
    unitaries ``u``, cut by its trusted rank profile (positive ranks summing
    to d): the (outcomes, d, d) projector stack, all PVMs' outcomes in
    order; the unitaries; and the (PVMs, d) owner index, the outcome within
    its PVM of each unitary's column. ``_support_projectors`` forms the
    projectors B B^dag of the column blocks B, one stacked product per rank, so the numbers are
    those of per-PVM calls, bit for bit. A PVM's unitary and owner index,
    with eigenvalue 1 on every column, are thus its support frame
    (U, owner, w), and each projector is its block's own product.
    """
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
    stack, frames, owner = _pvm_blocks(_haar(_ginibre(d, d, gen.rng)[None]), [ranks])
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
    count = len(labels) * kraus_per_outcome
    kraus = _kraus_families(gen.rng.standard_normal((count, 2, d_out, d_in)), [count])
    kraus = kraus.reshape(len(labels), kraus_per_outcome, d_out, d_in)
    outcomes = _labelled(
        (label, _trusted(QuantumOperation, dim_in=d_in, dim_out=d_out, kraus=tuple(mats)))
        for label, mats in zip(labels, kraus)
    )
    return Instrument(d_in, d_out, outcomes)
