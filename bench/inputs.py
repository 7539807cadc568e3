"""Seeded benchmark inputs, built with plain numpy only.

Nothing here imports ``qcomplement``: the inputs must not change when the
program under test changes. Every verdict is known by construction and sits
far from the package's decision thresholds (exact projectors, or Haar-random
subspaces whose overlaps are of order one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

KRAUS_DIMS = (4, 8, 12, 16)
PVM_DIMS = (8, 16, 24, 32)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via the phase-corrected QR of a Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def blocks(basis: np.ndarray, ranks) -> list[np.ndarray]:
    """Split the columns of ``basis`` into consecutive blocks of the given ranks."""
    edges = np.concatenate(([0], np.cumsum(ranks)))
    return [basis[:, a:b] for a, b in zip(edges[:-1], edges[1:])]


def projector(block: np.ndarray) -> np.ndarray:
    return block @ block.conj().T


def matrix_lists(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def instrument_json(d: int, outcomes: dict[str, list[np.ndarray]]) -> str:
    """A ``quantum-instrument`` model file in the package's wire format."""
    return json.dumps({
        "kind": "quantum-instrument",
        "type": "quantum",
        "dim_in": d,
        "dim_out": d,
        "outcomes": [
            {"label": label, "kraus": [matrix_lists(k) for k in mats]}
            for label, mats in outcomes.items()
        ],
    })


@dataclass(frozen=True)
class KrausFile:
    """One instrument file with the verdicts the CLI must reach on it."""

    name: str
    d: int
    text: str
    elementary: bool
    ranks: dict[str, int] | None


def _elementary_file(name: str, d: int, ranks, rng) -> KrausFile:
    u = haar_unitary(d, rng)
    outcomes = {}
    for i, block in enumerate(blocks(u, ranks)):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        outcomes[f"x{i}"] = [phase * projector(block)]
    expected = {label: int(r) for label, r in zip(outcomes, ranks)}
    return KrausFile(name, d, instrument_json(d, outcomes), True, expected)


def _random_file(name: str, d: int, rng, n_out: int = 3, per_outcome: int = 2) -> KrausFile:
    """Jointly normalised Gaussian Kraus families: valid, never repeatable."""
    raw = [
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
        for _ in range(n_out * per_outcome)
    ]
    w, v = np.linalg.eigh(sum(g.conj().T @ g for g in raw))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    outcomes = {
        f"r{i}": [g @ inv_sqrt for g in raw[i * per_outcome : (i + 1) * per_outcome]]
        for i in range(n_out)
    }
    return KrausFile(name, d, instrument_json(d, outcomes), False, None)


def coarse_profile(d: int, rng) -> list[int]:
    """Random composition of d into d/4 + 1 positive parts (2 to d/2 for
    d >= 4). The part count, which sets the cost, depends on d alone."""
    parts = d // 4 + 1
    cuts = np.sort(rng.choice(np.arange(1, d), size=parts - 1, replace=False))
    return [int(r) for r in np.diff(np.concatenate(([0], cuts, [d])))]


def kraus_files(seed: int) -> list[KrausFile]:
    """Per dimension: rank-1 elementary, coarse elementary, random Gaussian."""
    rng = np.random.default_rng([seed, 1])
    files = []
    for d in KRAUS_DIMS:
        files.append(_elementary_file(f"rank1_d{d}.json", d, [1] * d, rng))
        files.append(_elementary_file(f"coarse_d{d}.json", d, coarse_profile(d, rng), rng))
        files.append(_random_file(f"random_d{d}.json", d, rng))
    return files


@dataclass(frozen=True)
class PvmPair:
    """Two labelled projector families and the relation they must show."""

    name: str
    d: int
    p: dict[str, np.ndarray]
    q: dict[str, np.ndarray]
    complementary: bool
    bijection: dict[str, str] | None
    commute: bool
    shared: str | None


PROFILES = {
    "rank1": lambda d: [1] * d,
    "halves": lambda d: [d // 2, d // 2],
    "rank2": lambda d: [2] * (d // 2),
}

# The shared-projector kind needs at least two projectors besides the shared
# one, otherwise the complement is a single projector and the pair coincides.
PAIR_KINDS = {
    "rank1": ("independent", "relabelled", "shared"),
    "halves": ("independent", "relabelled"),
    "rank2": ("independent", "relabelled", "shared"),
}


def _pair(kind: str, profile: str, d: int, rng) -> PvmPair:
    ranks = PROFILES[profile](d)
    u = haar_unitary(d, rng)
    p_blocks = blocks(u, ranks)
    p = {f"p{i}": projector(b) for i, b in enumerate(p_blocks)}
    name = f"{kind}_{profile}_d{d}"
    if kind == "independent":
        q = {f"q{i}": projector(b) for i, b in enumerate(blocks(haar_unitary(d, rng), ranks))}
        return PvmPair(name, d, p, q, True, None, False, None)
    if kind == "relabelled":
        n = len(ranks)
        rotated = [b @ haar_unitary(b.shape[1], rng) for b in p_blocks]
        q = {f"q{i}": projector(rotated[n - 1 - i]) for i in range(n)}
        bijection = {f"p{i}": f"q{n - 1 - i}" for i in range(n)}
        return PvmPair(name, d, p, q, False, bijection, True, None)
    first = p_blocks[0].shape[1]
    complement = u[:, first:] @ haar_unitary(d - first, rng)
    q_blocks = [p_blocks[0] @ haar_unitary(first, rng)] + blocks(complement, ranks[1:])
    q = {f"q{i}": projector(b) for i, b in enumerate(q_blocks)}
    return PvmPair(name, d, p, q, True, None, False, "p0")


def pvm_pairs(seed: int) -> list[PvmPair]:
    rng = np.random.default_rng([seed, 2])
    return [
        _pair(kind, profile, d, rng)
        for d in PVM_DIMS
        for profile, kinds in PAIR_KINDS.items()
        for kind in kinds
    ]
