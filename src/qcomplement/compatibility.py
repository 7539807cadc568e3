"""Exclusion-witness verification and compatibility decisions.

Deciding exclusion between arbitrary instruments is a bilinear feasibility
problem with no known general procedure, so this module verifies supplied
witnesses (the realisation instrument, its outcome partition, and the
post-processing family) and decides the elementary case through the
support-matching theorem: elementary properties are weakly compatible exactly
when they are non-complementary, so the decision reads the bijection of
complementarity's relation, with no witness search; ``pvm_commute`` reads its
commutator table from that relation's overlap. A seeded harness exercises the
verifier-inclusion theorem on randomly generated post-processings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complementarity import _overlap, _relation
from .errors import StructureError
from .instruments import (
    _GRAM_MIN_OUTCOMES,
    ElementaryProperty,
    Instrument,
    _chunks,
    _labels,
    _support_deltas,
)
from .linalg import _CHUNK_CELLS, DEFAULT_TOL, Tolerances, _index, _supports
from .operations import (
    QuantumOperation,
    choi_distance,
    coarse_grain_ops,
    compose_seq,
    identity_operation,
    zero_operation,
)
# bench/workloads.py wraps the three random_* names here for its traced run;
# the harness calls only random_rank_profile, and cuts its PVMs by _pvm_blocks.
from .sampling import (
    STREAM_ALGORITHM,
    SeededGenerator,
    _ginibre,
    _haar,
    _kraus_families,
    _pvm_blocks,
    _streams,
    random_instrument,
    random_pvm,
    random_rank_profile,
)


@dataclass(frozen=True)
class ExclusionWitness:
    """A realisation of one instrument that post-processes into another.

    ``c`` maps the common input system into the declared product of the first
    instrument's output (dimension ``dims_out[0]``) and an ancilla
    (``dims_out[1]``). ``partition`` groups c's outcomes by the first
    instrument's outcomes; ``post`` holds one post-processing instrument per
    c outcome, each with the second instrument's outcome set.
    """

    c: Instrument
    dims_out: tuple[int, int]
    partition: dict[str, tuple[str, ...]]
    post: dict[str, Instrument]

    def __post_init__(self):
        d_b, d_e = (_index(x, "declared output factor") for x in self.dims_out)
        if d_b < 1 or d_e < 1:
            raise StructureError("declared output factors must be positive")
        if d_b * d_e != self.c.dim_out:
            raise StructureError(
                f"declared factors {d_b}x{d_e} do not multiply to the realisation "
                f"output dimension {self.c.dim_out}"
            )
        partition = {x: _labels(zs, f"partition block {x!r}") for x, zs in self.partition.items()}
        seen: set[str] = set()
        for x, zs in partition.items():
            for z in zs:
                if z not in self.c.outcomes:
                    raise StructureError(f"partition block {x!r} names unknown outcome {z!r}")
                if z in seen:
                    raise StructureError(f"outcome {z!r} appears in more than one block")
                seen.add(z)
        if seen != set(self.c.labels):
            raise StructureError("partition blocks do not cover the realisation outcomes")
        if set(self.post) != set(self.c.labels):
            raise StructureError("post-processing keys do not match realisation outcomes")
        for z, ins in self.post.items():
            if ins.dim_in != self.c.dim_out:
                raise StructureError(
                    f"post-processing {z!r} expects input {ins.dim_in}, realisation "
                    f"outputs {self.c.dim_out}"
                )
        object.__setattr__(self, "dims_out", (d_b, d_e))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "post", dict(self.post))


def trace_out_ancilla(d_keep: int, d_drop: int) -> QuantumOperation:
    """The channel B(x)E -> B discarding the trailing ancilla factor."""
    d_keep, d_drop = _index(d_keep, "kept factor"), _index(d_drop, "discarded factor")
    if d_keep < 1 or d_drop < 1:
        raise StructureError("operation dimensions must be positive")
    # Kraus operator e is I (x) <e|, <e| row e of the identity on the ancilla.
    mats = [np.kron(np.eye(d_keep), np.eye(1, d_drop, e)) for e in range(d_drop)]
    return QuantumOperation(d_keep * d_drop, d_keep, tuple(mats))


@dataclass(frozen=True)
class WitnessReport:
    realisation_residuals: dict[str, float]
    simulation_residuals: dict[str, float]
    valid: bool
    threshold: float

    @property
    def max_residual(self) -> float:
        return max(
            list(self.realisation_residuals.values()) + list(self.simulation_residuals.values()),
            default=0.0,
        )


def verify_witness(
    t: Instrument, g: Instrument, w: ExclusionWitness, tol: Tolerances = DEFAULT_TOL
) -> WitnessReport:
    """Check that the witness realises ``t`` and post-processes into ``g``.

    The first family of residuals compares each t outcome against the
    ancilla-discarded block sum of the realisation; the second compares each
    g outcome against the fully post-processed realisation. Residuals are
    Choi Frobenius distances and are always reported; validity is the binary
    verdict at ``mat_eq``, so callers can apply stricter thresholds.
    """
    d_b, d_e = w.dims_out
    if t.dim_in != w.c.dim_in or g.dim_in != w.c.dim_in:
        raise StructureError("instruments and witness disagree on the input system")
    if t.dim_out != d_b:
        raise StructureError(
            f"first instrument outputs dimension {t.dim_out}, witness declares {d_b}"
        )
    if set(w.partition) != set(t.labels):
        raise StructureError("partition blocks do not match the first instrument's outcomes")
    for z, ins in w.post.items():
        if ins.dim_out != g.dim_out:
            raise StructureError(
                f"post-processing {z!r} outputs dimension {ins.dim_out}, expected {g.dim_out}"
            )
        if set(ins.labels) != set(g.labels):
            raise StructureError(
                f"post-processing {z!r} has outcomes {sorted(ins.labels)}, expected "
                f"{sorted(g.labels)}"
            )

    discard = trace_out_ancilla(d_b, d_e)
    realisation: dict[str, float] = {}
    for x in t.labels:
        realised = coarse_grain_ops(
            [compose_seq(discard, w.c[z]) for z in w.partition[x]]
        )
        realisation[x] = choi_distance(t[x], realised)
    simulation: dict[str, float] = {}
    for y in g.labels:
        processed = coarse_grain_ops(
            [compose_seq(w.post[z][y], w.c[z]) for z in w.c.labels]
        )
        simulation[y] = choi_distance(g[y], processed)
    valid = all(r <= tol.mat_eq for r in realisation.values()) and all(
        r <= tol.mat_eq for r in simulation.values()
    )
    return WitnessReport(
        realisation_residuals=realisation,
        simulation_residuals=simulation,
        valid=valid,
        threshold=tol.mat_eq,
    )


def self_witness(t: Instrument) -> ExclusionWitness:
    """Witness that any instrument fails to exclude itself.

    Trivial ancilla, realisation equal to the instrument, and post-processing
    that copies the heralded outcome through an identity channel.
    """
    ident = identity_operation(t.dim_out)
    zero = zero_operation(t.dim_out, t.dim_out)
    post = {
        z: Instrument(
            t.dim_out,
            t.dim_out,
            {y: ident if y == z else zero for y in t.labels},
        )
        for z in t.labels
    }
    return ExclusionWitness(
        c=t,
        dims_out=(t.dim_out, 1),
        partition={x: (x,) for x in t.labels},
        post=post,
    )


def postprocessing_witness(
    t: Instrument, cond: dict[str, Instrument]
) -> tuple[Instrument, ExclusionWitness]:
    """Build the instrument obtained by classical feedback after ``t``.

    ``cond`` supplies one conditional instrument per t outcome, all sharing
    an outcome set and output system. Returns the composite instrument
    together with a witness that is valid by construction.
    """
    if set(cond) != set(t.labels):
        raise StructureError("conditional family must name exactly the instrument outcomes")
    items = [cond[x] for x in t.labels]
    y_labels = items[0].labels
    d_out = items[0].dim_out
    for x, ins in zip(t.labels, items):
        if ins.dim_in != t.dim_out:
            raise StructureError(
                f"conditional for outcome {x!r} expects input {ins.dim_in}, "
                f"instrument outputs {t.dim_out}"
            )
        if ins.dim_out != d_out or set(ins.labels) != set(y_labels):
            raise StructureError("conditional instruments must share outcomes and output system")
    composite = {
        y: coarse_grain_ops([compose_seq(cond[x][y], t[x]) for x in t.labels])
        for y in y_labels
    }
    g = Instrument(t.dim_in, d_out, composite)
    w = ExclusionWitness(
        c=t,
        dims_out=(t.dim_out, 1),
        partition={x: (x,) for x in t.labels},
        post=dict(cond),
    )
    return g, w


def are_compatible_elementary(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Weak compatibility of elementary properties.

    Non-complementary elementary properties coincide up to outcome relabelling
    and are therefore compatible; complementary ones are strongly
    incompatible. That equivalence makes the support comparison the decision
    procedure.
    """
    return _relation(p, q, tol, tables=False, search=False).matched_bijection is not None


def pvm_commute(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Textbook observable compatibility: every pair of projectors commutes,
    |P_x Q_y - Q_y P_x|_F at most mat_eq.

    For PVMs, commuting is joint measurability (Heinosaari, Miyadera and
    Ziman, J. Phys. A 49, 2016), the textbook contrast to complementarity.
    The verdict is that of the loop of direct products over all pairs
    (``_commutator_norm``), by construction; most pairs of a commuting
    family are decided from one overlap instead:

    - The first pair runs directly, before any frame work, so most
      non-commuting families exit there.
    - From 8 pairs on, with U_P = [V_1 | V_2 | ...] and U_Q = [W_1 | ...]
      the support frames that ``_overlap`` cuts, the table
      F_xy = |[V_x V_x^dag, W_y W_y^dag]|_F comes from one overlap
      C = U_P^dag U_Q. In P's frame W_y W_y^dag is C_y C_y^dag, C_y the
      columns of outcome y, so F_xy^2 = 2 sum_{x' != x} |C_{x,y} C_{x',y}^dag|_F^2
      (``_frame_commutators``). The pair with the largest F runs next.
    - A pair is decided from F alone when its bound (``_commutator_bound``,
      which derives it) is at most mat_eq, for its direct value is then at
      most mat_eq too. With delta_x = |P_x - V_x V_x^dag|_F, delta_y
      likewise, epsilon = |U_P^dag U_P - I|_F, e_x the norm of its columns
      in P's block x, epsilon_Q that of U_Q and u the unit roundoff, it is
      (F_xy + 2 e_x (1 + epsilon)(1 + epsilon_Q)) / (1 - epsilon)
      + 2 (delta_x + delta_y + delta_x delta_y)
      + 2 (epsilon_Q delta_x + epsilon delta_y) + 32 d^2 u (1 + mat_eq).
      Every other pair runs directly, in the loop's order.
    - Below 8 pairs, when an outcome's support is empty, or when a
      property's supports do not number dim columns, every pair runs
      directly.
    """
    if p.dim != q.dim:
        raise StructureError(f"properties live on different dimensions: {p.dim} vs {q.dim}")
    first, second = list(p.projectors.values()), list(q.projectors.values())

    def commutes(x: int, y: int) -> bool:
        return not _commutator_norm(first[x], second[y]) > tol.mat_eq

    if not commutes(0, 0):
        return False
    pending = np.ones((len(first), len(second)), dtype=bool)
    pending[0, 0] = False
    # As for the PVM check: below 8 pairs the frames cost more than the loop.
    if pending.size >= _GRAM_MIN_OUTCOMES:
        *frames, overlap = _overlap(p, q, tol)
        if all(ranks.all() and frame.shape[1] == p.dim for frame, ranks, _ in frames):
            table = _frame_commutators(overlap, frames[0][1], frames[1][1])
            worst = np.unravel_index(np.argmax(table), table.shape)
            if pending[worst] and not commutes(*worst):
                return False
            pending[worst] = False
            pending &= ~(_commutator_bound(p, q, frames, table, tol) <= tol.mat_eq)
    return all(commutes(x, y) for x, y in zip(*np.nonzero(pending)))


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """|a b - b a|_F, the direct value that ``pvm_commute`` compares with
    mat_eq."""
    return float(np.linalg.norm(a @ b - b @ a))


def _frame_commutators(c: np.ndarray, ranks_p: np.ndarray, ranks_q: np.ndarray) -> np.ndarray:
    """The (n_p, n_q) table |[E_x, C_y C_y^dag]|_F from the d x d overlap C,
    whose rows run over P's outcomes in blocks of ``ranks_p`` and columns
    over Q's in blocks of ``ranks_q``; E_x is the indicator of P's block x.

    The squared norm is twice the sum of |C_y C_y^dag|^2 over the entries
    that cross P's blocks. For a one-column C_y, with A_xy the block sum of
    |C|^2 over rows x, that is 2 A_xy sum_{x' != x} A_x'y; the sums over x'
    are a prefix plus a suffix sum, never a total less a part, so a small
    value does not drown in the rounding of an O(1) one. Wider C_y square
    the entries of C_y C_y^dag, at most ``_CHUNK_CELLS / 2`` at a time.
    """
    starts_p = np.cumsum(ranks_p) - ranks_p
    starts_q = np.cumsum(ranks_q) - ranks_q
    table = np.empty((len(ranks_p), len(ranks_q)))
    single = ranks_q == 1
    if single.any():
        a = np.add.reduceat(np.abs(c[:, starts_q[single]]) ** 2, starts_p, axis=0)
        others = np.zeros_like(a)
        others[1:] = np.cumsum(a[:-1], axis=0)
        others[:-1] += np.cumsum(a[:0:-1], axis=0)[::-1]
        table[:, single] = np.sqrt(2.0 * a * others)
    owner = np.repeat(np.arange(len(ranks_p)), ranks_p)
    for k in sorted(set(ranks_q[~single].tolist())):
        ys = np.flatnonzero(ranks_q == k)
        for part in _chunks(len(ys), 2 * c.size):
            cy = c[:, starts_q[ys[part], None] + np.arange(k)].transpose(1, 0, 2)
            sq = np.abs(cy @ cy.conj().swapaxes(-1, -2))
            sq *= sq
            sq *= owner[:, None] != owner
            table[:, ys[part]] = np.sqrt(2.0 * np.add.reduceat(sq.sum(axis=2), starts_p, axis=1)).T
    return table


def _commutator_bound(
    p: ElementaryProperty, q: ElementaryProperty, frames, table: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """An (n_p, n_q) upper bound on the computed |P_x Q_y - Q_y P_x|_F, from
    the ``_frame_commutators`` table F of the ``_overlap`` frames ``frames``
    of p and q at ``tol``, U_P = [V_1 | V_2 | ...] and U_Q = [W_1 | W_2 | ...].

    Write Pi_x = V_x V_x^dag and G_y = W_y W_y^dag, E_x for the indicator of
    P's block x, Delta = U_P^dag U_P - I, s_P = |Delta|_F >= |Delta|_2 (s_Q
    likewise for U_Q), e_x = |Delta E_x|_F, and delta_x = |P_x - Pi_x|_F,
    delta_y = |Q_y - G_y|_F (``_support_deltas``; those the property holds
    where its cut kept its whole frame).

    - U_P^dag [Pi_x, G_y] U_P = (I + Delta) E_x K - K E_x (I + Delta) with
      K = C_y C_y^dag, so it is within 2 e_x |K|_2 of [E_x, K], whose norm
      is F_xy; |K|_2 <= |U_P|_2^2 |W_y|_2^2 <= (1 + s_P)(1 + s_Q). Undoing
      U_P scales a norm by at most 1 / sigma_min(U_P)^2 <= 1 / (1 - s_P):
      |[Pi_x, G_y]|_F <= (F_xy + 2 e_x (1 + s_P)(1 + s_Q)) / (1 - s_P).
      So only P's frame need be orthonormal, and only near the block x.
    - [P_x, Q_y] - [Pi_x, G_y] = [P_x - Pi_x, Q_y] + [Pi_x, Q_y - G_y], and
      |[A, B]|_F <= 2 |A|_F |B|_2 with |Q_y|_2 <= 1 + s_Q + delta_y and
      |Pi_x|_2 <= 1 + s_P: this adds
      2 (delta_x + delta_y + delta_x delta_y) + 2 (s_Q delta_x + s_P delta_y).
    - Rounding: the direct value, C, delta and Delta are products of
      length at most d of vectors of norm at most about sqrt(d), each off
      by at most about (d + 2) d u in absolute terms (Higham's gamma_{d+2},
      u the unit roundoff), and the sums of squares are off by d^2 u
      relative. 32 d^2 u (1 + mat_eq) covers them all from d = 3, the
      least dimension with 8 pairs.

    Where s_P reaches 1, U_P may be singular and the bound is infinite.
    """
    (u_p, ranks_p, _), (u_q, _, _) = frames
    d = p.dim
    lean = u_p.conj().T @ u_p - np.eye(d)
    s_p = float(np.linalg.norm(lean))
    if not s_p < 1.0:
        return np.full(table.shape, np.inf)
    s_q = float(np.linalg.norm(u_q.conj().T @ u_q - np.eye(d)))
    e_p = np.sqrt(np.add.reduceat((np.abs(lean) ** 2).sum(axis=0), np.cumsum(ranks_p) - ranks_p))[:, None]
    delta_p, delta_q = (prop._deltas if prop._deltas is not None and keep.all()
                        else _support_deltas(list(prop.projectors.values()), frame, ranks)
                        for prop, (frame, ranks, keep) in zip((p, q), frames))
    delta_p = delta_p[:, None]  # one row per outcome of p, against delta_q's columns
    rounding = 32 * d * d * (np.finfo(float).eps / 2) * (1.0 + tol.mat_eq)
    return ((table + 2.0 * e_p * (1.0 + s_p) * (1.0 + s_q)) / (1.0 - s_p)
            + 2.0 * (delta_p + delta_q + delta_p * delta_q)
            + 2.0 * (s_q * delta_p + s_p * delta_q) + rounding)


@dataclass(frozen=True)
class HarnessReport:
    theory: str
    seed: int
    algorithm: str
    dim: int
    trials: int
    filtered_trials: int
    checked_cases: int
    violations: int
    cases: tuple = ()


def _check_inclusion(
    composite: np.ndarray, frames: np.ndarray, owner: np.ndarray, branch: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check verifier inclusion for every composite outcome at once.

    ``composite[y]`` is the one Kraus matrix of composite outcome y, which
    reads one projective outcome alone, ``branch[y]``, of a PVM drawn with
    the support frame ``frames[y]``, a unitary whose column i belongs to
    outcome ``owner[y, i]``: its branch's support is the frame's columns
    of that outcome. One Kraus matrix is atomic when it is nonzero (squared
    norm above ``mat_eq``). Each nonzero outcome's verifier support, from
    one batched ``eigh`` of the composites' effects, must lie in its
    branch's: every row of V_g^dag V_t has norm at least 1 - ``mat_eq``.
    Returns per outcome: checked (nonzero), violated, and the dimensions of
    its support and of its branch's.
    """
    nonzero = np.linalg.norm(composite, axis=(1, 2)) ** 2 > tol.mat_eq
    v, g_in = _supports(np.linalg.eigh(composite.conj().swapaxes(-1, -2) @ composite), tol)
    mask = owner == branch[:, None]
    cross = v.conj().swapaxes(-1, -2) @ frames
    row_norms = np.linalg.norm(cross * mask[:, None, :], axis=2)
    escapes = np.any(g_in & (row_norms < 1.0 - tol.mat_eq), axis=1)
    return nonzero, nonzero & escapes, g_in.sum(axis=1), mask.sum(axis=1)


def _draw_branches(rng: np.random.Generator, n: int) -> tuple[list[int], list[int]]:
    """The branch each composite outcome of a trial reads, among ``n``: every
    branch once in a random order, then zero to two more drawn at random;
    and each branch's reader count. Plain lists, as the trial's own
    bookkeeping costs less in Python than in numpy calls on a few values."""
    extra = int(rng.integers(0, 3))
    reads = rng.permutation(n).tolist() + [int(rng.integers(0, n)) for _ in range(extra)]
    readers = [1] * n
    for x in reads[n:]:
        readers[x] += 1
    return reads, readers


def _case_index(branches, outcomes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For the composite outcomes of a chunk, ``branches[t][y]`` being the
    branch outcome y of trial t reads among the trial's ``outcomes[t]``:
    each one's trial, its y, that branch, and that branch among all
    trials' branches."""
    sizes = [len(b) for b in branches]
    trial = np.repeat(np.arange(len(branches)), sizes)
    local = np.arange(len(trial)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.cumsum(outcomes) - outcomes
    x = np.array([b for reads in branches for b in reads])
    return trial, local, x, x + offsets[trial]


def _trial_results(trial, local, checked, violated, detail, count: int) -> list:
    """The ``(checked, violations)`` pair of each of ``count`` trials from
    per-case masks: a violation is ``(f"y{local}",) + detail(case)``."""
    results = [(c, []) for c in np.bincount(trial[checked], minlength=count).tolist()]
    for case in np.flatnonzero(violated).tolist():
        results[trial[case]][1].append((f"y{local[case]}",) + detail(case))
    return results


def _quantum_batch(gens: list, dim: int, tol: Tolerances) -> list:
    """Harness trials for the quantum verifier-inclusion theorem, one per
    generator.

    Each trial draws a random projective elementary instrument, then a
    post-processing in which each composite outcome y reads one branch,
    ``branch[y]``, with one Kraus matrix K_y, drawn jointly normalised per
    branch; so the composite A_y = K_y P_branch[y] is atomic whenever it is
    nonzero. Each trial makes its draws in turn, then draws its PVM's
    Ginibre matrix from its child 0; the QR, the normalisation, the products
    and the check then run once over all trials' matrices.
    """
    profiles, branches, counts, ginibre = [], [], [], []
    streams = _streams([g for gen in gens for g in (gen, gen.child(0))])
    for rng in streams:
        n_out = int(rng.integers(2, dim + 1))
        profiles.append(random_rank_profile(dim, n_out, rng))
        reads, readers = _draw_branches(rng, n_out)
        branches.append(reads)
        counts.extend(readers)
        ginibre.append(_ginibre(dim, dim, next(streams)))
    # With every n_out drawn, branch x's Kraus parts come from child x + 1 of
    # its trial: one more pass over the chunk.
    kraus_gens = [gen.child(x + 1) for gen, profile in zip(gens, profiles) for x in range(len(profile))]
    parts = [rng.standard_normal((count, 2, dim, dim)) for count, rng in zip(counts, _streams(kraus_gens))]
    projectors, frames, owner = _pvm_blocks(_haar(np.stack(ginibre)), profiles)
    trial, local, x, branch = _case_index(branches, [len(p) for p in profiles])
    # The families come branch by branch; outcome y's matrix is at its rank
    # in the stable order by branch.
    kraus = np.empty((len(branch), dim, dim), dtype=complex)
    kraus[np.argsort(branch, kind="stable")] = _kraus_families(np.concatenate(parts), counts)
    checked, violated, g_dim, t_dim = _check_inclusion(
        kraus @ projectors[branch], frames[trial], owner[trial], x, tol)
    return _trial_results(trial, local, checked, violated, lambda case: (
        f"x{x[case]}", int(g_dim[case]), int(t_dim[case])), len(gens))


# The largest harness dimension (quantum) or size (classical). One quantum
# trial there takes up to about 50 MB; a classical trial holds only its own
# draws, but keeps the same cap. A larger value raises StructureError before
# anything is drawn or allocated.
_HARNESS_DIM_LIMIT = 64


def _run_harness(
    theory: str, batch, seed: int, dim: int, trials: int, tol: Tolerances
) -> HarnessReport:
    """Run the trials through ``batch(generators, dim, tol)``, one chunk of
    consecutive trials per call, and aggregate the ``(checked, violations)``
    pair it returns for each trial.

    Trial ``i`` draws from child ``i`` of the seed's stream, so a report
    depends only on the seed and the parameters, not on the chunking. The
    batches read a chunk's streams through ``sampling._streams``, which
    derives them in one pass, bit-equal to ``PCG64(SeedSequence(seed,
    spawn_key=path))`` (M. E. O'Neill's seed_seq mixing, which numpy
    follows); ``SeededGenerator.rng`` is the reference they match. A chunk
    holds ``max(1, _CHUNK_CELLS // dim**3)`` quantum trials, or
    ``max(1, _CHUNK_CELLS // dim**2)`` classical ones, so peak memory does
    not grow with ``trials``. ``dim`` must lie in [2, ``_HARNESS_DIM_LIMIT``].
    """
    noun = "dimension" if theory == "quantum" else "size"
    dim, trials = _index(dim, noun), _index(trials, "trials")
    if dim < 2:
        raise StructureError(f"harness needs {noun} at least 2")
    if dim > _HARNESS_DIM_LIMIT:
        raise StructureError(f"harness {noun} must be at most {_HARNESS_DIM_LIMIT}, got {dim}")
    root = SeededGenerator(seed)
    if trials < 0:
        raise StructureError("trials must be nonnegative")
    # A quantum trial's arrays hold O(dim**3) entries (up to about
    # 180 * dim**3 bytes); a classical trial's hold O(dim), so a classical
    # chunk holds O(_CHUNK_CELLS / dim) entries.
    chunk = max(1, _CHUNK_CELLS // (dim**3 if theory == "quantum" else dim**2))
    cases = []
    checked_cases = 0
    filtered = 0
    for start in range(0, trials, chunk):
        gens = [root.child(index) for index in range(start, min(start + chunk, trials))]
        for index, (checked, violations) in enumerate(batch(gens, dim, tol), start):
            checked_cases += checked
            if checked:
                filtered += 1
            cases.extend((index,) + tuple(item) for item in violations)
    return HarnessReport(
        theory=theory,
        seed=root.seed,
        algorithm=STREAM_ALGORITHM,
        dim=dim,
        trials=trials,
        filtered_trials=filtered,
        checked_cases=checked_cases,
        violations=len(cases),
        cases=tuple(cases),
    )


def verifier_inclusion_harness(
    seed: int, dim: int, trials: int, tol: Tolerances = DEFAULT_TOL
) -> HarnessReport:
    """Random check of the verifier-inclusion theorem in quantum theory.

    Each trial draws a random projective elementary instrument and a random
    post-processing in which each composite outcome reads one branch with one
    Kraus matrix. Every nonzero composite outcome is checked against the
    branch it reads: a violation is a vector of its verifier support that
    keeps less than 1 - ``mat_eq`` of its norm on that branch's support.
    Zero violations are expected.
    """
    return _run_harness("quantum", _quantum_batch, seed, dim, trials, tol)
