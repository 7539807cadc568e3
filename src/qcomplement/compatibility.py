"""Exclusion-witness verification and compatibility decisions.

Deciding exclusion between arbitrary instruments is a bilinear feasibility
problem with no known general procedure, so this module verifies supplied
witnesses (the realisation instrument, its outcome partition, and the
post-processing family) and decides the elementary case through the
support-matching theorem: elementary properties are weakly compatible exactly
when they are non-complementary. A seeded harness exercises the
verifier-inclusion theorem on randomly generated post-processings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complementarity import are_complementary
from .errors import StructureError
from .instruments import ElementaryProperty, Instrument
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
# the harness calls only random_rank_profile, and draws its PVMs by _pvm_draw.
from .sampling import (
    STREAM_ALGORITHM,
    SeededGenerator,
    _kraus_families,
    _pvm_draw,
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
        partition = {x: tuple(zs) for x, zs in self.partition.items()}
        seen: set[str] = set()
        for x, zs in partition.items():
            if not zs:
                raise StructureError(f"partition block {x!r} is empty")
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
    mats = []
    for e in range(d_drop):
        bra = np.zeros((1, d_drop))
        bra[0, e] = 1.0
        mats.append(np.kron(np.eye(d_keep), bra))
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
    return not are_complementary(p, q, tol).complementary


def pvm_commute(
    p: ElementaryProperty, q: ElementaryProperty, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Textbook observable compatibility: all projector pairs commute."""
    if p.dim != q.dim:
        raise StructureError(f"properties live on different dimensions: {p.dim} vs {q.dim}")
    for a in p.projectors.values():
        for b in q.projectors.values():
            if float(np.linalg.norm(a @ b - b @ a)) > tol.mat_eq:
                return False
    return True


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
    composite: np.ndarray, frames: np.ndarray, mask: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check verifier inclusion for every composite outcome at once.

    ``composite[y]`` is the one Kraus matrix of composite outcome y, which
    reads one projective outcome alone: the projector onto the columns
    ``mask[y]`` of the unitary ``frames[y]``, its branch's support as drawn.
    One Kraus matrix is atomic when it is nonzero (squared norm above
    ``mat_eq``). Each nonzero outcome's verifier support, from one batched
    ``eigh`` of the composites' effects, must lie in its branch's: every row
    of V_g^dag V_t has norm at least 1 - ``mat_eq``. Returns per outcome:
    checked (nonzero), violated, and the dimensions of its support and of
    its branch's.
    """
    nonzero = np.linalg.norm(composite, axis=(1, 2)) ** 2 > tol.mat_eq
    v, g_in = _supports(np.linalg.eigh(composite.conj().swapaxes(-1, -2) @ composite), tol)
    cross = v.conj().swapaxes(-1, -2) @ frames
    row_norms = np.linalg.norm(cross * mask[:, None, :], axis=2)
    escapes = np.any(g_in & (row_norms < 1.0 - tol.mat_eq), axis=1)
    return nonzero, nonzero & escapes, g_in.sum(axis=1), mask.sum(axis=1)


def _case_index(branches, outcomes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the composite outcomes of a chunk, ``branches[t][y]`` being the
    branch outcome y of trial t reads among the trial's ``outcomes[t]``:
    each one's trial, its y, and its branch among all trials' branches."""
    sizes = [len(b) for b in branches]
    trial = np.repeat(np.arange(len(branches)), sizes)
    local = np.arange(len(trial)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.cumsum(outcomes) - outcomes
    return trial, local, np.concatenate(branches) + offsets[trial]


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
    nonzero. Each trial makes its draws in turn; the QR, the normalisation,
    the products and the check then run once over all trials' matrices.
    """
    profiles, branches, parts, counts = [], [], [], []
    for gen in gens:
        rng = gen.rng
        n_out = int(rng.integers(2, dim + 1))
        profiles.append(random_rank_profile(dim, n_out, rng))
        extra = int(rng.integers(0, 3))
        order = rng.permutation(n_out)
        extras = [int(rng.integers(0, n_out)) for _ in range(extra)]
        branches.append(np.concatenate([order, np.array(extras, dtype=int)]))
        for x, count in enumerate(np.bincount(branches[-1]).tolist()):
            parts.append(gen.child(x + 1).rng.standard_normal((count, 2, dim, dim)))
            counts.append(count)
    projectors, frames, mask = _pvm_draw(dim, profiles, [gen.child(0) for gen in gens])
    trial, local, branch = _case_index(branches, [len(p) for p in profiles])
    # The families come branch by branch; outcome y's matrix is at its rank
    # in the stable order by branch.
    kraus = np.empty((len(branch), dim, dim), dtype=complex)
    kraus[np.argsort(branch, kind="stable")] = _kraus_families(np.concatenate(parts), counts)
    checked, violated, g_dim, t_dim = _check_inclusion(
        kraus @ projectors[branch], frames[branch], mask[branch], tol)
    x = np.concatenate(branches)
    return _trial_results(trial, local, checked, violated, lambda case: (
        f"x{x[case]}", int(g_dim[case]), int(t_dim[case])), len(gens))


# The largest harness dimension (quantum) or size (classical): one trial there
# takes up to about 50 MB. A larger value raises StructureError before
# anything is drawn or allocated.
_HARNESS_DIM_LIMIT = 64


def _run_harness(
    theory: str, batch, seed: int, dim: int, trials: int, tol: Tolerances
) -> HarnessReport:
    """Run the trials through ``batch(generators, dim, tol)``, one chunk of
    consecutive trials per call, and aggregate the ``(checked, violations)``
    pair it returns for each trial.

    Trial ``i`` draws from child ``i`` of the seed's stream, so a report
    depends only on the seed and the parameters, not on the chunking. A chunk
    holds ``max(1, _CHUNK_CELLS // dim**3)`` trials, so peak memory does not
    grow with ``trials``. ``dim`` must lie in [2, ``_HARNESS_DIM_LIMIT``].
    """
    noun = "dimension" if theory == "quantum" else "size"
    dim, seed, trials = _index(dim, noun), _index(seed, "seed"), _index(trials, "trials")
    if dim < 2:
        raise StructureError(f"harness needs {noun} at least 2")
    if dim > _HARNESS_DIM_LIMIT:
        raise StructureError(f"harness {noun} must be at most {_HARNESS_DIM_LIMIT}, got {dim}")
    if seed < 0:
        raise StructureError("seed must be nonnegative")
    if trials < 0:
        raise StructureError("trials must be nonnegative")
    root = SeededGenerator(seed)
    # A trial's arrays hold O(dim**3) entries (up to about 180 * dim**3 bytes
    # for the quantum theory).
    chunk = max(1, _CHUNK_CELLS // dim**3)
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
        seed=seed,
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
