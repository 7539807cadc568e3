"""The four benchmark workloads.

Each workload turns a seed into a fixed list of ops. An op has an untimed
correctness check built in: ``run()`` performs the op and ``traced(tracer)``
replays it as the public calls the op makes, with spans around them. Both
return ``None`` when the op's verdict and exit code are as expected, or a
description of what differed. The package is imported inside ``setup`` so
that the import is paid inside the measured set-up, and only by the
workloads that use it in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = "demos/models"


@dataclass
class Op:
    label: str
    run: Callable[[], str | None]
    traced: Callable[[Tracer], str | None]
    # A program defect that is known and tracked: a miss counts as failed,
    # but does not make the run incorrect.
    known_defect: bool = False


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_main(cli, argv: list[str]) -> tuple[int, str]:
    """In-process ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect(want: dict, got: dict) -> str | None:
    wrong = {k: (v, got.get(k)) for k, v in want.items() if got.get(k) != v}
    return None if not wrong else "; ".join(f"{k}: want {w!r}, got {g!r}" for k, (w, g) in wrong.items())


class Workload:
    name = ""
    # Fewest timed passes; also fixes which tail percentile is reported.
    min_passes = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.ops: list[Op] = []

    def setup(self):
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        """The ops of pass ``index``; pass 0 is the warm-up pass."""
        return self.ops

    def instrument(self, tracer: Tracer):
        """Context for the traced run; may add spans inside package calls."""
        return contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def counts(self) -> dict[str, float]:
        """Count metrics gathered by the traced run."""
        return {}

    def notes(self) -> list[str]:
        return []


class ClassifyKraus(Workload):
    """In-process ``cli.main(["--json", sub, file])`` on Kraus-form files."""

    name = "classify-kraus"
    min_passes = 4

    def setup(self):
        from qcomplement import cli, errors, instruments, linalg, operations, serialize

        self.cli, self.errors, self.instruments = cli, errors, instruments
        self.linalg, self.operations, self.serialize = linalg, operations, serialize
        self.accepted = self.classified = 0
        for f in inputs.kraus_files(self.seed):
            path = self.work / f.name
            path.write_text(f.text)
            for sub in ("validate", "classify"):
                self.ops.append(Op(
                    f"{sub} {f.name}",
                    partial(self._run, sub, f, path),
                    partial(self._traced, sub, f, path),
                ))

    @staticmethod
    def _check(sub: str, f: inputs.KrausFile, code: int, out: dict) -> str | None:
        if sub == "validate":
            want = {"code": 0, "valid": True}
        elif f.elementary:
            want = {"code": 0, "valid": True, "repeatable": True, "elementary": True,
                    "projector_ranks": f.ranks}
        else:
            want = {"code": 1, "valid": True, "repeatable": False, "elementary": False}
        return _expect(want, {"code": code, **out})

    def _run(self, sub, f, path) -> str | None:
        code, text = run_main(self.cli, ["--json", sub, str(path)])
        return self._check(sub, f, code, json.loads(text))

    def _traced(self, sub, f, path, tr: Tracer) -> str | None:
        with tr.span("op"):
            with tr.span("serialize.parse"):
                ins = self.serialize.model_from_path(path).value
            with tr.span("instruments.validate"):
                out = {"valid": self.instruments.validate_instrument(ins).is_valid}
            if sub == "classify":
                out.update(self._classify(ins, out["valid"], tr))
            code = 0 if out["elementary" if sub == "classify" else "valid"] else 1
            with tr.span("serialize.report"):
                json.dumps({**out, "model": self.serialize.model_to_dict(ins)}, indent=2)
        if sub == "classify":
            with tr.span("probe"):
                for op in ins.outcomes.values():
                    with tr.span("operations.choi"):
                        c = self.operations.choi(op)
                    with tr.span("linalg.psd"):
                        self.linalg.is_psd(c.matrix)
        return self._check(sub, f, code, out)

    def _classify(self, ins, valid: bool, tr: Tracer) -> dict:
        """The calls ``qcomplement classify`` makes on a square instrument."""
        with tr.span("instruments.repeatable"):
            repeatable = self.instruments.is_repeatable(ins)
        atomic = []
        for op in ins.outcomes.values():
            with tr.span("operations.atomic"):
                atomic.append(self.operations.is_atomic(op))
        ranks = None
        if valid and repeatable and all(atomic):
            with tr.span("instruments.extract"):
                try:
                    ranks = self.instruments.to_elementary(ins).rank_profile()
                except (self.errors.StructureError, self.errors.ExtractionError):
                    pass
        self.classified += 1
        self.accepted += ranks is not None
        return {"repeatable": repeatable, "elementary": ranks is not None,
                "projector_ranks": ranks}

    def counts(self):
        return {"instruments.accept_ratio": self.accepted / max(self.classified, 1)}


class RelationPvm(Workload):
    """The README quick-start library path on pairs of projector families."""

    name = "relation-pvm"
    min_passes = 5

    def setup(self):
        import qcomplement

        self.qc = qcomplement
        self.complementary = self.witnessed = 0
        for pair in inputs.pvm_pairs(self.seed):
            self.ops.append(Op(pair.name, partial(self._run, pair), partial(self._traced, pair)))

    def _run(self, pair: inputs.PvmPair) -> str | None:
        qc = self.qc
        p, q = qc.from_pvm(pair.p), qc.from_pvm(pair.q)
        report = qc.classify_relation(p, q)
        return self._check(pair, report, qc.are_compatible_elementary(p, q), qc.pvm_commute(p, q))

    def _traced(self, pair: inputs.PvmPair, tr: Tracer) -> str | None:
        qc = self.qc
        with tr.span("op"):
            with tr.span("instruments.from_pvm"):
                p = qc.from_pvm(pair.p)
            with tr.span("instruments.from_pvm"):
                q = qc.from_pvm(pair.q)
            with tr.span("complementarity.relation"):
                report = qc.classify_relation(p, q)
            with tr.span("compatibility.compat"):
                compatible = qc.are_compatible_elementary(p, q)
            with tr.span("compatibility.commute"):
                commute = qc.pvm_commute(p, q)
        with tr.span("probe"):
            for m in (*pair.p.values(), *pair.q.values()):
                with tr.span("linalg.range"):
                    qc.range_subspace(m)
        if report.complementary:
            self.complementary += 1
            self.witnessed += report.witness is not None
        return self._check(pair, report, compatible, commute)

    @staticmethod
    def _check(pair: inputs.PvmPair, report, compatible: bool, commute: bool) -> str | None:
        got = {
            "complementary": report.complementary,
            "bijection": report.matched_bijection,
            "compatible": compatible,
            "commute": commute,
            "witness": _witnesses(report.witness, pair) if pair.complementary else None,
        }
        want = {
            "complementary": pair.complementary,
            "bijection": pair.bijection,
            "compatible": not pair.complementary,
            "commute": pair.commute,
            "witness": True if pair.complementary else None,
        }
        if pair.shared:
            kinds = {x: v.kind.value for x, v in report.degree_table.items()}
            certain = [x for x, kind in kinds.items() if kind == "not-complementary-here"]
            got["certain_rows"], want["certain_rows"] = certain, [pair.shared]
        return _expect(want, got)

    def counts(self):
        return {"complementarity.witness_ratio": self.witnessed / max(self.complementary, 1)}


def _witnesses(state, pair: inputs.PvmPair) -> bool:
    """True iff the state verifies one family and fails the other."""
    if state is None:
        return False
    rho = state.matrix

    def certain(family) -> bool:
        return max(float(np.real(np.vdot(m, rho))) for m in family.values()) >= 1.0 - 1e-6

    return certain(pair.p) != certain(pair.q)


# (theory, dimension or size, trials): each call takes about the same time.
HARNESS_MIX = (("quantum", 3, 25), ("classical", 6, 60), ("quantum", 6, 10), ("classical", 12, 20))
# Harness seeds per pass; every pass draws new ones.
HARNESS_ROUNDS = 3


class Harness(Workload):
    """Seeded harness calls, alternating the quantum and classical theorems."""

    name = "harness"
    min_passes = 9

    def setup(self):
        from qcomplement import classical, compatibility

        self.compatibility = compatibility
        self.harness = {
            "quantum": compatibility.verifier_inclusion_harness,
            "classical": classical.classical_theorem_harness,
        }
        self.digests: dict[str, str] = {}
        self.traced_reports: dict[str, object] = {}
        self.passes: dict[int, list[Op]] = {}
        self.pass_ops(0)

    def pass_ops(self, index: int) -> list[Op]:
        """Each pass draws fresh harness seeds, so a run averages over more
        seeds than one pass holds; the traced run repeats the untraced
        run's passes, and their report digests must agree."""
        if index not in self.passes:
            seeds = np.random.default_rng([self.seed, 3, index]).integers(
                0, 2**31, size=HARNESS_ROUNDS)
            ops = []
            for seed in seeds:
                for theory, dim, trials in HARNESS_MIX:
                    call = (theory, dim, trials, int(seed))
                    label = f"{theory} dim={dim} trials={trials} seed={seed}"
                    ops.append(Op(label, partial(self._run, label, call),
                                  partial(self._traced, label, call)))
            self.passes[index] = ops
        return self.passes[index]

    def _check(self, label: str, call, report) -> str | None:
        theory, dim, trials, _ = call
        digest = hashlib.sha256(
            json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
        ).hexdigest()
        first = self.digests.setdefault(label, digest)
        want = {"theory": theory, "dim": dim, "trials": trials, "violations": 0,
                "filtered": True, "digest": first}
        got = {"theory": report.theory, "dim": report.dim, "trials": report.trials,
               "violations": report.violations, "filtered": report.filtered_trials >= 1,
               "digest": digest}
        return _expect(want, got)

    def _run(self, label, call) -> str | None:
        theory, dim, trials, seed = call
        return self._check(label, call, self.harness[theory](seed, dim, trials))

    def _traced(self, label, call, tr: Tracer) -> str | None:
        theory, dim, trials, seed = call
        span = "compatibility.harness" if theory == "quantum" else "classical.harness"
        with tr.span("op"), tr.span(span):
            report = self.harness[theory](seed, dim, trials)
        self.traced_reports[label] = report
        return self._check(label, call, report)

    @contextlib.contextmanager
    def instrument(self, tracer: Tracer):
        """Span the sampling calls the quantum harness makes, by wrapping the
        names it looks up in its own module for the traced run only."""
        names = ("random_pvm", "random_instrument", "random_rank_profile")
        saved = {name: getattr(self.compatibility, name) for name in names}

        def spanned(fn):
            def call(*args, **kwargs):
                with tracer.span("sampling.draw"):
                    return fn(*args, **kwargs)
            return call

        try:
            for name, fn in saved.items():
                setattr(self.compatibility, name, spanned(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(self.compatibility, name, fn)

    def counts(self):
        """Filter and checked-case ratios over the first traced pass."""
        reports = [self.traced_reports[op.label] for op in self.pass_ops(1)]
        out = {}
        for theory, layer in (("quantum", "compatibility"), ("classical", "classical")):
            mine = [r for r in reports if r.theory == theory]
            trials = sum(r.trials for r in mine)
            out[f"{layer}.filter_ratio"] = sum(r.filtered_trials for r in mine) / trials
            out[f"{layer}.checked_per_trial"] = sum(r.checked_cases for r in mine) / trials
        return out

    def notes(self):
        """Digests of the warm-up pass's reports, the same on every run of a seed."""
        digests = [self.digests[op.label] for op in self.passes[0]]
        lines = [f"digest {op.label}: {d}" for op, d in zip(self.passes[0], digests)]
        overall = hashlib.sha256("".join(digests).encode()).hexdigest()
        return lines + [f"digest of the warm-up pass: {overall}"]


def cli_cases(harness_seed: int, work: Path) -> list[tuple[list[str], int, bool]]:
    """(argv, contract exit code, known defect) for every CLI child."""
    m = MODELS
    return [
        (["validate", f"{m}/z.json"], 0, False),
        (["validate", f"{m}/classical_bit.json"], 0, False),
        (["classify", f"{m}/z.json"], 0, False),
        (["classify", f"{m}/qutrit_fine.json"], 0, False),
        (["--json", "classify", f"{m}/classical_bit.json"], 0, False),
        (["verifiers", f"{m}/z.json", "--outcome", "z0", "--state", f"{m}/state_zero.json"], 0, False),
        (["verifiers", f"{m}/z.json", "--outcome", "z0", "--state", f"{m}/state_plus.json"], 1, False),
        (["verifiers", f"{m}/x.json", "--outcome", "x+"], 0, False),
        (["comp", f"{m}/z.json", f"{m}/x.json"], 0, False),
        (["comp", f"{m}/z.json", f"{m}/z.json"], 1, False),
        (["--json", "comp", f"{m}/qutrit_fine.json", f"{m}/qutrit_coarse.json"], 0, False),
        (["compat", f"{m}/z.json", f"{m}/z.json"], 0, False),
        (["compat", f"{m}/z.json", f"{m}/x.json"], 1, False),
        (["compat", f"{m}/qutrit_fine.json", f"{m}/qutrit_coarse.json"], 1, False),
        (["witness", f"{m}/z.json", f"{m}/z.json", f"{m}/z_self_witness.json"], 0, False),
        (["harness", "--theory", "quantum", "--dim", "3", "--trials", "20",
          "--seed", str(harness_seed)], 0, False),
        (["--json", "harness", "--theory", "classical", "--dim", "4", "--trials", "20",
          "--seed", str(harness_seed + 1)], 0, False),
        (["validate", str(work / "missing.json")], 2, False),
        (["validate", str(work / "malformed.json")], 2, False),
        # Both crash with a traceback and exit 1 where the contract says 2.
        (["--tol", "0", "classify", f"{m}/z.json"], 2, True),
        (["harness", "--theory", "quantum", "--dim", "3", "--trials", "5", "--seed", "-5"], 2, True),
    ]


class CliProcess(Workload):
    """One ``python -m qcomplement ...`` child per op."""

    name = "cli-process"
    min_passes = 3

    def setup(self):
        (self.work / "malformed.json").write_text('{"kind": "quantum-instrument", "dim_in": 2,\n')
        self.env = child_env()
        seed = int(np.random.default_rng([self.seed, 4]).integers(0, 2**31 - 1))
        for argv, code, defect in cli_cases(seed, self.work):
            self.ops.append(Op(" ".join(argv), partial(self._run, argv, code),
                               partial(self._traced, argv, code), known_defect=defect))

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def _run(self, argv, code) -> str | None:
        child = self._spawn(["-m", "qcomplement", *argv])
        got = {"code": child.returncode, "traceback": "Traceback" in child.stderr,
               "output": bool(child.stdout) if child.returncode in (0, 1) else None}
        want = {"code": code, "traceback": False, "output": True if code in (0, 1) else None}
        return _expect(want, got)

    def _traced(self, argv, code, tr: Tracer) -> str | None:
        with tr.span("op"):
            problem = self._run(argv, code)
        with tr.span("probe"):
            with tr.span("cli.interpreter"):
                self._spawn(["-c", "pass"])
            with tr.span("cli.import"):
                self._spawn(["-c", "import qcomplement"])
            with tr.span("cli.main"):
                # Timing only: the verdict is checked on the child above, and
                # the known-defect inputs raise here as they crash there.
                with contextlib.suppress(Exception, SystemExit):
                    run_main(self.cli, argv)
        return problem

    def instrument(self, tracer: Tracer):
        from qcomplement import cli

        self.cli = cli
        return contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        """Largest child so far; set-up children are started only later."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (ClassifyKraus, RelationPvm, Harness, CliProcess)}
