"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the checkout's ``src`` is imported, not an
installed package. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it repeat the metrics for people, with the environment, the tail percentile
used, the error rate and, for ``harness``, a digest of every report of the
warm-up pass.
Spans of a traced run are written to ``bench/.work/``.
"""

from __future__ import annotations

import os
import sys
import time
from time import perf_counter

STARTED = perf_counter()

# One BLAS thread, the same on every commit, set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Tail percentiles on offer; a workload reports the highest one that still
# has at least ten samples beyond it in its guaranteed sample count.
LADDER = (50, 80, 90, 95, 98, 99, 99.5, 99.9)
# Set-ups per run for ``setup_s``: this process and fresh children.
SETUP_SAMPLES = 3


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the reference
    kernel times the CPU the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        age = -1.0
    # Fall back to the first line of this script where /proc is unusable.
    return age if 0.0 < age < 600.0 else perf_counter() - STARTED


@dataclass
class Timing:
    latencies: list[float]  # wall time per op
    scaled: list[float]  # wall time per op at the reference host speed
    slowness: list[float]  # host slowness around each op, 1 at reference speed
    passes: int
    failures: dict[str, list]  # label -> [known defect, last problem, count]

    @property
    def failed(self) -> int:
        return sum(count for _, _, count in self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(count for known, _, count in self.failures.values() if not known)

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)


def run_passes(wl, call, seconds: float, min_passes: int, first: int, tracer=None) -> Timing:
    """Whole passes over the workload's ops, numbered from ``first``, until
    ``seconds`` are spent and at least ``min_passes`` are done; one caller,
    one op at a time. The reference kernel runs between ops, outside their
    timed interval."""
    from speed import REFERENCE_S, reference_time

    t = Timing([], [], [], 0, {})
    refs = [reference_time()]
    start = perf_counter()
    while t.passes < min_passes or perf_counter() - start < seconds:
        ops = wl.pass_ops(first + t.passes)
        for op in ops:
            if tracer is not None:
                tracer.op = len(t.latencies)
            t0 = perf_counter()
            try:
                problem = call(op)
            except Exception as exc:  # an op that raises is a failed op
                problem = f"raised {type(exc).__name__}: {exc}"
            t.latencies.append(perf_counter() - t0)
            refs.append(reference_time())
            if problem:
                entry = t.failures.setdefault(op.label, [op.known_defect, problem, 0])
                entry[1] = problem
                entry[2] += 1
        t.passes += 1
    # Op i ran between kernel runs i and i + 1; the median of the three runs
    # on either side damps the kernel's own jitter.
    for i, wall in enumerate(t.latencies):
        slowness = statistics.median(refs[max(i - 2, 0) : i + 4]) / REFERENCE_S
        t.slowness.append(slowness)
        t.scaled.append(wall / slowness)
    return t


def tail_percentile(guaranteed: int) -> float:
    return max(q for q in LADDER if guaranteed * (100 - q) / 100 >= 10)


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1): a mean of all
    order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density. It
    moves smoothly where a single order statistic would jump between the
    costs of two different ops."""
    import numpy as np

    x = np.sort(np.asarray(values))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def setup_child(args) -> float:
    """Set-up time of a fresh process doing this workload's set-up only."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed: {out.stderr.strip()}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def report(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def print_failures(timing: Timing, run: str):
    for label, (known, problem, count) in timing.failures.items():
        tag = "known defect" if known else "FAILED"
        print(f"{tag}, {count} of {timing.passes} {run} passes: {label}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "qcomplement" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.setup()
        warm = run_passes(wl, lambda op: op.run(), 0.0, 1, first=0)
        setup_s = process_age() / statistics.median(warm.slowness)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        untraced = run_passes(wl, lambda op: op.run(), args.seconds, wl.min_passes, first=1)
        print(f"env: {json.dumps(environment())}")
        print(f"workload {wl.name} seed {args.seed}: {len(untraced.latencies)} ops in "
              f"{untraced.passes} passes; host slowness median "
              f"{statistics.median(untraced.slowness):.3f}")
        if args.trace:
            tracer = Tracer()
            with wl.instrument(tracer):
                traced = run_passes(wl, lambda op: op.traced(tracer), args.seconds, 1,
                                    first=1, tracer=tracer)
            tracer.write(WORK / f"trace-{wl.name}-seed{args.seed}.json")
            metrics = per_layer(wl, tracer, traced, untraced)
            runs = (untraced, traced)
        else:
            metrics = end_to_end(wl, untraced, setup_s, args)
            runs = (untraced,)
        for note in wl.notes():
            print(note)
        for run, timing in zip(("untraced", "traced"), runs):
            print_failures(timing, run)
        report(all(r.unexpected == 0 for r in runs), sum(len(r.latencies) for r in runs),
               sum(r.failed for r in runs), metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(wl, timing: Timing, setup_s: float, args) -> dict[str, tuple[float, str]]:
    peak_rss_mb = wl.peak_rss_mb()
    setups = [setup_s] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
    q = tail_percentile(len(wl.pass_ops(1)) * wl.min_passes)
    n = len(timing.scaled)
    metrics = {
        "ops_per_s": (timing.ops_per_s, "ops/s"),
        "latency_p50_ms": (quantile(timing.scaled, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (quantile(timing.scaled, q / 100) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(f"  latency_tail_ms is p{q:g} of {n} ops, {n - math.ceil(q / 100 * n)} beyond it")
    print(f"  setup_s is the median of {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  error_rate: {timing.failed / n:.6g} ratio ({timing.failed} of {n} ops)")
    print(f"  unscaled wall times: {n / sum(timing.latencies):.6g} ops/s, "
          f"p50 {quantile(timing.latencies, 0.5) * 1e3:.6g} ms, "
          f"p{q:g} {quantile(timing.latencies, q / 100) * 1e3:.6g} ms")
    return metrics


def per_layer(wl, tracer, traced: Timing, untraced: Timing) -> dict[str, tuple[float, str]]:
    from tracing import COUNTS, LAYERS, OVERHEAD

    metrics = tracer.layer_metrics(len(wl.pass_ops(1)))
    counts = wl.counts()
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, 0.0), unit)
    metrics[OVERHEAD] = (traced.ops_per_s / untraced.ops_per_s, "ratio")
    for name in LAYERS:
        if metrics[f"{name}.calls"][0]:
            print(f"  {name}: {metrics[name + '_ms'][0]:.4g} ms median, "
                  f"{metrics[name + '_share'][0]:.3%} of op time, "
                  f"{metrics[name + '.calls'][0]:g} calls in the first pass")
    for name in (*counts, OVERHEAD):
        print(f"  {name}: {metrics[name][0]:.6g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
