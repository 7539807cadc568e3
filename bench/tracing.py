"""In-memory spans around calls into the package, and per-layer metrics.

A span is (name, start, end, parent index, op id). Root spans are either
``op`` (the op's own calls, whose summed duration is the op time) or
``probe`` (extra calls made only to time one kernel, kept out of op time).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Timed layers. Each gives ``<name>_ms`` (median inclusive time per call),
# ``<name>_share`` (summed self time over summed op time) and ``<name>.calls``
# (calls in the first traced pass, which is the same on every run of a seed).
LAYERS = (
    "serialize.parse",
    "serialize.report",
    "instruments.validate",
    "instruments.repeatable",
    "operations.atomic",
    "instruments.extract",
    "operations.choi",
    "linalg.psd",
    "instruments.from_pvm",
    "complementarity.relation",
    "compatibility.compat",
    "compatibility.commute",
    "linalg.range",
    "compatibility.harness",
    "classical.harness",
    "sampling.draw",
    "cli.interpreter",
    "cli.import",
    "cli.main",
)

# Count metrics fixed by the inputs; a move flags a changed verdict.
COUNTS = {
    "instruments.accept_ratio": "ratio",
    "complementarity.witness_ratio": "ratio",
    "compatibility.filter_ratio": "ratio",
    "compatibility.checked_per_trial": "count",
    "classical.filter_ratio": "ratio",
    "classical.checked_per_trial": "count",
}

OVERHEAD = "trace.ops_per_s_ratio"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    def layer_metrics(self, first_pass_ops: int) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        durations: dict[str, list[float]] = {name: [] for name in LAYERS}
        self_sum = dict.fromkeys(LAYERS, 0.0)
        first_calls = dict.fromkeys(LAYERS, 0)
        op_time = 0.0
        for (name, start, end, _, op), t_self in zip(self.spans, own):
            if name == "op":
                op_time += end - start
            elif name in durations:
                durations[name].append(end - start)
                self_sum[name] += t_self
                first_calls[name] += op < first_pass_ops
        # The import probe is a child that also pays interpreter start.
        interp, imp = durations["cli.interpreter"], durations["cli.import"]
        if interp and imp:
            base = statistics.median(interp)
            durations["cli.import"] = [t - base for t in imp]
            self_sum["cli.import"] -= base * len(imp)
        out = {}
        for name in LAYERS:
            calls = durations[name]
            out[f"{name}_ms"] = (statistics.median(calls) * 1e3 if calls else 0.0, "ms")
            out[f"{name}_share"] = (self_sum[name] / op_time if op_time else 0.0, "ratio")
            out[f"{name}.calls"] = (float(first_calls[name]), "count")
        return out

