"""Timing wrappers for the traced benchmark run.

A target is a function or method through which `memsrs.bench` or
`perfbench.readback` calls into one layer of the package.  While a
`Tracer` is installed, each call through a target appends a span
(metric, start, end, parent) to an in-memory list and updates the
layer's counters; leaving the tracer's context puts every original
object back.  Methods are wrapped on their class; module functions are
wrapped wherever a caller module binds the original object, so calls a
layer makes to itself are not traced.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed per metric, so the per-layer times plus
the root's self time (`bench.self_s`) add up to the traced sweep time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

CALLERS = ("memsrs.bench", "perfbench.readback")
ROOT = "bench.self_s"


def _plans(layer: str) -> Callable:
    def count(counts: Counter, args, plan) -> None:
        counts[f"{layer}.scans"] += len(plan.scans)
        counts[f"{layer}.override_rows"] += sum(len(s.per_row_tips or ())
                                                for s in plan.scans)
    return count


def _events(counts: Counter, t) -> None:
    counts["emulator.row_steps"] += t.n_row_steps
    counts["emulator.sectors"] += t.n_sectors
    counts["emulator.seeks"] += t.n_seeks
    counts["emulator.turnarounds"] += t.n_turnarounds


def _execute(counts: Counter, args, t) -> None:
    scans = args[1].scans
    # the emulator prices a scan in closed form only without overrides
    uniform = sum(s.per_row_tips is None for s in scans)
    counts["emulator.scans_uniform"] += uniform
    counts["emulator.scans_override"] += len(scans) - uniform
    _events(counts, t)


def _read(counts: Counter, args, result) -> None:
    t, data = result
    counts["emulator.scans_override"] += len(args[1].scans)
    counts["emulator.read_bytes"] += len(data)
    _events(counts, t)


# time metric, call-count metric, module, attribute, counter
TARGETS = (
    ("workload.qualifying_set_s", "workload.qualifying_set_calls",
     "memsrs.workload", "Relation.qualifying_set", None),
    ("workload.gen_query_region_s", None,
     "memsrs.workload", "gen_query_region", None),
    ("relational.layout_s", None, "memsrs.relational", "RelLayoutRP.__init__", None),
    ("relational.layout_s", None, "memsrs.relational", "RelLayoutRSY.__init__", None),
    ("relational.qualifying_rows_s", None,
     "memsrs.relational", "RelLayoutRP.qualifying_rows", None),
    ("relational.compile_s", "relational.compile_calls",
     "memsrs.relational", "RelLayoutRP.compile", _plans("relational")),
    ("relational.compile_s", "relational.compile_calls",
     "memsrs.relational", "RelLayoutRSY.compile", _plans("relational")),
    ("relational.write_image_s", None, "memsrs.relational", "write_image_rsy", None),
    ("relational.write_image_s", None, "memsrs.relational", "write_image_rp", None),
    ("linear.compile_s", None, "memsrs.linear", "compile_nsm", _plans("linear")),
    ("linear.compile_s", None, "memsrs.linear", "compile_dsm", _plans("linear")),
    ("linear.write_image_s", None, "memsrs.linear", "write_image_nsm", None),
    ("linear.write_image_s", None, "memsrs.linear", "write_image_dsm", None),
    ("spatial.build_grid_s", "spatial.build_grid_calls",
     "memsrs.spatial", "build_block_grid", None),
    ("spatial.compile_s", None, "memsrs.spatial", "compile_sp", _plans("spatial")),
    ("spatial.compile_s", None,
     "memsrs.spatial", "SSYLayout.compile", _plans("spatial")),
    ("spatial.query_block_set_s", None, "memsrs.spatial", "query_block_set", None),
    ("spatial.write_image_s", None, "memsrs.spatial", "write_image_ssy", None),
    ("spatial.write_image_s", None, "memsrs.spatial", "write_image_sp", None),
    ("emulator.execute_s", "emulator.execute_calls",
     "memsrs.emulator", "Emulator.execute", _execute),
    ("emulator.read_s", None, "memsrs.emulator", "Emulator.read", _read),
    ("cost.s", "cost.calls", "memsrs.cost", "trace_k_values", None),
    ("cost.s", "cost.calls", "memsrs.cost", "estimate", None),
    ("cost.s", "cost.calls", "memsrs.cost", "lower_bound", None),
    ("bench.csv_s", None, "memsrs.bench", "csv_text", None),
)

TIME_METRICS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + (ROOT,)
COUNT_METRICS = tuple(dict.fromkeys(
    [t[1] for t in TARGETS if t[1]]
    + ["relational.scans", "relational.override_rows", "linear.scans",
       "spatial.scans", "spatial.override_rows", "emulator.scans_uniform",
       "emulator.scans_override", "emulator.row_steps", "emulator.sectors",
       "emulator.seeks", "emulator.turnarounds", "emulator.read_bytes"]))


def target_bindings() -> list:
    """Every (owner, name, original, target) a tracer replaces."""
    callers = [importlib.import_module(m) for m in CALLERS]
    out = []
    for target in TARGETS:
        owner_name, _, name = target[3].rpartition(".")
        mod = importlib.import_module(target[2])
        if owner_name:
            owner = getattr(mod, owner_name)
            out.append((owner, name, vars(owner)[name], target))
            continue
        original = getattr(mod, name)
        out += [(caller, key, value, target) for caller in callers
                for key, value in vars(caller).items() if value is original]
    return out


class Tracer:
    """Spans and counters of traced calls; a context manager that
    installs the wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: List[list] = []   # [metric, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner, name, original, target in target_bindings():
            metric, calls, _, _, count = target
            setattr(owner, name, self._wrap(original, metric, calls, count))
            self._saved.append((owner, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, fn: Callable, metric: str, calls: Optional[str],
              count: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [metric, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if calls:
                counts[calls] += 1
            if count:
                count(counts, args, result)
            return result
        return traced

    def run(self, fn: Callable, *args):
        """Call fn under the root span; its duration is the traced sweep time."""
        return self._wrap(fn, ROOT, None, None)(*args)

    @property
    def sweep_s(self) -> float:
        root = next(s for s in self.spans if s[0] == ROOT)
        return root[2] - root[1]

    def self_times(self) -> Dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for span, t in zip(self.spans, own):
            totals[span[0]] += t
        return totals

    def metrics(self, rows_emitted: int) -> Dict[str, float]:
        """Every per-layer metric of this trace, except the overhead."""
        out: Dict[str, float] = self.self_times()
        out.update((name, self.counts[name]) for name in COUNT_METRICS)
        host = out["emulator.execute_s"] + out["emulator.read_s"]
        steps = out["emulator.row_steps"]
        out["emulator.ns_per_row_step"] = host * 1e9 / steps if steps else 0.0
        executes = out["emulator.execute_calls"]
        out["bench.rows_per_execute"] = rows_emitted / executes if executes else 0.0
        return out
