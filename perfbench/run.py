"""Benchmark of the memsrs retrieval-time sweeps.

    python3 perfbench/run.py --workload rel-size --seed 0 --seconds 20 --trace 0

The workloads are described in `perfbench/spec.json`.  A run repeats its
workload in this one process, with no worker threads, until `--seconds`
have passed, and reports medians over the repetitions.  Every repetition
uses the inputs of `--seed`, so every repetition must print the same
output; the first one is checked in full.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
host seconds per sweep (`sweep_s`), host seconds from process start to the
first timed call (`setup_s`, the median of several fresh processes that
stop there), peak resident memory by the end of the first repetition, and
simulated retrieval seconds (`sim_s`, which repeats exactly for a seed).
With `--trace 1` the run alternates untraced and traced repetitions and
reports the per-layer metrics of the traced repetition with the median
sweep time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
the same metrics for a reader, with `failed_frac`.  Run metadata (and, when
traced, every span) is written under `.perfbench/`.  The memsrs sources
are taken from the `src` directory beside this one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBES = 7
MAX_MESSAGES = 20

# import memsrs and this package from the tree, not from this directory
sys.path[:1] = [str(SRC), str(ROOT)]


def import_sources():
    try:
        import memsrs
    except ImportError as exc:
        raise SystemExit(f"perfbench: no memsrs sources under {SRC}: {exc}")
    if Path(memsrs.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: memsrs was imported from {memsrs.__file__}, "
                         f"not from {SRC}")
    from perfbench import tracing, workloads
    return tracing, workloads


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it is set up to run
    the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    return elapsed


class Measurement:
    """Repetitions of one workload at one seed, and what their checks found."""

    def __init__(self, tracing, workloads, workload: str, seed: int):
        self.tracing, self.workloads = tracing, workloads
        self.workload, self.seed = workload, seed
        self.params = workloads.setup(workload)
        self.plain_s: list = []
        self.setup_s: list = []
        self.peak_rss_mb = None
        self.traced: list = []          # (sweep_s, tracer) per traced repetition
        self.text = None                # output of the first repetition
        self.sim_s = 0.0
        self.first_failures: list = []
        self.ops = workloads.expected_ops(workload)
        self.attempted = self.failed = 0
        self.messages: list = []

    def _fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def repeat(self, seconds: float, traced: bool, probe=None) -> None:
        """Repetitions until `seconds` of them have run, alternating untraced
        and traced ones when traced.  With `probe`, PROBES set-up samples are
        taken between repetitions, spread over the run: the host's speed
        drifts over seconds, and samples taken together share one speed."""
        measured, i = 0.0, 0
        while True:
            while (probe and len(self.setup_s) < PROBES
                   and measured >= len(self.setup_s) * seconds / PROBES):
                self.setup_s.append(probe())
            start = time.perf_counter()
            ok = self.once(traced and i % 2 == 1)
            measured += time.perf_counter() - start
            i += 1
            if not ok or (measured >= seconds and (i >= 2 or not traced)):
                break
        while probe and len(self.setup_s) < PROBES:
            self.setup_s.append(probe())

    def once(self, traced: bool) -> bool:
        """One repetition; False when the workload raised."""
        tracer = self.tracing.Tracer() if traced else None
        output = error = None
        start = time.perf_counter()
        try:
            if tracer:
                with tracer:
                    output = tracer.run(self.workloads.run, self.workload,
                                        self.params, self.seed)
            else:
                output = self.workloads.run(self.workload, self.params, self.seed)
        except Exception:
            error = traceback.format_exc()
        end = time.perf_counter()
        if tracer:
            self.traced.append((tracer.sweep_s, tracer))
        else:
            self.plain_s.append(end - start)
        if self.peak_rss_mb is None:
            # later repetitions reuse freed memory or fragment it, so only
            # the peak of the first one is independent of the run length
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if output is None:
            sys.stderr.write(error)
            self.attempted += self.ops
            self._fail(self.ops, error.strip().splitlines()[-1])
            return False
        self._check(output, tracer)
        return True

    def _check(self, output, tracer) -> None:
        text, sim_s = self.workloads.summary(self.workload, output)
        if self.text is None:
            self.text, self.sim_s = text, sim_s
            self.ops, self.first_failures = self.workloads.check(
                self.workload, self.seed, output)
            self.messages += self.first_failures[:MAX_MESSAGES]
        self.attempted += self.ops
        if text != self.text or sim_s != self.sim_s:
            self._fail(self.ops, "a repetition's output differs from the first's")
        elif tracer and self.traced[0][1].counts != tracer.counts:
            self._fail(self.ops, "a traced repetition's counts differ from the first's")
        else:
            self.failed += len(self.first_failures)

    def end_to_end(self) -> dict:
        return {"sweep_s": statistics.median(self.plain_s),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": self.peak_rss_mb,
                "sim_s": self.sim_s}

    def per_layer(self) -> dict:
        if not self.traced:   # the workload raised before a traced repetition
            return {}
        # the traced repetition with the median sweep time, so that its
        # layer times add up to its own sweep time
        ranked = sorted(self.traced, key=lambda rep: rep[0])
        sweep_s, tracer = ranked[(len(ranked) - 1) // 2]
        out = tracer.metrics(rows_emitted=self.ops)
        out["trace.overhead_s"] = (statistics.median(s for s, _ in self.traced)
                                   - statistics.median(self.plain_s))
        return out


def git_head() -> str:
    """The commit of the checkout, read from `.git`; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        _, workloads = import_sources()
        workloads.setup(args.workload)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    tracing, workloads = import_sources()
    m = Measurement(tracing, workloads, args.workload, args.seed)
    m.repeat(args.seconds, bool(args.trace),
             None if args.trace else lambda: probe_setup(args.workload))

    if args.trace:
        values, declared = m.per_layer(), benchmark["per_layer"]
    else:
        values, declared = m.end_to_end(), benchmark["end_to_end"]
    # a metric is missing only when the workload raised, which fails the run
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
               for d in declared}

    sha = hashlib.sha256(m.text.encode()).hexdigest() if m.text else None
    reference = spec["reference_csv_sha256"].get(args.workload, {}).get(str(args.seed))
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_head": git_head(), "csv_sha256": sha,
            "reference_csv_sha256": reference,
            "csv_matches_reference": None if reference is None else sha == reference,
            "sweep_s": m.plain_s, "traced_sweep_s": [s for s, _ in m.traced],
            "setup_s": m.setup_s, "attempted": m.attempted, "failed": m.failed,
            "failures": m.messages, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
    if m.traced:
        spans = [tracer.spans for _, tracer in m.traced]
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))

    if reference is None:
        match = "no seed-commit reference for this seed"
    elif sha == reference:
        match = "matches the seed-commit reference"
    else:
        match = "DIFFERS from the seed-commit reference"
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(m.plain_s)} untraced and {len(m.traced)} traced repetitions")
    print(f"python {meta['python']}, nproc {meta['nproc']}, git {meta['git_head']}")
    print(f"csv sha256 {sha} ({match})")
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':28} {m.failed / m.attempted:.6g} "
          f"({m.failed} of {m.attempted} operations)")
    for message in m.messages:
        print(f"failure: {message}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
