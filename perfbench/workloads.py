"""The benchmark's workloads: what each one runs, and how its output is checked.

`run` is the timed part of a workload; `summary` and `check` are not
timed.  `summary` gives the workload's output text and simulated time,
and `check` returns one failure message per operation that broke a
correctness check.  An operation is one CSV row of a sweep or one read
of the readback.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from memsrs import bench
from memsrs.device import DeviceParams, cmu_defaults

from perfbench import readback

WORKLOADS = ("rel-size", "rel-proj", "spatial", "readback")

RELATIONAL = ("relational-parallel", "relational-sequential-yu",
              "relational-lowerbound", "nsm-griffin", "dsm-griffin")
SPATIAL = ("spatial-parallel", "spatial-sequential-yu", "spatial-lowerbound")


@dataclass(frozen=True)
class Sweep:
    """One call of `bench.run_experimentN`."""
    experiment: int
    column: str            # the CSV column the sweep varies
    argument: str          # the keyword that takes the sweep's points
    points: Tuple
    placements: Tuple[str, ...]
    fixed: Dict            # the sweep's other arguments

    def run(self, params: DeviceParams, seeds: Tuple[int, ...]) -> List[dict]:
        experiment = getattr(bench, f"run_experiment{self.experiment}")
        return experiment(params, seeds=seeds, placements=self.placements,
                          **{self.argument: self.points}, **self.fixed)


SWEEPS = {
    "rel-size": (Sweep(1, "data_mb", "sizes_mb", (5, 10, 20, 40, 80, 160, 320),
                       RELATIONAL, {"n_projection": 8, "selectivity": 0.1,
                                    "qual_mode": "uniform"}),),
    "rel-proj": (Sweep(2, "n_projection", "n_projections", tuple(range(1, 17)),
                       RELATIONAL, {"size_mb": 320, "selectivity": 0.1,
                                    "qual_mode": "uniform"}),),
    "spatial": (Sweep(3, "query_frac", "query_fracs",
                      (0.0001, 0.001, 0.01, 0.1), SPATIAL,
                      {"aspect": 1.0, "curve": "hilbert"}),
                Sweep(4, "aspect", "aspects",
                      (16, 8, 4, 2, 1, 1 / 2, 1 / 4, 1 / 8, 1 / 16), SPATIAL,
                      {"query_frac": 0.01, "curve": "hilbert"})),
}


# Where a spatial query lands, and so its plan's memory peak, depends on its
# seed: one seed's sweep can peak 12% above or below the next one's, three
# seeds' sweeps 20%, six seeds' sweeps about 5%.  A spatial run therefore
# takes six sweep seeds.
SEEDS_PER_RUN = {"spatial": 6}


def sweep_seeds(workload: str, seed: int) -> Tuple[int, ...]:
    """The sweeps' `seeds` tuple for a workload seed; disjoint across seeds."""
    k = SEEDS_PER_RUN.get(workload, 1)
    return tuple(range(k * seed, k * seed + k))


def setup(workload: str) -> DeviceParams:
    """Device parameters, the last step before the first timed call."""
    if workload == "readback":
        return readback.device()
    return cmu_defaults()


def expected_ops(workload: str) -> int:
    if workload == "readback":
        return readback.N_READS
    return sum(len(s.points) * len(s.placements) * SEEDS_PER_RUN.get(workload, 1)
               for s in SWEEPS[workload])


def run(workload: str, params: DeviceParams, seed: int):
    """The timed part: the sweeps' rows and CSV, or the readback's reads."""
    if workload == "readback":
        return readback.run(params, seed)
    return run_sweeps(SWEEPS[workload], params, sweep_seeds(workload, seed))


def run_sweeps(sweeps, params: DeviceParams, seeds: Tuple[int, ...]):
    out = []
    for sweep in sweeps:
        rows = sweep.run(params, seeds)
        out.append((sweep, rows, bench.csv_text(rows)))
    return out


def summary(workload: str, output) -> Tuple[str, float]:
    """The workload's output text and its simulated retrieval seconds.

    The text is the sweeps' CSV, or for the readback one CSV row per read
    with the read's simulated time and the hash of its bytes.
    """
    if workload == "readback":
        rows = [{"placement": r.placement, "query": readback.describe(r),
                 "meas_total_s": r.timing.total_s, "bytes": len(r.data),
                 "sha256": hashlib.sha256(r.data).hexdigest()} for r in output]
        return (bench.csv_text(rows, READBACK_FIELDS),
                sum(r.timing.total_s for r in output))
    return ("".join(text for _, _, text in output),
            sum(r["meas_total_s"] for _, rows, _ in output for r in rows
                if not r["placement"].endswith("-lowerbound")))


READBACK_FIELDS = ("placement", "query", "meas_total_s", "bytes", "sha256")


def check(workload: str, seed: int, output) -> Tuple[int, List[str]]:
    """Operations attempted, and one message per operation that failed."""
    if workload == "readback":
        failures = [f"read {i} ({r.placement}, {readback.describe(r)}) "
                    f"returned wrong bytes" for i, r in enumerate(output)
                    if readback.returned(r) != readback.expected(r)]
        return len(output), failures
    attempted, failures = 0, []
    for sweep, rows, text in output:
        n, problems = check_rows(sweep, sweep_seeds(workload, seed), rows, text)
        attempted += n
        failures += problems
    return attempted, failures


def check_rows(sweep: Sweep, seeds: Tuple[int, ...], rows: List[dict],
               text: str) -> Tuple[int, List[str]]:
    """Row set, row order and the seek + transfer = total identity.

    The identity is checked at the CSV's printed precision: in raw floats
    the emulator's sums may differ in the last bits.
    """
    label = f"experiment {sweep.experiment}"
    want = {(p, float(x), seed) for p in sweep.placements
            for x in sweep.points for seed in seeds}
    keys = [(r["placement"], float(r[sweep.column]), r["seed"]) for r in rows]
    seen = Counter(keys)
    failures = [f"{label}: no row for {k}" for k in sorted(want - seen.keys())]
    bad = {i for i, k in enumerate(keys) if k not in want or seen[k] > 1}
    order = bench.sort_rows(rows)
    bad |= {i for i, (a, b) in enumerate(zip(rows, order)) if a is not b}
    records = list(csv.DictReader(io.StringIO(text)))
    if len(records) != len(rows):
        bad |= set(range(min(len(records), len(rows)), len(rows)))
    for i, (row, rec) in enumerate(zip(rows, records)):
        if format(row["seek_s"] + row["transfer_s"], ".9f") != rec["meas_total_s"]:
            bad.add(i)
    failures += [f"{label}: row {i} {keys[i]} is duplicated, out of order, "
                 f"or its seek_s + transfer_s differs from meas_total_s"
                 for i in sorted(bad)]
    return len(rows) + len(want - seen.keys()), failures
