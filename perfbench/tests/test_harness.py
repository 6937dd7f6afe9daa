"""Tests of the benchmark harness: tracing, checks and its declared metrics.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from memsrs.device import cmu_defaults  # noqa: E402
from memsrs.emulator import Emulator  # noqa: E402
from perfbench import readback, tracing, workloads  # noqa: E402

# one relational and one spatial sweep point set, small enough for a unit test;
# together they run both of the emulator's execute paths
SMALL = (workloads.Sweep(1, "data_mb", "sizes_mb", (5, 10), workloads.RELATIONAL,
                         {"n_projection": 8, "selectivity": 0.1}),
         workloads.Sweep(3, "query_frac", "query_fracs", (0.001,),
                         workloads.SPATIAL, {"aspect": 1.0}))
EVENTS = ("emulator.execute_calls", "emulator.scans_uniform",
          "emulator.scans_override", "emulator.row_steps", "emulator.sectors",
          "emulator.seeks", "emulator.turnarounds")


def traced_small(seed=0):
    with tracing.Tracer() as tracer:
        output = tracer.run(workloads.run_sweeps, SMALL, cmu_defaults(), (seed,))
    return tracer, output


def test_traced_and_untraced_runs_agree(monkeypatch):
    executed = []
    original = Emulator.execute

    def spy(self, plan):
        t = original(self, plan)
        executed.append((plan, t))
        return t

    monkeypatch.setattr(Emulator, "execute", spy)
    plain = workloads.run_sweeps(SMALL, cmu_defaults(), (0,))
    monkeypatch.undo()
    tracer, traced = traced_small()

    assert workloads.summary("rel-size", plain) == workloads.summary("rel-size", traced)
    uniform = sum(s.per_row_tips is None for plan, _ in executed for s in plan.scans)
    untraced_counts = {
        "emulator.execute_calls": len(executed),
        "emulator.scans_uniform": uniform,
        "emulator.scans_override": sum(len(p.scans) for p, _ in executed) - uniform,
        "emulator.row_steps": sum(t.n_row_steps for _, t in executed),
        "emulator.sectors": sum(t.n_sectors for _, t in executed),
        "emulator.seeks": sum(t.n_seeks for _, t in executed),
        "emulator.turnarounds": sum(t.n_turnarounds for _, t in executed)}
    assert {k: tracer.counts[k] for k in EVENTS} == untraced_counts
    assert untraced_counts["emulator.scans_uniform"] > 0
    assert untraced_counts["emulator.scans_override"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    bindings = [(owner, name, original)
                for owner, name, original, _ in tracing.target_bindings()]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer() as tracer:
            assert all(vars(owner)[name] is not original
                       for owner, name, original in bindings)
            tracer.run(lambda: 1 / 0)
    traced_small()
    assert all(vars(owner)[name] is original for owner, name, original in bindings)


def test_layer_self_times_add_up_to_the_traced_sweep():
    tracer, _ = traced_small()
    times = tracer.self_times()
    assert set(times) == set(tracing.TIME_METRICS)
    assert all(t >= 0 for t in times.values())
    assert sum(times.values()) == pytest.approx(tracer.sweep_s, rel=1e-9)
    assert times["emulator.execute_s"] > 0 and times[tracing.ROOT] > 0


def test_injected_readback_byte_mismatch_is_a_failure(monkeypatch):
    params = readback.device()
    reads = readback.run(params, 0)
    assert workloads.check("readback", 0, reads) == (readback.N_READS, [])

    calls = []
    original = Emulator.read

    def corrupt_fifth(self, plan, media):
        t, data = original(self, plan, media)
        calls.append(None)
        if len(calls) == 5:
            data = bytes([data[0] ^ 1]) + data[1:]
        return t, data

    monkeypatch.setattr(Emulator, "read", corrupt_fifth)
    attempted, failures = workloads.check("readback", 0, readback.run(params, 0))
    assert attempted == readback.N_READS
    assert len(failures) == 1 and failures[0].startswith("read 4 ")


def test_sweep_check_flags_order_and_identity_breaks():
    output = workloads.run_sweeps(SMALL[:1], cmu_defaults(), (0, 1))
    sweep, rows, text = output[0]
    assert workloads.check_rows(sweep, (0, 1), rows, text) == (len(rows), [])

    swapped = [rows[1], rows[0]] + rows[2:]
    _, failures = workloads.check_rows(sweep, (0, 1), swapped, text)
    assert len(failures) == 2
    skewed = [dict(rows[0], seek_s=rows[0]["seek_s"] + 1e-6)] + rows[1:]
    _, failures = workloads.check_rows(sweep, (0, 1), skewed, text)
    assert len(failures) == 1
    _, failures = workloads.check_rows(sweep, (0, 1), rows[1:], text)
    assert failures and failures[0].startswith("experiment 1: no row for")


def test_declared_metrics_match_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    names = {d["name"] for d in bench["per_layer"]}
    tracer, _ = traced_small()
    reported = set(tracer.metrics(rows_emitted=1)) | {"trace.overhead_s"}
    assert names == reported == set(spec["per_layer_targets"])
    assert ([w["name"] for w in bench["workloads"]] == list(spec["workloads"])
            == list(workloads.WORKLOADS))
