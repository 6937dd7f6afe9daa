"""Analytic retrieval-time estimator and the lower-bound virtual placement."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsrs.cost import CostInput, estimate, lower_bound, trace_k_values
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import AccessPlan, Emulator, Scan

CMU = cmu_defaults()


def test_estimate_decomposition():
    ci = CostInput(bits=1.0e9, k_parallel=640.0, k_random=3.0)
    est = estimate(ci, CMU)
    assert est.transfer_s == 1.0e9 / (CMU.transfer_rate_rs_bits_s * 640.0)
    assert est.seek_s == CMU.seek_time_rs_s * 3.0
    assert est.total_s == est.transfer_s + est.seek_s


def test_zero_bits_is_pure_seek():
    est = estimate(CostInput(bits=0, k_parallel=1.0, k_random=2.0), CMU)
    assert est.transfer_s == 0.0
    assert est.total_s == CMU.seek_time_rs_s * 2.0


def test_doubling_parallelism_halves_transfer():
    a = estimate(CostInput(bits=1e8, k_parallel=100.0, k_random=0.0), CMU)
    b = estimate(CostInput(bits=1e8, k_parallel=200.0, k_random=0.0), CMU)
    assert math.isclose(a.transfer_s, 2 * b.transfer_s, rel_tol=1e-12)


def test_nonpositive_parallelism_rejected():
    with pytest.raises(ValueError):
        estimate(CostInput(bits=1, k_parallel=0.0, k_random=0.0), CMU)


def test_lower_bound_definition():
    bits = 5.0e8
    lb = lower_bound(bits, CMU)
    # full tip parallelism at the raw per-tip rate, nothing else charged
    expect = bits / (CMU.tip_rate_bits_s * CMU.n_active_tips)
    assert lb.transfer_s == pytest.approx(expect, rel=1e-12)
    assert lb.seek_s == 0.0
    assert lb.total_s == lb.transfer_s
    # the settle-folded averaged rate would price the same bits higher
    folded = estimate(CostInput(bits=bits, k_parallel=CMU.n_active_tips,
                                k_random=0.0), CMU)
    assert lb.total_s < folded.total_s


def test_lower_bound_zero_bits():
    assert lower_bound(0, CMU).total_s == 0.0


def test_lower_bound_320_mbytes():
    bits = 320 * 2**20 * 8
    lb = lower_bound(bits, CMU)
    # ~2.684e9 bits at 0.7 Mbit/s across 1280 tips
    assert lb.total_s == pytest.approx(
        bits / (CMU.tip_rate_bits_s * CMU.n_active_tips), rel=1e-12)
    assert abs(lb.total_s - 2.996) < 0.001


TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)


@settings(max_examples=200, deadline=None)
@given(
    scans=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12),
                  st.lists(st.integers(1, 9), max_size=9, unique=True),
                  st.dictionaries(st.integers(0, 11),
                                  st.lists(st.integers(1, 9), max_size=9,
                                           unique=True), max_size=4)),
        min_size=1, max_size=6),
    model=st.sampled_from(("average", "distance")),
)
# one full-parallel pass over the whole region pays a settle per column
# crossed but not one per column, so it beats a settle-folded floor
@example(scans=[(1, 12, [1, 2, 3, 4], {})], model="average")
def test_no_plan_beats_lower_bound(scans, model):
    plan = AccessPlan()
    for start, length, tips, rows in scans:
        length = min(length, TINY.sectors_per_region - start + 1)
        overrides = {start + off: tuple(t) for off, t in rows.items()
                     if off < length}
        plan.scans.append(Scan(tips=tuple(tips), start=start, length=length,
                               per_row_tips=overrides or None))
    t = Emulator(TINY, model).execute(plan)
    lb = lower_bound(t.n_sectors * TINY.sector_bits, TINY)
    assert t.total_s >= lb.total_s * (1 - 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    bits=st.floats(0, 1e12),
    kp=st.floats(0.1, 1280.0),
    kr=st.floats(0, 1e4),
    scale=st.floats(1.1, 4.0),
)
def test_estimate_monotonicity(bits, kp, kr, scale):
    base = estimate(CostInput(bits, kp, kr), CMU)
    more_parallel = estimate(CostInput(bits, kp * scale, kr), CMU)
    more_seeks = estimate(CostInput(bits, kp, kr * scale + 1.0), CMU)
    more_bits = estimate(CostInput(bits * scale + 1.0, kp, kr), CMU)
    assert more_parallel.total_s <= base.total_s
    assert more_seeks.total_s > base.total_s
    assert more_bits.total_s > base.total_s


def test_trace_k_streaming_scan():
    # full-width scan from the home position: no seek, no reversal
    tips = tuple(range(1, CMU.n_active_tips + 1))
    t = Emulator(CMU).execute(AccessPlan([Scan(tips=tips, start=1, length=54)]))
    k = trace_k_values(t, CMU)
    assert k.k_parallel == CMU.n_active_tips
    assert k.k_random == 0.0
    assert k.bits == 54 * CMU.n_active_tips * CMU.sector_bits


def test_trace_k_full_seek_counts_one():
    tips = (1,)
    t = Emulator(CMU).execute(AccessPlan([Scan(tips=tips, start=193, length=1)]))
    assert t.seek_s == pytest.approx(CMU.seek_time_rs_s)
    k = trace_k_values(t, CMU)
    assert k.k_random == pytest.approx(1.0)


def test_trace_k_prices_reversal_time_fractionally():
    tips = tuple(range(1, CMU.n_active_tips + 1))
    scans = [Scan(tips=tips, start=1, length=54), Scan(tips=tips, start=1, length=54)]
    t = Emulator(CMU).execute(AccessPlan(scans))
    assert t.n_turnarounds == 1
    k = trace_k_values(t, CMU)
    expected = CMU.turnaround_time_s / CMU.seek_time_rs_s
    assert k.k_random == pytest.approx(expected)


def test_trace_k_multipass_reversals():
    # 6400 tips on one row need 5 activation passes, so 4 reversals
    t = Emulator(CMU).execute(AccessPlan([Scan(tips=range(1, 6401), start=1, length=1)]))
    assert t.n_turnarounds == 4
    k = trace_k_values(t, CMU)
    assert k.k_parallel == pytest.approx(1280.0)
    expected = 4 * CMU.turnaround_time_s / CMU.seek_time_rs_s
    assert k.k_random == pytest.approx(expected)
