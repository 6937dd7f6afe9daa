"""Relational placement layouts: mapping oracles, compilers, correctness."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator, MediaImage
from memsrs.relational import (
    RangeQuery,
    RelLayoutRP,
    RelLayoutRSY,
    RelationSchema,
    compile_rp,
    compile_rsy,
    exact_ceil,
    write_image_rp,
    write_image_rsy,
)
from memsrs.rs import PhysAddr, RSAddr, rs_to_mems
from memsrs.workload import Relation

CMU = cmu_defaults()
TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)

BIG = RelationSchema(k=16, n=2_621_440)  # 320 MB of 16x64-bit tuples


def q(projected, sel=0.1, pred=1):
    return RangeQuery(projected=tuple(projected), predicate_attr=pred,
                      bound=1_000_000, selectivity=sel)


# -- tuple-major layout mapping ------------------------------------------

def test_map_rsy_first_value():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    assert lay.m == 400
    assert lay.map(1, 1) == RSAddr(1, 1)


def test_map_rsy_wraps_to_next_row():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    assert lay.map(401, 2) == RSAddr(2, 2)


def test_map_rsy_last_slot():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    assert lay.map(400, 16) == RSAddr(6400, 1)


def test_map_rsy_bounds():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    for v, w in ((0, 1), (12801, 1), (1, 0), (1, 17)):
        with pytest.raises(ValueError):
            lay.map(v, w)


def test_map_rsy_phys_first_value():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    assert lay.map_phys(1, 1) == PhysAddr(1, 1, 1, 1)


def test_map_rsy_phys_matches_composition_sampled():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    rng = random.Random(99)
    for _ in range(5000):
        v = rng.randint(1, 12800)
        w = rng.randint(1, 16)
        assert lay.map_phys(v, w) == rs_to_mems(lay.map(v, w), CMU)


def test_map_rsy_multi_sector_values():
    lay = RelLayoutRSY(TINY, RelationSchema(k=3, n=7, attr_bits=128))
    assert lay.spv == 2
    assert lay.map(4, 2) == RSAddr(2, 3)


def test_map_rp_examples():
    lay = RelLayoutRP(CMU, RelationSchema(k=16, n=12800))
    assert lay.band_rows == 2
    assert lay.map(1, 1) == RSAddr(1, 1)
    assert lay.map(6401, 1) == RSAddr(1, 2)
    assert lay.map(1, 2) == RSAddr(1, 3)


def test_map_rp_bounds():
    lay = RelLayoutRP(CMU, RelationSchema(k=16, n=12800))
    for v, w in ((0, 1), (12801, 1), (1, 0), (1, 17)):
        with pytest.raises(ValueError):
            lay.map(v, w)


def test_layout_capacity_rejected():
    with pytest.raises(ValueError):
        RelLayoutRSY(TINY, RelationSchema(k=10, n=5))  # k > region count
    with pytest.raises(ValueError):
        RelLayoutRSY(TINY, RelationSchema(k=3, n=1000))  # rows exceed device
    with pytest.raises(ValueError):
        RelLayoutRP(TINY, RelationSchema(k=3, n=1000))


def _footprint(addr, spv):
    return [(addr.region, addr.sector + i) for i in range(spv)]


def test_injectivity_exhaustive_small():
    for attr_bits in (64, 128):
        schema = RelationSchema(k=3, n=7, attr_bits=attr_bits)
        for cls in (RelLayoutRSY, RelLayoutRP):
            lay = cls(TINY, schema)
            seen = set()
            for v in range(1, 8):
                for w in range(1, 4):
                    for cell in _footprint(lay.map(v, w), lay.spv):
                        assert cell not in seen
                        seen.add(cell)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 24))
def test_rsy_phys_oracle_property(k, n):
    schema = RelationSchema(k=k, n=n)
    lay = RelLayoutRSY(TINY, schema)
    for v in range(1, n + 1):
        for w in range(1, k + 1):
            assert lay.map_phys(v, w) == rs_to_mems(lay.map(v, w), TINY)


# -- tuple-major compiler ------------------------------------------------

def test_compile_rsy_scan_counts():
    lay = RelLayoutRSY(CMU, BIG)
    assert len(compile_rsy(lay, q(range(1, 9))).scans) == 3
    assert len(compile_rsy(lay, q([1])).scans) == 1
    assert len(compile_rsy(lay, q(range(1, 17))).scans) == 5
    for nproj in range(1, 17):
        plan = compile_rsy(lay, q(range(1, nproj + 1)))
        assert len(plan.scans) == math.ceil(400 * nproj / 1280)


def test_compile_rsy_scan_structure():
    lay = RelLayoutRSY(CMU, BIG)
    plan = compile_rsy(lay, q([1, 2]))
    needed = {16 * slot + w for slot in range(400) for w in (1, 2)}
    got = set()
    for scan in plan.scans:
        assert scan.start == 1
        assert scan.length == lay.rows_used
        assert len(scan.tips) <= CMU.n_active_tips
        got.update(scan.tips)
    assert got == needed


def test_compile_rsy_never_seeks_after_start():
    lay = RelLayoutRSY(CMU, BIG)
    t = Emulator(CMU).execute(compile_rsy(lay, q(range(1, 5))))
    # scans ping-pong over the same rows: only turnarounds between them
    assert t.seek_s == 0.0
    assert t.n_seeks == 2
    assert t.turnaround_s == CMU.turnaround_time_s


def test_compile_rsy_reads_exactly_projected_values():
    schema = RelationSchema(k=3, n=7)
    lay = RelLayoutRSY(TINY, schema)
    im = MediaImage(TINY)
    write_image_rsy(lay, im, lambda v, w: bytes([v, w, 0, 0, 0, 0, 0, 0]))
    _, data = Emulator(TINY).read(compile_rsy(lay, q([1, 2])), im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = sorted(bytes([v, w, 0, 0, 0, 0, 0, 0])
                      for v in range(1, 8) for w in (1, 2))
    assert cells == expected


def test_compile_rsy_rejects_unknown_attribute():
    lay = RelLayoutRSY(TINY, RelationSchema(k=3, n=7))
    with pytest.raises(ValueError):
        compile_rsy(lay, q([1, 4]))


# -- attribute-band compiler ---------------------------------------------

def test_compile_rp_scan_counts_uniform():
    lay = RelLayoutRP(CMU, BIG)
    qualifying = random.Random(7).sample(range(1, BIG.n + 1),
                                         math.ceil(0.1 * BIG.n))
    plan = compile_rp(lay, q(range(1, 9)), qualifying)
    # 5 full-band scans for the predicate attribute, 1 per other attribute
    assert len(plan.scans) == 5 + 7


def test_compile_rp_scan_counts_full_selectivity():
    lay = RelLayoutRP(CMU, BIG)
    plan = compile_rp(lay, q(range(1, 9), sel=1.0), range(1, BIG.n + 1))
    assert len(plan.scans) == 5 * 8


def test_compile_rp_predicate_band_only():
    lay = RelLayoutRP(CMU, BIG)
    plan = compile_rp(lay, q([1], sel=0.0), ())
    assert len(plan.scans) == 5
    assert all(scan.start == 1 for scan in plan.scans)
    # the last band row holds 3840 tuples = 3 activation layers; the two
    # deeper layers stop one row short
    assert [scan.length for scan in plan.scans] == [410, 410, 410, 409, 409]


def test_compile_rp_skips_empty_rows_by_splitting_scans():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    lay = RelLayoutRP(dev, RelationSchema(k=2, n=12))
    plan = compile_rp(lay, q([1, 2]), {1, 2, 9})
    assert [(s.start, s.length) for s in plan.scans] == [(1, 3), (4, 1), (6, 1)]
    assert tuple(plan.scans[1].tips) == (1, 2)
    assert tuple(plan.scans[2].tips) == (1,)


def test_compile_rp_partial_last_band_row():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    lay = RelLayoutRP(dev, RelationSchema(k=2, n=11))
    plan = compile_rp(lay, q([1], sel=0.0), ())
    assert len(plan.scans) == 1
    scan = plan.scans[0]
    assert scan.per_row_tips == {3: range(1, 4)}


def test_compile_rp_reads_predicate_band_plus_qualifying():
    schema = RelationSchema(k=3, n=7)
    lay = RelLayoutRP(TINY, schema)
    im = MediaImage(TINY)
    write_image_rp(lay, im, lambda v, w: bytes([v, w, 0, 0, 0, 0, 0, 0]))
    _, data = Emulator(TINY).read(compile_rp(lay, q([1, 2, 3]), {2, 5}), im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = sorted(
        [bytes([v, 1, 0, 0, 0, 0, 0, 0]) for v in range(1, 8)]
        + [bytes([v, w, 0, 0, 0, 0, 0, 0]) for v in (2, 5) for w in (2, 3)])
    assert cells == expected


# -- analytic cost inputs -------------------------------------------------

def test_k_values_rsy():
    lay = RelLayoutRSY(CMU, BIG)
    ci = lay.k_values(q(range(1, 9)))
    assert ci.k_parallel == 1280
    assert ci.k_random == 1
    assert ci.bits == BIG.n * 8 * 64
    ci1 = lay.k_values(q([1]))
    assert ci1.k_parallel == 400


def test_k_values_rp():
    lay = RelLayoutRP(CMU, BIG)
    ci = lay.k_values(q(range(1, 9)))
    assert ci.k_parallel == 1280
    assert ci.k_random == 8
    assert ci.bits == (BIG.n + 7 * math.ceil(0.1 * BIG.n)) * 64


def test_k_values_rp_prices_the_drawn_qualifying_count():
    # 0.07 * 100 is 7.000000000000001 in floating point: a plain ceil
    # would price 8 qualifying tuples where the workload draws 7
    lay = RelLayoutRP(CMU, RelationSchema(k=4, n=100))
    drawn = Relation(n=100, seed=0).qualifying_set(0.07)
    assert len(drawn) == exact_ceil(0.07, 100) == 7
    assert lay.k_values(q([1, 2], sel=0.07)).bits == (100 + 7) * 64 == 6848


# -- query validation ------------------------------------------------------

def test_range_query_validation():
    with pytest.raises(ValueError):
        RangeQuery(projected=(2, 3), predicate_attr=1, bound=0, selectivity=0.1)
    with pytest.raises(ValueError):
        RangeQuery(projected=(1,), predicate_attr=1, bound=0, selectivity=1.5)
    with pytest.raises(ValueError):
        RangeQuery(projected=(), predicate_attr=1, bound=0, selectivity=0.1)
