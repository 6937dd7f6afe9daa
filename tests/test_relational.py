"""Relational placement layouts: mapping oracles, compilers, correctness."""

import hashlib
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsrs import emulator
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import (SEEK_MODELS, Emulator, MediaImage, RowTips,
                             SortedTips, plan_from_text, plan_to_text)
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
from tests.oracles import rp_plan_per_band, rsy_map_phys, rsy_plan_per_row

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
    assert rsy_map_phys(lay, 1, 1) == PhysAddr(1, 1, 1, 1)


def test_map_rsy_phys_matches_composition_sampled():
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=12800))
    rng = random.Random(99)
    for _ in range(5000):
        v = rng.randint(1, 12800)
        w = rng.randint(1, 16)
        assert rsy_map_phys(lay, v, w) == rs_to_mems(lay.map(v, w), CMU)


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
            assert rsy_map_phys(lay, v, w) == rs_to_mems(lay.map(v, w), TINY)


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


def test_sorted_qualifying_rows_price_like_plain_tuples_at_every_width():
    # reduced geometry: 64 tips, 16 of them active, so a band row with
    # more than 16 qualifying tuples is read in two layers
    dev = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                       n_active_tips=16)
    lay = RelLayoutRP(dev, RelationSchema(k=16, n=384))
    ids = random.Random(3).sample(range(1, 385), 96)
    band = lay.qualifying_rows(ids)
    sizes = sorted(map(len, band.rows.values()))
    assert sizes[0] <= dev.n_active_tips < sizes[-1]
    # the same map as plain tuples, bucketed id by id
    plain = {}
    for v in sorted(ids):
        plain.setdefault((v - 1) // 64 + 1, []).append((v - 1) % 64 + 1)
    plain = {row: tuple(tips) for row, tips in plain.items()}
    assert plain == band.rows
    plain = lay._band(plain)
    # one band shared by every width, as the projection sweep shares it
    for nproj in range(1, 17):
        query = q(range(1, nproj + 1), sel=0.25)
        assert (Emulator(dev).execute(lay.compile(query, band))
                == Emulator(dev).execute(lay.compile(query, plain)))


@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.25, 0.5, 1.0])
def test_counted_rows_price_like_the_qualifying_ids_rows(sigma):
    # reduced geometry: 64 tips, 16 of them active, and a ragged last band
    # row; the sweeps plan from counted rows, readback from the real ids
    dev = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                       n_active_tips=16)
    lay = RelLayoutRP(dev, RelationSchema(k=16, n=350))
    for seed in range(3):
        rel = Relation(350, seed)
        real = lay.qualifying_rows(rel.qualifying_set(sigma, dev.n_tips))
        counted = lay.counted_rows(rel.qualifying_counts(sigma, dev.n_tips))
        assert all(type(tips) is SortedTips for tips in real.rows.values())
        assert {r: len(t) for r, t in real.rows.items()} == {
            r: len(t) for r, t in counted.rows.items()}
        for nproj in (1, 2, 9, 16):
            query = q(range(1, nproj + 1), sel=sigma)
            plans = [lay.compile(query, band) for band in (real, counted)]
            assert len(plans[0].scans) == len(plans[1].scans)
            for model in SEEK_MODELS:
                assert (Emulator(dev, model).execute(plans[0])
                        == Emulator(dev, model).execute(plans[1]))


def test_counted_rows_are_ranges_of_the_counts():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    lay = RelLayoutRP(dev, RelationSchema(k=2, n=50))  # 13 rows, last of 2
    counts = [0, 4, 1] + [0] * 9 + [2]
    assert lay.counted_rows(counts).rows == {2: range(1, 5), 3: range(1, 2),
                                             13: range(1, 3)}
    assert lay.counted_rows(()).rows == {}


@pytest.mark.parametrize("counts, message", [
    ([0, 5], "qualifying count 5 of band row 2 out of range 0..4"),
    ([0] * 12 + [3], "qualifying count 3 of band row 13 out of range 0..2"),
    ([1, -1], "qualifying count -1 of band row 2 out of range 0..4"),
    ([0] * 14, "14 qualifying counts for 13 band rows"),
    ([1, 2.0], "qualifying count 2.0 is not an integer"),
    ([1, True], "qualifying count True is not an integer"),
], ids=["above-row", "above-last-row", "negative", "too-many-rows", "float",
        "bool"])
def test_counted_rows_reject_a_count_the_row_cannot_hold(counts, message):
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    lay = RelLayoutRP(dev, RelationSchema(k=2, n=50))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lay.counted_rows(counts)


def test_counted_rows_share_one_range_per_count_checked_once_per_plan(
        monkeypatch):
    dev = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                       n_active_tips=64)
    lay = RelLayoutRP(dev, RelationSchema(k=4, n=350))  # 6 rows, last of 30
    band = lay.counted_rows([5, 0, 7, 5, 7, 5])
    rows = band.rows
    assert rows == {1: range(1, 6), 3: range(1, 8), 4: range(1, 6),
                    5: range(1, 8), 6: range(1, 6)}
    assert rows[1] is rows[4] is rows[6] and rows[3] is rows[5]
    # every set fits one layer, so the plan holds the rows' own objects;
    # the emulator checks each of them once, however many bands use it
    checked = Counter()

    def counting(tips, n_tips):
        checked[id(tips)] += 1
        return check_tips(tips, n_tips)

    check_tips = emulator._check_tips
    monkeypatch.setattr(emulator, "_check_tips", counting)
    plan = lay.compile(q((1, 2, 3, 4)), band)
    # scan 0 is the predicate band's
    assert {id(t) for s in plan.scans[1:]
            for t in [s.tips, *(s.per_row_tips or {}).values()]} == {
                id(rows[1]), id(rows[3])}
    Emulator(dev).execute(plan)
    assert checked[id(rows[1])] == checked[id(rows[3])] == 1
    assert set(checked.values()) == {1}


# 40960 tuples on the reference device: 7 band rows, 2560 tuples in the last
RP7 = RelationSchema(k=16, n=40_960)


def test_rp_compile_takes_the_rows_it_builds_at_their_limits():
    lay = RelLayoutRP(CMU, RP7)
    assert lay.band_rows == 7
    for band in (lay.counted_rows([6400] + [0] * 5 + [2560]),
                 lay.qualifying_rows([1, 6400, 6401, 40_960]),
                 lay.counted_rows([0] * 6 + [2560]), lay.counted_rows(()),
                 lay.qualifying_rows(())):
        assert lay.compile(q([1, 2]), band).scans


def test_rp_compile_takes_only_a_band_of_its_own_layout():
    # qualifying_rows and counted_rows check the rows once, so compile
    # takes nothing else: not a plain map, nor a band of another layout,
    # even an equal one
    lay, twin = RelLayoutRP(CMU, RP7), RelLayoutRP(CMU, RP7)
    counts = [6400, 0, 5, 0, 0, 0, 2560]
    band, other = lay.counted_rows(counts), twin.counted_rows(counts)
    assert (other.rows, other.scans) == (band.rows, band.scans)
    for bad, got in ((band.rows, "dict"), (dict(band.rows), "dict"),
                     (None, "NoneType"), (other, "a band of another layout")):
        with pytest.raises(ValueError, match=(
                f"^compile takes a QualifyingBand of this layout, "
                f"got {got}$")):
            lay.compile(q([1, 2]), bad)
    assert lay.compile(q([1, 2]), band) == twin.compile(q([1, 2]), other)


@pytest.mark.parametrize("pred", [1, 3])
def test_rp_plan_scans_are_the_plans_own(pred):
    # the full band and a draw's band are scanned once and moved for each
    # plan, by 0 rows for attribute 1's band: changing one plan's scans
    # must leave the next plan as it was
    dev = _oracle_device(16)
    lay = RelLayoutRP(dev, RelationSchema(k=4, n=350))  # last row of 30
    band = lay.counted_rows(Relation(350, 0).qualifying_counts(0.5,
                                                               dev.n_tips))
    query = q((1, 2, 3, 4), sel=0.5, pred=pred)
    want = plan_to_text(lay.compile(query, band))
    plan = lay.compile(query, band)
    start = lay.band_start(pred)
    # both bands' scans override rows: the ragged last row's, and the
    # rows whose count differs from the default's
    assert {scan.start == start for scan in plan.scans
            if scan.per_row_tips} == {True, False}
    for scan in plan.scans:
        scan.start += 1
        # the override maps are frozen, so no plan can change another's
        if scan.per_row_tips:
            with pytest.raises(TypeError):
                scan.per_row_tips.clear()
    assert plan_to_text(lay.compile(query, band)) == want
    assert plan_to_text(plan) != want


@pytest.mark.parametrize("sel", [0.1, 0.5])
def test_rp_plan_read_back_from_text_prices_alike(sel):
    # `plan_from_text` makes each scan's override rows one `RowTips`
    dev = _oracle_device(16)
    lay = RelLayoutRP(dev, RelationSchema(k=4, n=350))
    band = lay.counted_rows(Relation(350, 0).qualifying_counts(sel,
                                                               dev.n_tips))
    plan = lay.compile(q((1, 2, 3, 4), sel=sel), band)
    text = plan_to_text(plan)
    parsed = plan_from_text(text)
    assert plan_to_text(parsed) == text
    assert {type(s.per_row_tips) for s in parsed.scans} == {RowTips, type(None)}
    for model in SEEK_MODELS:
        assert (Emulator(dev, model).execute(parsed)
                == Emulator(dev, model).execute(plan))


# -- plans built once per run, against the per-unit builders --------------

def _same_scans(plan, oracle):
    """Scan by scan: equal fields, and tip sets of the same types."""
    assert len(plan.scans) == len(oracle.scans)
    for got, want in zip(plan.scans, oracle.scans):
        assert ((got.start, got.length, got.tips, got.per_row_tips)
                == (want.start, want.length, want.tips, want.per_row_tips))
        assert type(got.tips) is type(want.tips)
        assert ({r: type(t) for r, t in (got.per_row_tips or {}).items()}
                == {r: type(t) for r, t in (want.per_row_tips or {}).items()})


def _oracle_device(napt):
    # 8x8 tips in columns of 5 rows: m = 16 tuples a sector row at k = 4
    return DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                        n_active_tips=napt)


# contiguous widths from attribute 1, and two gapped projections
_PROJECTIONS = ([(range(1, w + 1), 1) for w in range(1, 5)]
                + [((2, 4), 4), ((1, 3), 3)])


@pytest.mark.parametrize("n, attr_bits, napt, rows_used, n_last", [
    (10, 64, 16, 1, 10),
    (16, 128, 3, 1, 16),
    (80, 64, 5, 5, 16),
    (350, 128, 3, 22, 14),
    (350, 64, 64, 22, 14),
], ids=["one-short-row", "one-full-row-spv2", "last-row-full",
        "ragged-spv2-layers", "ragged-one-layer"])
def test_rsy_lead_run_matches_the_per_row_builder(n, attr_bits, napt,
                                                  rows_used, n_last):
    lay = RelLayoutRSY(_oracle_device(napt),
                       RelationSchema(k=4, n=n, attr_bits=attr_bits))
    assert (lay.rows_used, n - (lay.rows_used - 1) * lay.m) == (rows_used,
                                                                n_last)
    for projected, pred in _PROJECTIONS:
        query = q(projected, pred=pred)
        _same_scans(lay.compile(query), rsy_plan_per_row(lay, query))


@pytest.mark.parametrize("napt", [3, 16])
@pytest.mark.parametrize("attr_bits", [64, 128])
@pytest.mark.parametrize("n, band_rows", [(350, 6), (384, 6), (50, 1)],
                         ids=["ragged", "last-row-full", "one-row"])
@pytest.mark.parametrize("sigma", [1e-4, 0.1, 0.5, 1.0])
def test_rp_shifted_bands_match_the_per_band_builder(sigma, n, band_rows,
                                                     attr_bits, napt):
    # band rows of 64 tips; at 1e-4 one tuple qualifies, so all band rows
    # but one are empty
    dev = _oracle_device(napt)
    lay = RelLayoutRP(dev, RelationSchema(k=4, n=n, attr_bits=attr_bits))
    assert lay.band_rows == band_rows
    rel = Relation(n, 0)
    real = lay.qualifying_rows(rel.qualifying_set(sigma, dev.n_tips))
    counted = lay.counted_rows(rel.qualifying_counts(sigma, dev.n_tips))
    # one range object per row, as counted rows were before they shared
    unshared = lay._band({r: range(1, len(t) + 1)
                          for r, t in counted.rows.items()})
    assert len(real.rows) == (1 if sigma == 1e-4 else band_rows)
    for band in (real, counted, unshared):
        for projected, pred in _PROJECTIONS:
            query = q(projected, sel=sigma, pred=pred)
            _same_scans(lay.compile(query, band),
                        rp_plan_per_band(lay, query, band.rows))


# -- analytic cost inputs -------------------------------------------------

def test_qualifying_rows_matches_per_id_bucketing():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    lay = RelLayoutRP(dev, RelationSchema(k=2, n=50))
    rng = random.Random(5)
    ids = rng.sample(range(1, 51), 20)
    ids += [v for v in (1, 7, 50) if v not in ids]
    rng.shuffle(ids)
    want = {}
    for v in ids:
        want.setdefault((v - 1) // 4 + 1, []).append((v - 1) % 4 + 1)
    want = {row: tuple(sorted(tips)) for row, tips in want.items()}
    assert lay.qualifying_rows(ids).rows == want
    assert lay.qualifying_rows(sorted(ids)).rows == want
    assert lay.qualifying_rows(()).rows == {}
    for bad in (0, 51):
        with pytest.raises(ValueError, match=f"qualifying tuple id {bad} out of range"):
            lay.qualifying_rows([5, bad, 9])


@pytest.mark.parametrize("ids, repeated", [
    ([5, 5, 9], 5), ([9, 1, 7, 4, 7], 7), ([50, 3, 50], 50)])
def test_qualifying_rows_rejects_a_repeated_id(ids, repeated):
    # a repeat would read, and count, the tuple's sectors twice
    lay = RelLayoutRP(CMU, RelationSchema(k=2, n=50))
    with pytest.raises(ValueError,
                       match=f"^qualifying tuple id {repeated} listed twice$"):
        lay.qualifying_rows(ids)


@pytest.mark.parametrize("ids, bad", [
    ([2.5, 7], "2.5"), ([7, 3.0], "3.0"),
    ([9, Fraction(7, 2), 4], "Fraction(7, 2)"),
    # a bool used to pass as tuple 1, and a str failed the sort unnamed
    ([True, 5], "True"), ([1, "a"], "'a'"), ([None], "None")])
def test_qualifying_rows_rejects_a_non_integer_id(ids, bad):
    # a float tip would pass the emulator's range check and read as zeros
    lay = RelLayoutRP(CMU, RelationSchema(k=2, n=50))
    with pytest.raises(ValueError, match=(
            f"^qualifying tuple id {re.escape(bad)} is not an integer$")):
        lay.qualifying_rows(ids)


# -- plan-text pins ---------------------------------------------------------
#
# sha256 of the plans' text form: every tip set, override row and scan
# boundary.  A change to how plans are built must keep them all.

def _digest(plans):
    return hashlib.sha256("".join(map(plan_to_text, plans)).encode()).hexdigest()


@pytest.mark.parametrize("size_mb, digest", [
    (5,
     "027d0a39b47bcc77d7a36ac165265441f66db5d30462d6a652f22bbf4b6fe867"),
    (320,
     "f206836bce24ece788f4dcb1ba474be7338afec46d62c3abe1979827e3b3b7a3"),
])
def test_rsy_plan_text_pinned(size_mb, digest):
    # the reference device at every projection width; each width's tips
    # span one or more activation layers, and the last tuple row is short
    lay = RelLayoutRSY(CMU, RelationSchema(k=16, n=size_mb * 2**20 // 128))
    assert _digest(lay.compile(q(range(1, w + 1))) for w in range(1, 17)) == digest


@pytest.mark.parametrize("napt, digest", [
    (3,
     "c18711b62bce42fce7c1d02541e1dc20d05b9acdcf5305e0a9419d9ab5f49e2d"),
    (7,
     "ba714aff70f02a40137021ca54baa4cdbd5517bc4128a7b863e7e6f3cf81d269"),
    (16,
     "a757043946b8e7ac753ec1f0ddf41d44ed45d88b4cdbdfd2169d90f3b98f0515"),
], ids=["napt-3", "napt-7", "napt-16"])
def test_rp_real_id_plan_text_pinned(napt, digest):
    # 8x8 tips and a ragged last band row of 40 tuples; from sparse rows
    # to full ones, so wide rows are cut into layers and rows of unequal
    # sets are overridden
    dev = DeviceParams(regions_x=8, regions_y=8, n_active_tips=napt)
    lay = RelLayoutRP(dev, RelationSchema(k=4, n=1000))
    plans = [compile_rp(lay, q((1, 2, 4), sel=sigma),
                        Relation(1000, seed).qualifying_set(sigma,
                                                            dev.n_tips))
             for seed, sigma in enumerate((0, 0.02, 0.3, 0.9, 1))]
    assert _digest(plans) == digest



def _timing_digest(plans, dev):
    return hashlib.sha256("".join(repr(Emulator(dev).execute(plan))
                                  for plan in plans).encode()).hexdigest()


@pytest.mark.parametrize("sigma, plan_digest, timing_digest", [
    (0.1,
     "99c3f9f5a86d674add8f9f067fbb7f87cb3a787594f1c6414d04de7319d9758d",
     "3b0c2b82f6c8494fdf5a7d568b39e79951dc31ce46d1577187c93479149f854f"),
    (0.5,
     "881d7caca6c7968752eba661f8dd035b9e8109bbafb05eb750bb2995dfe10c8b",
     "ecd98fae33ad631b3e6f3881fca285ab90c23be9e7684fa2814a8159f4f1a4bf"),
], ids=["sigma-0.1", "sigma-0.5"])
def test_rp_counted_row_plans_pinned(sigma, plan_digest, timing_digest):
    # the sweeps' plans: the reference device at 320 MB, every projection
    # width, seed 0's counted rows.  At sigma 0.5 each band row reaches
    # three activation layers, so rows still wanting tips after the first
    # pass are pinned too.
    lay = RelLayoutRP(CMU, BIG)
    rows = lay.counted_rows(Relation(BIG.n, 0).qualifying_counts(sigma,
                                                                 CMU.n_tips))
    plans = [lay.compile(q(range(1, w + 1), sel=sigma), rows)
             for w in range(1, 17)]
    assert _digest(plans) == plan_digest
    assert _timing_digest(plans, CMU) == timing_digest


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
    drawn = Relation(n=100, seed=0).qualifying_set(0.07, CMU.n_tips)
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


@pytest.mark.parametrize("kw, message", [
    ({"k": 16, "n": 2.5}, "relation schema n must be an integer, got 2.5"),
    ({"k": "16", "n": 5}, "relation schema k must be an integer, got '16'"),
    ({"k": 16, "n": 5, "attr_bits": 64.0},
     "relation schema attr_bits must be an integer, got 64.0"),
    ({"k": True, "n": 5}, "relation schema k must be an integer, got True"),
    ({"k": 0, "n": 5}, "relation schema fields must be >= 1"),
], ids=["float-n", "str-k", "float-bits", "bool-k", "zero-k"])
def test_relation_schema_rejects_bad_fields_by_name(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RelationSchema(**kw)


@pytest.mark.parametrize("projected, pred, message", [
    ((1, 2.5), 1, "projected attribute must be an integer, got 2.5"),
    ((1, "2"), 1, "projected attribute must be an integer, got '2'"),
    ((True, 2), 2, "projected attribute must be an integer, got True"),
    ((1, 2), 1.0, "predicate attribute must be an integer, got 1.0"),
    ((1, 2), None, "predicate attribute must be an integer, got None"),
], ids=["float-attr", "str-attr", "bool-attr", "float-pred", "none-pred"])
def test_range_query_rejects_non_integer_attributes_by_name(projected, pred,
                                                            message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RangeQuery(projected=projected, predicate_attr=pred, bound=0,
                   selectivity=0.1)


@pytest.mark.parametrize("selectivity, message", [
    (1.5, "selectivity 1.5 is not within [0, 1]"),
    (float("nan"), "selectivity nan is not within [0, 1]"),
    (10**400, f"selectivity {10**400} is not within [0, 1]"),
    ("0.1", "selectivity must be a real number, got '0.1'"),
    (True, "selectivity must be a real number, got True"),
], ids=["above-1", "nan", "huge-int", "str", "bool"])
def test_query_and_draw_reject_a_bad_selectivity_by_name(selectivity,
                                                          message):
    # the range query and the qualifying-set draw share one check
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RangeQuery(projected=(1,), predicate_attr=1, bound=0,
                   selectivity=selectivity)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Relation(n=10, seed=0).qualifying_set(selectivity, CMU.n_tips)
