"""Spatial placements: space mapping, block grid, curve orders, compilers."""

import hashlib
import math
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsrs import bench, spatial
from memsrs.cost import CostInput
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import AccessPlan, Emulator, MediaImage, SortedTips, plan_to_text
from memsrs.rs import PhysAddr, rs_scan, rs_to_mems
from memsrs.spatial import (
    BlockGrid,
    QueryRegion,
    SpatialSpace,
    SSYLayout,
    _block_shape,
    _power_of_two_pairs,
    build_block_grid,
    compile_sp,
    compile_ssy,
    query_block_set,
    write_image_sp,
    write_image_ssy,
)
from memsrs.workload import gen_query_region
from tests.oracles import curve_key_order, ssy_map_phys

CMU = cmu_defaults()
TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)
SPACE = SpatialSpace(width=6400, height=6400, obj_bits=64)
# 16 regions: every block shape from 1x16 to 16x1 tiles a 16x16 space
SIXTEEN = DeviceParams(regions_x=4, regions_y=4, sectors_x=8, sectors_y=4,
                       n_active_tips=4)
SPACE16 = SpatialSpace(width=16, height=16, obj_bits=64)


def region(x0, y0, qx, qy):
    return QueryRegion(x0=x0, y0=y0, qx=qx, qy=qy)


def curve_order(grid):
    """The blocks in curve order: the cells sorted by rank."""
    return tuple(sorted(grid.rank, key=grid.rank.get))


def grid_size(grid):
    """Blocks across and down: the space divided by the block size."""
    return grid.space.width // grid.B_x, grid.space.height // grid.B_y


# -- column-per-tip mapping ----------------------------------------------

def test_map_ssy_origin():
    lay = SSYLayout(CMU, SPACE)
    assert lay.map(1, 1) == (1, 1)


def test_map_ssy_single_component_is_identity():
    lay = SSYLayout(CMU, SPACE)
    addr = lay.map(100, 200)
    assert (addr.region, addr.sector) == (100, 200)
    assert rs_to_mems(addr, CMU) == PhysAddr(20, 2, 8, 17)


def test_map_ssy_vertical_partition():
    # space wider than the tip count: columns wrap into a second component
    lay = SSYLayout(TINY, SpatialSpace(width=12, height=5, obj_bits=64))
    assert lay.n_components == 2
    assert lay.map(10, 2) == (1, 7)


def test_map_ssy_phys_hand_value():
    lay = SSYLayout(CMU, SPACE)
    assert ssy_map_phys(lay, 100, 200) == PhysAddr(20, 2, 8, 17)
    assert ssy_map_phys(lay, 1, 1) == PhysAddr(1, 1, 1, 1)


def test_map_ssy_phys_matches_composition_sampled():
    import random
    lay = SSYLayout(CMU, SPACE)
    rng = random.Random(17)
    for _ in range(5000):
        x, y = rng.randint(1, 6400), rng.randint(1, 6400)
        assert ssy_map_phys(lay, x, y) == rs_to_mems(lay.map(x, y), CMU)
    # stacked components wrap into deeper sector rows
    small = SSYLayout(TINY, SpatialSpace(width=12, height=5, obj_bits=64))
    for x in range(1, 13):
        for y in range(1, 6):
            assert ssy_map_phys(small, x, y) == rs_to_mems(
                small.map(x, y), TINY)


def test_map_ssy_bounds_and_capacity():
    lay = SSYLayout(CMU, SPACE)
    for x, y in ((0, 1), (1, 0), (6401, 1), (1, 6401)):
        with pytest.raises(ValueError):
            lay.map(x, y)
    with pytest.raises(ValueError):
        SSYLayout(TINY, SpatialSpace(width=12, height=7, obj_bits=64))


# -- block grid construction ---------------------------------------------

def test_block_grid_square_for_ratio_one():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    assert (grid.B_x, grid.B_y) == (80, 80)
    assert grid_size(grid) == (80, 80)
    assert len(grid.rank) == 6400


def test_block_grid_quarter_ratio():
    grid = build_block_grid(CMU, SPACE, ratio=0.25)
    assert (grid.B_x, grid.B_y) == (40, 160)


def test_block_grid_tie_breaks_wider():
    # ratio 2 sits exactly between the 1 and 4 ratio pairs
    grid = build_block_grid(CMU, SPACE, ratio=2.0)
    assert (grid.B_x, grid.B_y) == (160, 40)


def _pairs_by_walk(limit):
    """Each n up to `limit` mapped to its factor pairs (bx, by), bx
    ascending, whose ratio is a power of two: every bx is stepped through
    all its multiples."""
    pairs = {n: [] for n in range(1, limit + 1)}
    for bx in range(1, limit + 1):
        for n in range(bx, limit + 1, bx):
            hi, lo = max(bx, n // bx), min(bx, n // bx)
            if hi % lo == 0 and bin(hi // lo).count("1") == 1:
                pairs[n].append((bx, n // bx))
    return pairs


def test_power_of_two_pairs_match_a_walk_over_every_divisor():
    for n, pairs in _pairs_by_walk(5000).items():
        assert sorted(_power_of_two_pairs(n)) == pairs


@pytest.mark.parametrize("dev", [
    CMU,
    DeviceParams(regions_x=8, regions_y=2, sectors_x=4, sectors_y=3, n_active_tips=4),
    DeviceParams(regions_x=6, regions_y=3, sectors_x=4, sectors_y=3, n_active_tips=4),
])
def test_block_shape_matches_a_walk_over_every_divisor(dev, monkeypatch):
    shapes = [_block_shape(dev, aspect) for aspect in bench.ASPECTS]
    walked = _pairs_by_walk(dev.n_regions)
    monkeypatch.setattr(spatial, "_power_of_two_pairs", walked.__getitem__)
    assert shapes == [_block_shape(dev, aspect) for aspect in bench.ASPECTS]


def test_hilbert_order_small_oracle():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=4, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=4, height=4, obj_bits=64),
                            ratio=1.0)
    assert curve_order(grid) == ((1, 1), (1, 2), (2, 2), (2, 1))


def test_zorder_small_oracle():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=4, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=4, height=4, obj_bits=64),
                            ratio=1.0, curve="zorder")
    assert curve_order(grid) == ((1, 1), (2, 1), (1, 2), (2, 2))


def test_hilbert_consecutive_blocks_are_adjacent():
    # the adjacency guarantee holds on power-of-two square grids
    dev = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                       n_active_tips=16)
    grid = build_block_grid(dev, SpatialSpace(width=64, height=64, obj_bits=64),
                            ratio=1.0)
    assert grid_size(grid) == (8, 8)
    order = curve_order(grid)
    prev = order[0]
    for cell in order[1:]:
        assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
        prev = cell


def test_hilbert_order_is_a_permutation_at_cmu_scale():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    assert sorted(curve_order(grid)) == [(x, y) for x in range(1, 81) for y in range(1, 81)]


def test_padded_grid_covers_every_block_once():
    # 4x2 block grid runs the curve on a padded 4x4 square
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=16, height=2, obj_bits=64),
                            ratio=4.0)
    assert (grid.B_x, grid.B_y) == (4, 1)
    assert grid_size(grid) == (4, 2)
    assert sorted(curve_order(grid)) == [(x, y) for x in range(1, 5) for y in range(1, 3)]


def _hilbert_d2xy(side, d):
    x = y = 0
    t = d
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _zorder_d2xy(d):
    x = y = 0
    i = 0
    while d:
        x |= (d & 1) << i
        d >>= 1
        y |= (d & 1) << i
        d >>= 1
        i += 1
    return x, y


def _walk_order(curve, g_x, g_y):
    """Reference order: walk every position of the padded square's curve
    and keep the cells inside the grid."""
    side = 1
    while side < max(g_x, g_y):
        side *= 2
    order = []
    for d in range(side * side):
        x, y = _hilbert_d2xy(side, d) if curve == "hilbert" else _zorder_d2xy(d)
        if x < g_x and y < g_y:
            order.append((x + 1, y + 1))
    return tuple(order)


@pytest.mark.parametrize("curve", ["hilbert", "zorder"])
@pytest.mark.parametrize("g_x,g_y", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3),
                                     (4, 4), (8, 2), (20, 320), (320, 20)])
def test_block_order_matches_curve_walk(curve, g_x, g_y):
    # one region, so blocks are single objects and the grid is the space
    dev = DeviceParams(regions_x=1, regions_y=1, sectors_x=256, sectors_y=27,
                       n_active_tips=1)
    grid = build_block_grid(dev, SpatialSpace(width=g_x, height=g_y, obj_bits=64),
                            ratio=1.0, curve=curve)
    assert grid_size(grid) == (g_x, g_y)
    assert curve_order(grid) == _walk_order(curve, g_x, g_y)
    assert sorted(grid.rank.values()) == list(range(1, g_x * g_y + 1))


def assert_rank_is_key_order(grid, curve):
    g_x, g_y = grid_size(grid)
    assert list(grid.rank.items()) == [
        (cell, i) for i, cell in enumerate(curve_key_order(curve, g_x, g_y), 1)]


@pytest.mark.parametrize("curve", ["hilbert", "zorder"])
@pytest.mark.parametrize("ratio, shape", [(1, (80, 80)), (1 / 16, (20, 320)),
                                          (1 / 4, (40, 160)), (4, (160, 40)),
                                          (16, (320, 20))])
def test_block_rank_matches_curve_key_sort_at_cmu_shapes(curve, ratio, shape):
    # the five block shapes of the exp3/exp4 aspects
    grid = build_block_grid(CMU, SPACE, ratio=ratio, curve=curve)
    assert (grid.B_x, grid.B_y) == shape
    assert_rank_is_key_order(grid, curve)


@settings(max_examples=60, deadline=None)
@given(curve=st.sampled_from(["hilbert", "zorder"]), g_x=st.integers(1, 40),
       g_y=st.integers(1, 40))
def test_block_rank_matches_curve_key_sort(curve, g_x, g_y):
    # one region, so blocks are single objects and the grid is the space
    dev = DeviceParams(regions_x=1, regions_y=1, sectors_x=64, sectors_y=27,
                       n_active_tips=1)
    grid = build_block_grid(dev, SpatialSpace(width=g_x, height=g_y, obj_bits=64),
                            ratio=1.0, curve=curve)
    assert_rank_is_key_order(grid, curve)


@pytest.mark.parametrize("ratio", [1.0, 1 / 16])
def test_block_grid_order_is_not_built_per_cell(ratio):
    # the 6400 blocks are ordered by a walk over quadrants and tiles; a
    # per-cell curve key makes about two Python calls per block
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        build_block_grid(CMU, SPACE, ratio=ratio)
    finally:
        sys.setprofile(previous)
    assert calls < 1300


def test_block_grid_rejections():
    with pytest.raises(ValueError):
        build_block_grid(CMU, SPACE, ratio=1.0, curve="peano")
    with pytest.raises(ValueError):
        # blocks would not tile the space
        build_block_grid(TINY, SpatialSpace(width=7, height=6, obj_bits=64),
                         ratio=1.0)


@pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_block_grid_rejects_non_positive_or_non_finite_ratio(ratio):
    with pytest.raises(ValueError, match="aspect ratio must be positive and finite"):
        build_block_grid(CMU, SPACE, ratio=ratio)


@pytest.mark.parametrize("ratio, message", [
    (True, "aspect ratio must be a real number, got True"),
    ("1", "aspect ratio must be a real number, got '1'"),
    (None, "aspect ratio must be a real number, got None"),
    ((1, 1), "aspect ratio must be a real number, got (1, 1)"),
], ids=["bool", "str", "none", "tuple"])
def test_block_grid_rejects_a_ratio_that_is_not_a_real_number(ratio, message):
    # True once built a 1:1 grid, and a str failed on a bare compare
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_block_grid(CMU, SPACE, ratio)


@pytest.mark.parametrize("curve", [["hilbert"], ("hilbert",), b"hilbert", None,
                                   2], ids=["list", "tuple", "bytes", "none",
                                            "int"])
def test_block_grid_rejects_a_curve_that_is_not_a_str(curve):
    # a list once failed unhashed, with a bare TypeError
    message = f"unknown curve: {curve!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_block_grid(CMU, SPACE, 1.0, curve=curve)


@pytest.mark.parametrize("ratio", [1, 4, 16])
def test_block_grid_takes_int_and_float_ratios_alike(ratio):
    assert (build_block_grid(SIXTEEN, SPACE16, ratio)
            == build_block_grid(SIXTEEN, SPACE16, float(ratio)))


@pytest.mark.parametrize("rx, ry", [(1, 3), (3, 2), (3, 4)])
def test_block_grid_without_power_of_two_shape_names_region_count(rx, ry):
    # 3, 6 and 12 regions: no factor pair has a power-of-two ratio
    dev = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=8, sectors_y=4,
                       n_active_tips=1)
    space = SpatialSpace(width=rx * ry, height=rx * ry, obj_bits=64)
    with pytest.raises(ValueError, match=f"no block shape for {rx * ry} regions"):
        build_block_grid(dev, space, ratio=1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: SpatialSpace(True, 64), "spatial space width must be an integer, "
                                     "got True"),
    (lambda: SpatialSpace(64.5, 64), "spatial space width must be an integer, "
                                     "got 64.5"),
    (lambda: SpatialSpace(64, 64.0), "spatial space height must be an "
                                     "integer, got 64.0"),
    (lambda: SpatialSpace(64, 64, "64"), "spatial space obj_bits must be an "
                                         "integer, got '64'"),
    (lambda: QueryRegion(1.5, 1, 3, 3), "query region x0 must be an integer, "
                                        "got 1.5"),
    (lambda: QueryRegion(1, False, 3, 3), "query region y0 must be an "
                                          "integer, got False"),
    (lambda: QueryRegion(1, 1, 3.0, 3), "query region qx must be an integer, "
                                        "got 3.0"),
    (lambda: QueryRegion(1, 1, 3, None), "query region qy must be an "
                                         "integer, got None"),
], ids=["width-bool", "width-float", "height-float", "obj-bits-str",
        "x0-float", "y0-bool", "qx-float", "qy-none"])
def test_space_and_query_fields_must_be_integers(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_map_sp_row_major_within_block():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    first = grid.map(1, 1)
    assert (first.region, first.sector) == (1, 1)
    assert grid.map(1, 2).region == 81
    a = grid.map(5, 7)
    b = grid.map(6, 7)
    assert a.sector == b.sector and a.region != b.region


def test_block_grid_map_bounds():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    for x, y, msg in ((0, 1, "x 0 out of range 1..6400"),
                      (6401, 1, "x 6401 out of range 1..6400"),
                      (1, 0, "y 0 out of range 1..6400"),
                      (1, 6401, "y 6401 out of range 1..6400")):
        with pytest.raises(ValueError, match=msg):
            grid.map(x, y)


# -- column-per-tip compiler ----------------------------------------------

def test_compile_ssy_scan_counts():
    lay = SSYLayout(CMU, SPACE)
    assert len(compile_ssy(lay, region(1, 1, 640, 640)).scans) == 1
    assert len(compile_ssy(lay, region(1, 1, 1810, 226)).scans) == 2
    assert len(compile_ssy(lay, region(1, 1, 1280, 320)).scans) == 1
    assert len(compile_ssy(lay, region(1, 1, 2560, 160)).scans) == 2


def test_compile_ssy_scan_shape():
    lay = SSYLayout(CMU, SPACE)
    plan = compile_ssy(lay, region(101, 201, 640, 50))
    scan = plan.scans[0]
    assert scan.start == 201 and scan.length == 50
    assert tuple(scan.tips) == tuple(range(101, 741))


def test_compile_ssy_clips_and_empties():
    lay = SSYLayout(CMU, SPACE)
    plan = compile_ssy(lay, region(6301, 6399, 500, 500))
    scan = plan.scans[0]
    assert len(scan.tips) == 100 and scan.length == 2
    assert compile_ssy(lay, region(1, 1, 0, 10)).scans == []


def test_compile_ssy_reads_exactly_the_region():
    lay = SSYLayout(TINY, SpatialSpace(width=12, height=5, obj_bits=64))
    im = MediaImage(TINY)
    write_image_ssy(lay, im, lambda x, y: bytes([x, y, 0, 0, 0, 0, 0, 0]))
    # straddles the component split at x=9|10
    plan = compile_ssy(lay, region(8, 2, 4, 2))
    _, data = Emulator(TINY).read(plan, im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = sorted(bytes([x, y, 0, 0, 0, 0, 0, 0])
                      for x in range(8, 12) for y in (2, 3))
    assert cells == expected


def test_k_values_ssy():
    lay = SSYLayout(CMU, SPACE)
    assert lay.k_values(region(1, 1, 160, 2560)).k_parallel == 160
    ci = lay.k_values(region(1, 1, 2560, 160))
    assert ci.k_parallel == 1280
    assert ci.k_random == 1
    assert ci.bits == 2560 * 160 * 64


# -- block compiler -------------------------------------------------------

def test_compile_sp_block_aligned_query():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    plan = compile_sp(grid, region(81, 1, 80, 80))
    assert len(plan.scans) == 1
    t = Emulator(CMU).execute(plan)
    assert t.n_seeks == 1
    assert t.n_row_steps == 5  # 6400 cells through 1280 tips
    assert t.n_sectors == 6400


def test_compile_sp_whole_space_single_seek():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    plan = compile_sp(grid, region(1, 1, 6400, 6400))
    assert len(plan.scans) == 1
    t = Emulator(CMU).execute(plan)
    assert t.n_seeks == 1
    assert t.n_sectors == 6400 * 6400


def test_compile_sp_corner_query_touches_at_most_four_blocks():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    qr = region(41, 41, 64, 64)
    blocks = query_block_set(grid, qr)
    assert len(blocks) == 4
    plan = compile_sp(grid, qr)
    assert 1 <= len(plan.scans) <= 4
    t = Emulator(CMU).execute(plan)
    assert t.n_sectors == 64 * 64


def test_compile_sp_reads_exactly_the_region():
    grid = build_block_grid(TINY, SpatialSpace(width=6, height=6, obj_bits=64),
                            ratio=1.0)
    assert (grid.B_x, grid.B_y) == (3, 3)
    im = MediaImage(TINY)
    write_image_sp(grid, im, lambda x, y: bytes([x, y, 0, 0, 0, 0, 0, 0]))
    plan = compile_sp(grid, region(2, 2, 3, 4))
    _, data = Emulator(TINY).read(plan, im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = sorted(bytes([x, y, 0, 0, 0, 0, 0, 0])
                      for x in range(2, 5) for y in range(2, 6))
    assert cells == expected


def test_compile_sp_merges_small_rank_gaps():
    grid = build_block_grid(TINY, SpatialSpace(width=6, height=6, obj_bits=64),
                            ratio=1.0)
    # blocks (1,1) and (2,1) are Hilbert ranks 1 and 4: a 2-row gap,
    # cheaper to stream through than to reseek
    qr = region(2, 2, 4, 1)
    plan = compile_sp(grid, qr)
    assert len(plan.scans) == 1
    assert plan.scans[0].start == 1 and plan.scans[0].length == 4
    # on a slow enough tip a one-row gap costs more than a seek, so the
    # derived threshold is 0 and the blocks are read by two scans
    slow = replace(TINY, tip_rate_bits_s=50_000)
    split = compile_sp(build_block_grid(slow, grid.space, ratio=1.0), qr)
    assert [(s.start, s.length) for s in split.scans] == [(1, 1), (4, 1)]
    im = MediaImage(TINY)
    write_image_sp(grid, im, lambda x, y: bytes([x, y, 0, 0, 0, 0, 0, 0]))
    _, data = Emulator(TINY).read(plan, im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    assert cells == sorted(bytes([x, 2, 0, 0, 0, 0, 0, 0]) for x in range(2, 6))


def test_compile_sp_empty_intersection():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    assert compile_sp(grid, region(6401, 1, 50, 50)).scans == []


def test_k_values_sp():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    ci = grid.k_values(region(81, 1, 80, 80))
    assert ci.k_random == 1  # one block touched
    assert ci.bits == 6400 * 64
    assert ci.k_parallel == 1280.0
    corner = grid.k_values(region(41, 41, 64, 64))
    assert corner.k_random == 4


# -- block compiler against a per-cell reference ------------------------------

def _per_cell_tips(grid, box, gx, gy):
    """Block (gx, gy)'s cells inside the box, tested cell by cell in
    row-major order; the whole block is the range of all its tips."""
    x0, y0, x1, y1 = box
    left, top = (gx - 1) * grid.B_x, (gy - 1) * grid.B_y
    tips = tuple((y_l - 1) * grid.B_x + x_l
                 for y_l in range(1, grid.B_y + 1) for x_l in range(1, grid.B_x + 1)
                 if x0 <= left + x_l <= x1 and y0 <= top + y_l <= y1)
    if len(tips) == grid.B_x * grid.B_y:
        return range(1, grid.B_x * grid.B_y + 1)
    return tips


def _reference_compile_sp(grid, qr):
    """The block compiler building one tip set per overlapped block, the
    blocks found by testing every block of the grid against the box."""
    box = qr.clip(grid.space)
    if box is None:
        return AccessPlan([])
    x0, y0, x1, y1 = box
    blocks = sorted((rank, cell) for cell, rank in grid.rank.items()
                    if (cell[0] - 1) * grid.B_x < x1 and cell[0] * grid.B_x >= x0
                    and (cell[1] - 1) * grid.B_y < y1 and cell[1] * grid.B_y >= y0)
    p, spo = grid.params, grid.spo
    sector_time = p.sector_bits / p.tip_rate_bits_s
    seek_rs = p.seek_time_rs_s
    max_gap = int(seek_rs / (spo * sector_time))
    if max_gap * spo * sector_time >= seek_rs:
        max_gap -= 1
    runs = []
    prev_rank = None
    for rank, (gx, gy) in blocks:
        tips = _per_cell_tips(grid, box, gx, gy)
        if prev_rank is not None and rank - prev_rank - 1 <= max_gap:
            runs[-1][1].extend([()] * (rank - prev_rank - 1) + [tips])
        else:
            runs.append((rank, [tips]))
        prev_rank = rank
    napt = p.n_active_tips
    scans = []
    for first_rank, units in runs:
        deepest = max(map(len, units))
        if deepest == grid.B_x * grid.B_y:
            scans.append(rs_scan((first_rank - 1) * spo + 1, spo, units))
            continue
        for lo in range(0, deepest, napt):
            want = [i for i, tips in enumerate(units) if len(tips) > lo]
            scans.append(rs_scan((first_rank + want[0] - 1) * spo + 1, spo,
                                 [tips[lo:lo + napt]
                                  for tips in units[want[0]:want[-1] + 1]]))
    return AccessPlan(scans)


def _tip_sets(plan):
    """Every tip set a plan holds: each scan's default and its overrides."""
    for scan in plan.scans:
        yield scan.tips
        yield from (scan.per_row_tips or {}).values()


@st.composite
def _reduced_grids(draw):
    rx, ry = draw(st.sampled_from(((1, 1), (2, 1), (2, 2), (4, 2), (2, 4),
                                   (4, 4), (3, 3), (6, 3))))
    n_tips = rx * ry
    spo = draw(st.integers(1, 3))
    space = SpatialSpace(width=n_tips * draw(st.integers(1, 2)),
                         height=n_tips * draw(st.integers(1, 2)), obj_bits=64 * spo)
    sy = draw(st.integers(1, 6))
    need = space.width * space.height // n_tips * spo
    # the slow tip makes a one-row gap cost more than a seek, so no
    # rank gap is streamed through
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=-(-need // sy),
                     sectors_y=sy, n_active_tips=draw(st.integers(1, n_tips)),
                     tip_rate_bits_s=draw(st.sampled_from((0.7e6, 50_000))))
    grid = build_block_grid(p, space,
                            ratio=draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0))),
                            curve=draw(st.sampled_from(("hilbert", "zorder"))))
    return p, grid


def _regions(space):
    # origins up to two past the edge, so some queries miss the space
    return st.builds(QueryRegion, x0=st.integers(1, space.width + 2),
                     y0=st.integers(1, space.height + 2),
                     qx=st.integers(0, space.width), qy=st.integers(0, space.height))


@settings(max_examples=60, deadline=None)
@given(geo=_reduced_grids(), data=st.data())
def test_query_block_set_clips_cover_the_box_once(geo, data):
    _, grid = geo
    space = grid.space
    assert query_block_set(grid, region(1, 1, 0, space.height)) == []
    for _ in range(4):
        qr = data.draw(_regions(space))
        blocks = query_block_set(grid, qr)
        box = qr.clip(space)
        if box is None:
            assert blocks == []
            continue
        ranks = [rank for rank, _ in blocks]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))
        # each cell of the box, as a local cell of the block holding it,
        # filed under that block's rank
        x0, y0, x1, y1 = box
        want = {}
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                rank = grid.rank[(x - 1) // grid.B_x + 1, (y - 1) // grid.B_y + 1]
                want.setdefault(rank, set()).add(
                    ((x - 1) % grid.B_x + 1, (y - 1) % grid.B_y + 1))
        got = {rank: {(lx, ly) for lx in range(la, lb + 1)
                      for ly in range(ya, yb + 1)}
               for rank, (la, lb, ya, yb) in blocks}
        assert got == want
        assert sum((lb - la + 1) * (yb - ya + 1)
                   for _, (la, lb, ya, yb) in blocks) == (x1 - x0 + 1) * (y1 - y0 + 1)


@settings(max_examples=80, deadline=None)
@given(geo=_reduced_grids(), data=st.data())
def test_compile_sp_matches_per_cell_reference(geo, data):
    p, grid = geo
    for _ in range(4):
        qr = data.draw(_regions(grid.space))
        plan, want = compile_sp(grid, qr), _reference_compile_sp(grid, qr)
        assert plan_to_text(plan) == plan_to_text(want)
        assert Emulator(p).execute(plan) == Emulator(p).execute(want)
        for tips in _tip_sets(plan):
            # a gap is (); any other set is a range or a SortedTips that
            # the constructor's own walk accepts, as `prechecked` assumed
            assert (not tips or type(tips) is range
                    or type(tips) is SortedTips and SortedTips(tuple(tips)) == tips)


@settings(max_examples=60, deadline=None)
@given(geo=_reduced_grids(), data=st.data())
def test_k_values_sp_matches_per_cell_count(geo, data):
    p, grid = geo
    for _ in range(4):
        qr = data.draw(_regions(grid.space))
        box = qr.clip(grid.space)
        if box is None:
            want = CostInput(bits=0, k_parallel=p.n_active_tips, k_random=0)
        else:
            x0, y0, x1, y1 = box
            per_block = Counter(((x - 1) // grid.B_x, (y - 1) // grid.B_y)
                                for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
            cells = sum(per_block.values())
            steps = sum(-(-n // p.n_active_tips) * grid.spo
                        for n in per_block.values())
            want = CostInput(bits=cells * grid.space.obj_bits,
                             k_parallel=cells / steps, k_random=len(per_block))
        assert grid.k_values(qr) == want


@pytest.mark.parametrize("ratio, shape", [(1, (4, 4)), (4, (8, 2)),
                                          (1 / 4, (2, 8)), (16, (16, 1))])
def test_every_clip_tip_set_is_its_row_major_walk(ratio, shape):
    # every clip of a reduced block: a range where its tips run on without
    # a break, else a SortedTips that the checking constructor accepts
    grid = build_block_grid(SIXTEEN, SPACE16, ratio)
    b_x, b_y = shape
    assert (grid.B_x, grid.B_y) == shape
    for la in range(1, b_x + 1):
        for lb in range(la, b_x + 1):
            for ya in range(1, b_y + 1):
                for yb in range(ya, b_y + 1):
                    tips = spatial._clip_tips(grid, (la, lb, ya, yb))
                    assert list(tips) == [(y - 1) * b_x + x
                                          for y in range(ya, yb + 1)
                                          for x in range(la, lb + 1)]
                    if ya == yb or (la, lb) == (1, b_x):
                        assert type(tips) is range
                    else:
                        assert type(tips) is SortedTips
                        assert SortedTips(tuple(tips)) == tips


def test_partial_clips_share_the_blocks_tip_objects():
    # ints above 256 are not cached by the interpreter, so one object for
    # a tip in two clips shows both were cut from the grid's one tuple
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    first = spatial._clip_tips(grid, (50, 70, 2, 6))
    second = spatial._clip_tips(grid, (55, 79, 3, 8))
    assert type(first) is type(second) is SortedTips
    held = {tip: tip for tip in first}
    shared = [tip for tip in second if tip > 256 and tip in held]
    # both hold local rows 4..6 (tips 241..480) at columns 55..70
    assert len(shared) == 3 * 16
    assert all(held[tip] is tip for tip in shared)


def test_compile_sp_builds_each_clip_tip_set_once():
    # the 10% square query overlaps 676 blocks but has at most nine
    # distinct clips, so its plan holds about one tip-set object per
    # scan; a set built per block gives hundreds
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    qr = gen_query_region(SPACE, 0.1, 1.0, seed=0)
    assert len(query_block_set(grid, qr)) == 676
    plan = compile_sp(grid, qr)
    assert len(plan.scans) == 24
    assert len({id(tips) for tips in _tip_sets(plan)}) <= len(plan.scans) + 10


def test_compile_sp_cuts_each_clip_layer_once_at_a_default_point():
    # exp4's aspect-8 point: on 320x20 blocks its edge clips hold up to
    # 6140 tips, five layers of 1280, so most of its scans read layers cut
    # from partial clips; each clip is cut once per layer for all its
    # blocks, so the plan holds few distinct sets, each a range or a
    # SortedTips
    grid = build_block_grid(CMU, SPACE, ratio=8)
    qr = gen_query_region(SPACE, 0.01, 8, seed=0)
    full = grid.B_x * grid.B_y
    assert max(size for _, (la, lb, ya, yb) in query_block_set(grid, qr)
               if (size := (lb - la + 1) * (yb - ya + 1)) < full) == 6140
    plan = compile_sp(grid, qr)
    assert len(plan.scans) == 15
    assert sum(len(scan.tips) <= CMU.n_active_tips for scan in plan.scans) == 13
    sets = {id(tips): tips for tips in _tip_sets(plan)}
    # nine clips at most, each cut into at most five layers, and the gap
    assert len(sets) <= 9 * math.ceil(CMU.n_regions / CMU.n_active_tips) + 1
    assert all(type(tips) in (range, SortedTips) for tips in sets.values() if tips)


def test_equal_layers_of_different_clips_are_not_overrides():
    # one row of two 4x2 blocks: the query holds the first block's top row,
    # tips 1-4, and tips 1-2 of the second.  With one active tip both
    # blocks' first two layers are the same tip, so the second block
    # overrides none of them
    dev = DeviceParams(regions_x=4, regions_y=2, sectors_x=4, sectors_y=4,
                       n_active_tips=1)
    grid = build_block_grid(dev, SpatialSpace(width=8, height=2), ratio=2.0)
    plan = compile_sp(grid, region(1, 1, 6, 1))
    assert plan_to_text(plan) == "scan 1 2 1\nscan 1 2 2\nscan 1 1 3\nscan 1 1 4\n"


# -- block-plan pins -----------------------------------------------------------
#
# sha256 of the plans' text form and of their `Timing`s.  A change to how
# block plans are built must keep them all.

def _plan_digests(plans, dev):
    plans = list(plans)
    text = "".join(map(plan_to_text, plans))
    timings = "".join(repr(Emulator(dev).execute(plan)) for plan in plans)
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(timings.encode()).hexdigest())


@pytest.mark.parametrize("points, plan_digest, timing_digest", [
    ([(frac, 1.0) for frac in bench.QUERY_FRACS],
     "0ec1ba5c9919b9ff4b86d78f6cb6a6ece4824c8bfe7b73e6146e6360f2dd8f9b",
     "063cbc307e9f81a8b6254533228270743845aeaf7fc21da6995de930b1a2a6a0"),
    ([(0.01, aspect) for aspect in bench.ASPECTS],
     "1345e2f560cf8888ec66bcddff1991b3b854c8704956e1c5273b6dd09f76a200",
     "9ecbb157759c92898285a44e0b4781d293d1e29004f32cb78f46e1555f55d45b"),
], ids=["experiment-3", "experiment-4"])
def test_default_sweep_block_plans_pinned(points, plan_digest, timing_digest):
    # every default query of the spatial sweeps, seeds 0-5, on the
    # reference device: full blocks, partial clips many layers deep and
    # streamed rank gaps
    plans = [compile_sp(build_block_grid(CMU, SPACE, aspect),
                        gen_query_region(SPACE, frac, aspect, seed=seed))
             for frac, aspect in points for seed in range(6)]
    assert _plan_digests(plans, CMU) == (plan_digest, timing_digest)


# the byte-level readback geometry: 8x8 tips with 16 active, 20x5 sectors
# and a 64x64 space, with every one of its query widths and heights
READBACK = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                        n_active_tips=16)
READBACK_EXTENTS = (1, 2, 5, 9, 16, 24, 40, 70)


def test_readback_block_plans_pinned():
    # origins inside the space and near its far edge, so partial clips of
    # every shape reach the layered branch and wide queries are cut off
    grid = build_block_grid(READBACK, SpatialSpace(width=64, height=64), 1.0)
    plans = [compile_sp(grid, region(x0, y0, qx, qy))
             for x0, y0 in ((1, 1), (4, 13), (29, 38), (57, 60), (64, 62))
             for qx in READBACK_EXTENTS for qy in READBACK_EXTENTS]
    assert _plan_digests(plans, READBACK) == (
        "3b5f2e0011523025ed9d1ca66444703a7a06bb0580410b04c12806d9f184ade3",
        "2b0b7382be9534884c9f5c594b2809fb9b24d00a6ba33f0cf1d7b8baeaad1d8d")


def test_query_region_validation():
    with pytest.raises(ValueError):
        QueryRegion(x0=0, y0=1, qx=5, qy=5)
    with pytest.raises(ValueError):
        QueryRegion(x0=1, y0=1, qx=-1, qy=5)
