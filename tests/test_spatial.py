"""Spatial placements: space mapping, block grid, curve orders, compilers."""

import math
from dataclasses import replace

import pytest

from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator, MediaImage
from memsrs.rs import PhysAddr, rs_to_mems
from memsrs.spatial import (
    BlockGrid,
    QueryRegion,
    SpatialSpace,
    SSYLayout,
    build_block_grid,
    compile_sp,
    compile_ssy,
    k_values_sp,
    map_sp,
    query_block_set,
    write_image_sp,
    write_image_ssy,
)

CMU = cmu_defaults()
TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)
SPACE = SpatialSpace(width=6400, height=6400, obj_bits=64)


def region(x0, y0, qx, qy):
    return QueryRegion(x0=x0, y0=y0, qx=qx, qy=qy)


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
    assert lay.map_phys(100, 200) == PhysAddr(20, 2, 8, 17)
    assert lay.map_phys(1, 1) == PhysAddr(1, 1, 1, 1)


def test_map_ssy_phys_matches_composition_sampled():
    import random
    lay = SSYLayout(CMU, SPACE)
    rng = random.Random(17)
    for _ in range(5000):
        x, y = rng.randint(1, 6400), rng.randint(1, 6400)
        assert lay.map_phys(x, y) == rs_to_mems(lay.map(x, y), CMU)
    # stacked components wrap into deeper sector rows
    small = SSYLayout(TINY, SpatialSpace(width=12, height=5, obj_bits=64))
    for x in range(1, 13):
        for y in range(1, 6):
            assert small.map_phys(x, y) == rs_to_mems(
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
    assert (grid.G_x, grid.G_y) == (80, 80)
    assert grid.n_blocks == 6400


def test_block_grid_quarter_ratio():
    grid = build_block_grid(CMU, SPACE, ratio=0.25)
    assert (grid.B_x, grid.B_y) == (40, 160)


def test_block_grid_tie_breaks_wider():
    # ratio 2 sits exactly between the 1 and 4 ratio pairs
    grid = build_block_grid(CMU, SPACE, ratio=2.0)
    assert (grid.B_x, grid.B_y) == (160, 40)


def test_hilbert_order_small_oracle():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=4, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=4, height=4, obj_bits=64),
                            ratio=1.0)
    assert grid.order == ((1, 1), (1, 2), (2, 2), (2, 1))


def test_zorder_small_oracle():
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=4, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=4, height=4, obj_bits=64),
                            ratio=1.0, curve="zorder")
    assert grid.order == ((1, 1), (2, 1), (1, 2), (2, 2))


def test_hilbert_consecutive_blocks_are_adjacent():
    # the adjacency guarantee holds on power-of-two square grids
    dev = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                       n_active_tips=16)
    grid = build_block_grid(dev, SpatialSpace(width=64, height=64, obj_bits=64),
                            ratio=1.0)
    assert (grid.G_x, grid.G_y) == (8, 8)
    prev = grid.order[0]
    for cell in grid.order[1:]:
        assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
        prev = cell


def test_hilbert_order_is_a_permutation_at_cmu_scale():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    assert sorted(grid.order) == [(x, y) for x in range(1, 81) for y in range(1, 81)]


def test_padded_grid_covers_every_block_once():
    # 4x2 block grid runs the curve on a padded 4x4 square
    dev = DeviceParams(regions_x=2, regions_y=2, sectors_x=10, sectors_y=3,
                       n_active_tips=4)
    grid = build_block_grid(dev, SpatialSpace(width=16, height=2, obj_bits=64),
                            ratio=4.0)
    assert (grid.B_x, grid.B_y) == (4, 1)
    assert (grid.G_x, grid.G_y) == (4, 2)
    assert sorted(grid.order) == [(x, y) for x in range(1, 5) for y in range(1, 3)]


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
    assert (grid.G_x, grid.G_y) == (g_x, g_y)
    assert grid.order == _walk_order(curve, g_x, g_y)
    assert grid.rank == {cell: i + 1 for i, cell in enumerate(grid.order)}


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


@pytest.mark.parametrize("rx, ry", [(1, 3), (3, 2), (3, 4)])
def test_block_grid_without_power_of_two_shape_names_region_count(rx, ry):
    # 3, 6 and 12 regions: no factor pair has a power-of-two ratio
    dev = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=8, sectors_y=4,
                       n_active_tips=1)
    space = SpatialSpace(width=rx * ry, height=rx * ry, obj_bits=64)
    with pytest.raises(ValueError, match=f"no block shape for {rx * ry} regions"):
        build_block_grid(dev, space, ratio=1.0)


def test_map_sp_row_major_within_block():
    grid = build_block_grid(CMU, SPACE, ratio=1.0)
    first = map_sp(grid, 1, 1)
    assert (first.region, first.sector) == (1, 1)
    assert map_sp(grid, 1, 2).region == 81
    a = map_sp(grid, 5, 7)
    b = map_sp(grid, 6, 7)
    assert a.sector == b.sector and a.region != b.region


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
    ci = k_values_sp(grid, region(81, 1, 80, 80))
    assert ci.k_random == 1  # one block touched
    assert ci.bits == 6400 * 64
    assert ci.k_parallel == 1280.0
    corner = k_values_sp(grid, region(41, 41, 64, 64))
    assert corner.k_random == 4


def test_query_region_validation():
    with pytest.raises(ValueError):
        QueryRegion(x0=0, y0=1, qx=5, qy=5)
    with pytest.raises(ValueError):
        QueryRegion(x0=1, y0=1, qx=-1, qy=5)
