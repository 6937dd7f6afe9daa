"""Linear block abstraction and the row-store / column-store baselines."""

import math

import pytest

from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator, MediaImage
from memsrs.linear import (
    DsmLayout,
    LinearMap,
    NsmLayout,
    compile_dsm,
    compile_nsm,
    lba_to_plan,
    write_image_dsm,
    write_image_nsm,
)
from memsrs.relational import RangeQuery, RelationSchema

CMU = cmu_defaults()
# small geometry where every address can be checked by hand; three tip
# groups of three tips each, twelve sector rows per region
TINY9 = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                     n_active_tips=3)
# reduced geometry sized so relations of a few dozen tuples fill whole blocks
RED = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                   n_active_tips=16)

ST = CMU.sector_bits / CMU.tip_rate_bits_s


def query(nproj, k=16):
    return RangeQuery(projected=tuple(range(1, nproj + 1)), predicate_attr=1,
                      bound=1_000_000, selectivity=0.1)


# -- linear map -----------------------------------------------------------

def test_linear_map_cmu_shape():
    lm = LinearMap(CMU)
    assert lm.block_bits == 1280 * 64
    assert lm.tip_groups == 5
    assert lm.lba_count == 5 * 67500


def test_linear_map_requires_divisible_tip_count():
    with pytest.raises(ValueError):
        LinearMap(DeviceParams(regions_x=3, regions_y=3, sectors_x=4,
                               sectors_y=3, n_active_tips=4))


# -- lba_to_plan ----------------------------------------------------------

def test_one_group_one_column_is_one_scan():
    lm = LinearMap(CMU)
    plan = lba_to_plan(lm, 1, 27)
    assert len(plan.scans) == 1
    sc = plan.scans[0]
    assert (sc.start, sc.length) == (1, 27)
    assert list(sc.tips) == list(range(1, 1281))
    t = Emulator(CMU).execute(plan)
    assert t.n_seeks == 1
    assert t.seek_s == 0.0  # starts at the home position
    assert t.n_row_steps == 27


def test_group_switch_costs_only_a_reversal():
    lm = LinearMap(CMU)
    plan = lba_to_plan(lm, 1, 135)  # all five groups of column one
    assert len(plan.scans) == 5
    assert plan.scans[1].tips[0] == 1281
    t = Emulator(CMU).execute(plan)
    assert t.seek_s == 0.0
    assert t.settle_s == 0.0
    assert t.turnaround_s == pytest.approx(4 * CMU.turnaround_time_s)
    assert t.n_row_steps == 135


def test_column_advance_costs_one_settle():
    # five ping-pong passes leave the sled at the column foot, so the
    # next column starts in the adjacent position: a settle, no Y move
    lm = LinearMap(CMU)
    t = Emulator(CMU).execute(lba_to_plan(lm, 1, 270))
    assert t.seek_s == pytest.approx(CMU.settle_time_s)
    assert t.turnaround_s == pytest.approx(8 * CMU.turnaround_time_s)
    assert t.n_row_steps == 270


def test_mid_column_run_maps_by_hand():
    lm = LinearMap(CMU)
    # block 30 sits in column 1, group 2, row 3
    plan = lba_to_plan(lm, 30, 11)
    assert len(plan.scans) == 1
    sc = plan.scans[0]
    assert (sc.start, sc.length) == (3, 11)
    assert list(sc.tips) == list(range(1281, 2561))


def test_lba_bounds_and_empty():
    lm = LinearMap(CMU)
    assert lba_to_plan(lm, 5, 0).scans == []
    with pytest.raises(ValueError):
        lba_to_plan(lm, 0, 1)
    with pytest.raises(ValueError):
        lba_to_plan(lm, lm.lba_count, 2)


def test_whole_device_touches_every_sector_once():
    lm = LinearMap(TINY9)
    plan = lba_to_plan(lm, 1, lm.lba_count)
    seen = set()
    for sc in plan.scans:
        assert sc.per_row_tips is None
        for s in range(sc.start, sc.start + sc.length):
            for tip in sc.tips:
                pair = (tip, s)
                assert pair not in seen
                seen.add(pair)
    assert len(seen) == 9 * 12  # every tip sector exactly once


def test_full_device_settle_count_beats_multipass():
    # the linear order pays one settle per column advance; reading the
    # same media through the region-sector full read repeats the column
    # walk once per tip-group pass
    lm = LinearMap(TINY9)
    t = Emulator(TINY9).execute(lba_to_plan(lm, 1, lm.lba_count))
    assert t.seek_s == pytest.approx(3 * TINY9.settle_time_s)  # 4 columns
    groups = 3
    rs_settles = (TINY9.sectors_x - 1) * groups
    assert rs_settles > 3


# -- row-store baseline ---------------------------------------------------

def test_nsm_block_count_320mb():
    n = 320 * 2**20 // (16 * 8)
    layout = NsmLayout(CMU, RelationSchema(k=16, n=n))
    assert layout.tuples_per_block == 80
    assert layout.n_blocks == 32768


def test_nsm_reads_whole_relation_regardless_of_query():
    n = 320 * 2**20 // (16 * 8)
    layout = NsmLayout(CMU, RelationSchema(k=16, n=n))
    p1 = compile_nsm(layout, query(1))
    p16 = compile_nsm(layout, query(16))
    assert p1 == p16
    t = Emulator(CMU).execute(p1)
    assert t.n_sectors == 32768 * 1280


def test_nsm_320mb_timing_by_hand():
    # 32768 blocks: 242 full columns of 135 plus 98 leftover blocks.
    # Transfer 32768 row-steps; one settle per column advance; within a
    # column, one reversal between consecutive full group scans. The
    # last group holds 17 of 27 blocks, so its scan is entered from the
    # nearer interior row: a Y move with turnaround, not a reversal.
    n = 320 * 2**20 // (16 * 8)
    layout = NsmLayout(CMU, RelationSchema(k=16, n=n))
    t = Emulator(CMU).execute(compile_nsm(layout, query(8)))
    assert len(compile_nsm(layout, query(8)).scans) == 242 * 5 + 4
    expected = (32768 * ST
                + 242 * CMU.settle_time_s
                + (CMU.move_y_s + CMU.turnaround_time_s)
                + (242 * 4 + 2) * CMU.turnaround_time_s)
    assert t.total_s == pytest.approx(expected, rel=1e-9)
    assert t.total_s == pytest.approx(3.10657142857, rel=1e-9)


def test_nsm_capacity_error():
    # 337500 blocks of 80 tuples fill the device at 27,000,000 tuples
    with pytest.raises(ValueError):
        NsmLayout(CMU, RelationSchema(k=16, n=27_000_001))


def test_nsm_read_back_with_slack_zeros():
    schema = RelationSchema(k=4, n=37)
    layout = NsmLayout(RED, schema)
    assert layout.tuples_per_block == 4
    assert layout.n_blocks == 10
    im = MediaImage(RED)
    write_image_nsm(layout, im, lambda t, w: bytes([t, w, 0, 0, 0, 0, 0, 0]))
    _, data = Emulator(RED).read(compile_nsm(layout, query(4, k=4)), im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = [bytes([t, w, 0, 0, 0, 0, 0, 0])
                for t in range(1, 38) for w in range(1, 5)]
    expected += [bytes(8)] * (10 * 16 - len(expected))
    assert cells == sorted(expected)


# -- column-store baseline ------------------------------------------------

def test_dsm_blocks_per_attribute():
    n = 320 * 2**20 // (16 * 8)
    layout = DsmLayout(CMU, RelationSchema(k=16, n=n))
    assert layout.values_per_block == 1280
    assert layout.blocks_per_attr == 2048


def test_dsm_single_attribute_volume():
    n = 320 * 2**20 // (16 * 8)
    layout = DsmLayout(CMU, RelationSchema(k=16, n=n))
    t = Emulator(CMU).execute(compile_dsm(layout, query(1)))
    assert t.n_sectors == 2048 * 1280  # one sub-relation of blocks


def test_dsm_adjacent_attributes_merge_into_one_run():
    n = 320 * 2**20 // (16 * 8)
    layout = DsmLayout(CMU, RelationSchema(k=16, n=n))
    p = compile_dsm(layout, query(8))
    # blocks 1..16384 contiguous: 121 full columns plus 49 blocks
    assert len(p.scans) == 121 * 5 + 2
    t = Emulator(CMU).execute(p)
    assert t.n_sectors == 8 * 2048 * 1280


def test_dsm_full_projection_equals_row_store_plan():
    n = 320 * 2**20 // (16 * 8)
    nsm = NsmLayout(CMU, RelationSchema(k=16, n=n))
    dsm = DsmLayout(CMU, RelationSchema(k=16, n=n))
    assert compile_dsm(dsm, query(16)) == compile_nsm(nsm, query(16))


def test_dsm_read_back_non_adjacent_attributes():
    schema = RelationSchema(k=4, n=37)
    layout = DsmLayout(RED, schema)
    assert layout.blocks_per_attr == 3
    im = MediaImage(RED)
    write_image_dsm(layout, im, lambda t, w: bytes([t, w, 0, 0, 0, 0, 0, 0]))
    q = RangeQuery(projected=(2, 4), predicate_attr=2, bound=1_000_000,
                   selectivity=0.1)
    plan = compile_dsm(layout, q)
    assert len(plan.scans) == 4  # two runs of three blocks, split by groups
    _, data = Emulator(RED).read(plan, im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = [bytes([t, w, 0, 0, 0, 0, 0, 0])
                for t in range(1, 38) for w in (2, 4)]
    expected += [bytes(8)] * (2 * 3 * 16 - len(expected))
    assert cells == sorted(expected)


def test_dsm_projection_wider_than_schema_rejected():
    layout = DsmLayout(CMU, RelationSchema(k=16, n=40960))
    q = RangeQuery(projected=(1, 17), predicate_attr=1, bound=0, selectivity=0.1)
    with pytest.raises(ValueError, match="projected attribute 17 exceeds schema k=16"):
        compile_dsm(layout, q)


def test_dsm_capacity_error():
    with pytest.raises(ValueError):
        DsmLayout(RED, RelationSchema(k=4, n=2000))
