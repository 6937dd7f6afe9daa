"""Linear block abstraction and the row-store / column-store baselines."""

import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator, MediaImage, plan_to_text
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
from tests.oracles import per_block_plan

CMU = cmu_defaults()
# small geometry where every address can be checked by hand; three tip
# groups of three tips each, twelve sector rows per region
TINY9 = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                     n_active_tips=3)
# reduced geometry sized so relations of a few dozen tuples fill whole blocks
RED = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                   n_active_tips=16)
# every tip in one group: each column is one group's whole run
ONE_GROUP = DeviceParams(regions_x=2, regions_y=2, sectors_x=3, sectors_y=4,
                         n_active_tips=4)

ST = CMU.sector_bits / CMU.tip_rate_bits_s


def query(nproj, k=16):
    return RangeQuery(projected=tuple(range(1, nproj + 1)), predicate_attr=1,
                      bound=1_000_000, selectivity=0.1)


# -- linear map -----------------------------------------------------------

def test_linear_map_cmu_shape():
    lm = LinearMap(CMU)
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



@pytest.mark.parametrize("lba, message", [
    (2.5, "block address must be an integer, got 2.5"),
    (3.0, "block address must be an integer, got 3.0"),
    (True, "block address must be an integer, got True"),
    ("3", "block address must be an integer, got '3'"),
], ids=["float", "integral-float", "bool", "str"])
def test_locate_rejects_a_non_integer_address_by_name(lba, message):
    # 2.5 used to locate as (1.0, 1.0, 2.5)
    lm = LinearMap(TINY9)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lm.locate(lba)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lm.block_cells(lba)


@pytest.mark.parametrize("start, length, message", [
    (1, 2.5, "block run length must be an integer, got 2.5"),
    (1, 27.0, "block run length must be an integer, got 27.0"),
    (1, True, "block run length must be an integer, got True"),
    (True, 2, "block address must be an integer, got True"),
    (1.0, 27, "block address must be an integer, got 1.0"),
    (2.5, 0, "block address must be an integer, got 2.5"),
], ids=["length-float", "length-integral-float", "length-bool",
        "start-bool", "start-integral-float", "start-float-empty-run"])
def test_lba_to_plan_rejects_non_integer_fields_by_name(start, length,
                                                        message):
    # (1, 2.5) used to plan a 2.5-row scan, (1, 27.0) and (True, 2) were
    # planned as ints, and (1.0, 27) raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lba_to_plan(LinearMap(CMU), start, length)


def _check_against_per_block_plan(dev, start, length):
    lm = LinearMap(dev)
    plan = lba_to_plan(lm, start, length)
    assert ([(sc.start, sc.length, tuple(sc.tips)) for sc in plan.scans]
            == per_block_plan(lm, start, length))
    # every scan of a group reads that group's one shared set
    assert all(any(sc.tips is tips for tips in lm.group_tips)
               for sc in plan.scans)


@pytest.mark.parametrize("dev, start, length", [
    (ONE_GROUP, 1, 12),    # one group: a scan per column, the whole device
    (ONE_GROUP, 3, 7),     # starts and ends mid-column across three columns
    (TINY9, 2, 5),         # starts and ends mid-column, two groups
    (TINY9, 8, 4),         # last group's foot into the next column's head
    (TINY9, 9, 19),        # from the last block of a column, three columns on
    (RED, 17, 1),          # one block at a group's foot
], ids=["one-group-whole", "one-group-mid", "mid-column", "last-group-to-next",
        "column-foot-on", "single-block"])
def test_lba_to_plan_matches_per_block_plan(dev, start, length):
    _check_against_per_block_plan(dev, start, length)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dev=st.sampled_from((ONE_GROUP, TINY9, RED)))
def test_lba_to_plan_matches_per_block_plan_on_any_run(data, dev):
    count = LinearMap(dev).lba_count
    start = data.draw(st.integers(1, count), label="start")
    length = data.draw(st.integers(0, count - start + 1), label="length")
    _check_against_per_block_plan(dev, start, length)

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
    assert layout.records_per_block == 80
    assert layout.sub_blocks == 32768


def test_nsm_reads_whole_relation_regardless_of_query():
    n = 320 * 2**20 // (16 * 8)
    layout = NsmLayout(CMU, RelationSchema(k=16, n=n))
    t = Emulator(CMU).execute(compile_nsm(layout))
    assert t.n_sectors == 32768 * 1280


def test_nsm_320mb_timing_by_hand():
    # 32768 blocks: 242 full columns of 135 plus 98 leftover blocks.
    # Transfer 32768 row-steps; one settle per column advance; within a
    # column, one reversal between consecutive full group scans. The
    # last group holds 17 of 27 blocks, so its scan is entered from the
    # nearer interior row: a Y move with turnaround, not a reversal.
    n = 320 * 2**20 // (16 * 8)
    layout = NsmLayout(CMU, RelationSchema(k=16, n=n))
    t = Emulator(CMU).execute(compile_nsm(layout))
    assert len(compile_nsm(layout).scans) == 242 * 5 + 4
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
    assert layout.records_per_block == 4
    assert layout.sub_blocks == 10
    im = MediaImage(RED)
    write_image_nsm(layout, im, lambda t, w: bytes([t, w, 0, 0, 0, 0, 0, 0]))
    _, data = Emulator(RED).read(compile_nsm(layout), im)
    cells = sorted(data[i:i + 8] for i in range(0, len(data), 8))
    expected = [bytes([t, w, 0, 0, 0, 0, 0, 0])
                for t in range(1, 38) for w in range(1, 5)]
    expected += [bytes(8)] * (10 * 16 - len(expected))
    assert cells == sorted(expected)


# -- column-store baseline ------------------------------------------------

def test_dsm_blocks_per_attribute():
    n = 320 * 2**20 // (16 * 8)
    layout = DsmLayout(CMU, RelationSchema(k=16, n=n))
    assert layout.records_per_block == 1280
    assert layout.sub_blocks == 2048


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
    assert compile_dsm(dsm, query(16)) == compile_nsm(nsm)


def test_dsm_read_back_non_adjacent_attributes():
    schema = RelationSchema(k=4, n=37)
    layout = DsmLayout(RED, schema)
    assert layout.sub_blocks == 3
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


# -- plan pins ------------------------------------------------------------
#
# sha256 of the plans' text form and of their `Timing`s, on the reference
# device at every projection width.  A change to how block plans are
# built must keep both.

@pytest.mark.parametrize("cls, size_mb, plan_digest, timing_digest", [
    (NsmLayout, 5,
     "1189692bf2e99b4b81b57e5e08ead27cc09d03bd33665472c500d64bd2669ef3",
     "55490a445925a79b2df8eabddd02f6d7d4b5d50d255e873b5f028094a24cfe4a"),
    (NsmLayout, 320,
     "c40bb8d6fadafaebca21ef376fad470c5b066eeea8f06c2054c7fe1a7cfc7793",
     "7af441045bad202defcc64b425232d9d9c6c7ee809b7d78659f82b57d1f51004"),
    (DsmLayout, 5,
     "451b317e46242d58ef073742889780dd816fccae49090d9ec6226d9b61fb574f",
     "ee5790649543fd1aa2f4e73bcdd2ff79d5c38bbf2221b23643da15f4f3a06dba"),
    (DsmLayout, 320,
     "9c1dab2f3c136f08d8abfcd5809910cdec6770fea22fd8f1600fed3fd31ee9ee",
     "5cdfc9b32cadf11e8702975c7f13fe09ad158923f4fd0567fa5ffa5f97727bf6"),
], ids=["nsm-5", "nsm-320", "dsm-5", "dsm-320"])
def test_packed_plans_pinned(cls, size_mb, plan_digest, timing_digest):
    layout = cls(CMU, RelationSchema(k=16, n=size_mb * 2**20 // 128))
    plans = [layout.compile(query(w)) for w in range(1, 17)]
    text = "".join(map(plan_to_text, plans))
    timings = "".join(repr(Emulator(CMU).execute(p)) for p in plans)
    assert hashlib.sha256(text.encode()).hexdigest() == plan_digest
    assert hashlib.sha256(timings.encode()).hexdigest() == timing_digest
