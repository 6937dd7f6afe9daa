"""Timing semantics of the physical-access emulator."""

import copy
import math
import operator
import pickle
import re
import struct
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsrs import emulator
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import (
    SEEK_MODELS,
    AccessPlan,
    Emulator,
    MediaImage,
    RowTips,
    Scan,
    SledState,
    SortedTips,
    _check_tips,
    _lin,
    _rle,
    plan_from_text,
    plan_to_text,
)
from memsrs.relational import RelationSchema, RelLayoutRP
from memsrs.rs import shift_scans
from memsrs.workload import Relation
from tests.oracles import dict_read_cells, row_tips_summary

CMU = cmu_defaults()
SECTOR = 64 / 0.7e6

TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)


# -- seek model ---------------------------------------------------------

def reposition_s(state, col, row, model="average"):
    """Repositioning charge of a one-row scan at physical (col, row)."""
    scan = Scan(tips=(1,), start=_lin(col, row, CMU.sectors_y), length=1)
    em = Emulator(CMU, model)
    em.state = state
    t = em.execute(AccessPlan([scan]))
    return t.seek_s + t.turnaround_s


def test_seek_no_movement_is_free():
    assert reposition_s(SledState(col=7, row=3, y_dir=1), 7, 3) == 0.0


def test_seek_col_and_row_change():
    # far column move: X move + settle dominates the Y move
    t = reposition_s(SledState(col=1, row=1, y_dir=1), 100, 20)
    assert t == max(0.52e-3 + 0.215e-3, 0.35e-3)
    assert t == 0.735e-3


def test_seek_same_col_reversal():
    # moving back up the column against the current direction
    t = reposition_s(SledState(col=5, row=20, y_dir=1), 5, 3)
    assert t == 0.35e-3 + 0.06e-3


def test_seek_adjacent_column_costs_settle():
    t = reposition_s(SledState(col=5, row=20, y_dir=1), 6, 20)
    assert t == 0.215e-3


def test_seek_distance_model():
    st_ = SledState(col=1, row=1, y_dir=1)
    t = reposition_s(st_, 1 + CMU.sectors_x // 2, 1, model="distance")
    expected = 3 * 0.52e-3 * (CMU.sectors_x // 2) / CMU.sectors_x + 0.215e-3
    assert math.isclose(t, expected, rel_tol=1e-12)


# -- execute ------------------------------------------------------------

def test_single_scan_example():
    # 64 tips over 64 consecutive rows inside one far column
    p = DeviceParams(sectors_y=64)
    em = Emulator(p)
    scan = Scan(tips=tuple(range(1, 65)), start=3 * 64 + 1, length=64)
    t = em.execute(AccessPlan([scan]))
    assert t.seek_s == 0.735e-3
    assert math.isclose(t.transfer_s, 64 * SECTOR, rel_tol=1e-12)
    assert t.settle_s == 0.0
    assert math.isclose(t.total_s, 6.587e-3, abs_tol=1e-6)


def test_full_region_single_tip():
    em = Emulator(CMU)
    t = em.execute(AccessPlan([Scan(tips=(1,), start=1, length=67500)]))
    assert math.isclose(t.transfer_s, 4_320_000 / 0.7e6, rel_tol=1e-12)
    assert math.isclose(t.settle_s, 2499 * 0.215e-3, rel_tol=1e-12)
    assert t.seek_s == 0.0 and t.turnaround_s == 0.0
    assert t.n_seeks == 1
    assert t.n_row_steps == 67500
    assert t.n_sectors == 67500


def test_full_region_matches_streaming_rate_denominator():
    # starting one column over, the entry seek costs exactly one settle,
    # completing the sectors_x-settles identity
    em = Emulator(CMU)
    em.state = SledState(col=2, row=1, y_dir=1)
    t = em.execute(AccessPlan([Scan(tips=(1,), start=1, length=67500)]))
    denominator = CMU.region_bits / CMU.tip_rate_bits_s + CMU.sectors_x * CMU.settle_time_s
    assert abs(t.total_s - denominator) < 1e-9


def test_mid_scan_column_crossing_settles_without_turnaround():
    em = Emulator(CMU)
    t = em.execute(AccessPlan([Scan(tips=(1,), start=27, length=2)]))
    assert t.settle_s == 0.215e-3
    assert t.turnaround_s == 0.0
    # serpentine: now on the even column heading back up
    assert em.state.col == 2 and em.state.row == 27 and em.state.y_dir == -1


def test_successive_scans_alternate_direction():
    em = Emulator(CMU)
    scan = Scan(tips=(1,), start=1, length=54)
    t = em.execute(AccessPlan([scan, scan]))
    # second scan starts where the first ended: pure reversal, no seek
    assert t.seek_s == 0.0
    assert t.turnaround_s == 0.06e-3
    assert math.isclose(t.settle_s, 2 * 0.215e-3, rel_tol=1e-12)
    assert t.n_seeks == 2


def test_row_needing_more_tips_than_active_limit_takes_extra_passes():
    em = Emulator(CMU)
    t = em.execute(AccessPlan([Scan(tips=tuple(range(1, 6401)), start=1, length=1)]))
    assert t.n_row_steps == 5  # ceil(6400/1280) passes over the one row
    assert math.isclose(t.transfer_s, 5 * SECTOR, rel_tol=1e-12)
    assert t.n_sectors == 6400
    assert t.n_seeks == 1 and t.seek_s == 0.0


def test_empty_activation_rows_still_step():
    em = Emulator(CMU)
    t = em.execute(AccessPlan([Scan(tips=(), start=5, length=10)]))
    assert math.isclose(t.transfer_s, 10 * SECTOR, rel_tol=1e-12)
    assert t.n_sectors == 0
    assert t.n_row_steps == 10


def test_per_row_overrides_replace_default_tips():
    em = Emulator(CMU)
    scan = Scan(tips=(1, 2, 3), start=1, length=3,
                per_row_tips={2: (7,), 3: ()})
    t = em.execute(AccessPlan([scan]))
    assert t.n_sectors == 3 + 1 + 0
    assert t.n_row_steps == 3


def test_empty_plan_costs_nothing():
    t = Emulator(CMU).execute(AccessPlan([]))
    assert t.total_s == 0.0 and t.n_seeks == 0


def test_timing_decomposition_and_determinism():
    plan = AccessPlan([
        Scan(tips=(1, 5), start=10, length=40),
        Scan(tips=(2,), start=100, length=3),
        Scan(tips=(2,), start=100, length=3),
    ])
    a = Emulator(CMU).execute(plan)
    b = Emulator(CMU).execute(plan)
    assert a == b
    assert a.total_s == a.seek_s + a.transfer_s + a.settle_s + a.turnaround_s


def test_scan_bounds_rejected():
    em = Emulator(CMU)
    with pytest.raises(ValueError):
        em.execute(AccessPlan([Scan(tips=(1,), start=0, length=1)]))
    with pytest.raises(ValueError):
        em.execute(AccessPlan([Scan(tips=(1,), start=67500, length=2)]))
    with pytest.raises(ValueError):
        em.execute(AccessPlan([Scan(tips=(0,), start=1, length=1)]))
    with pytest.raises(ValueError):
        em.execute(AccessPlan([Scan(tips=(6401,), start=1, length=1)]))


# the second scan is invalid; the first must not have been run
_STRAY_TIP = AccessPlan([Scan(tips=(1,), start=500, length=3),
                         Scan(tips=(0,), start=1, length=1)])


@pytest.mark.parametrize("call, plan, image, message", [
    ("execute", _STRAY_TIP, None, r"^tip 0 out of range 1\.\.6400$"),
    ("read", _STRAY_TIP, MediaImage(CMU), r"^tip 0 out of range 1\.\.6400$"),
    # a plan or image of another type failed on a bare AttributeError
    ("execute", [Scan(tips=(1,), start=500, length=3)], None,
     r"^plan must be an AccessPlan, got list$"),
    ("read", [Scan(tips=(1,), start=500, length=3)], MediaImage(CMU),
     r"^plan must be an AccessPlan, got list$"),
    ("read", AccessPlan([Scan(tips=(1,), start=500, length=3)]), "image",
     r"^media must be a MediaImage, got str$"),
    # the image is checked before the first scan, so it is named first
    ("read", _STRAY_TIP, "image", r"^media must be a MediaImage, got str$"),
    ("read", _STRAY_TIP, MediaImage(replace(CMU, sectors_x=2)),
     r"^media image of 6400 regions x 54 rows does not cover"),
], ids=["execute", "read", "execute-list-plan", "read-list-plan",
        "read-str-image", "read-str-image-stray-tip", "read-small-image-stray-tip"])
def test_rejected_plan_leaves_the_sled_in_place(call, plan, image, message):
    em = Emulator(CMU)
    with pytest.raises(ValueError, match=message):
        if call == "execute":
            em.execute(plan)
        else:
            em.read(plan, image)
    assert em.state == SledState()


def test_scan_checks_run_in_order():
    # the first failing check in plan order wins: scan 2's default tips,
    # not its override row or scan 3's rows
    plan = AccessPlan([Scan(tips=(1,), start=1, length=1),
                       Scan(tips=(0,), start=1, length=2, per_row_tips={5: (1,)}),
                       Scan(tips=(1,), start=0, length=1)])
    with pytest.raises(ValueError, match=r"^tip 0 out of range 1\.\.6400$"):
        Emulator(CMU).execute(plan)


# 3x3 regions, 4 columns of 3 rows, 3 active tips
TINY3 = replace(TINY, n_active_tips=3)


@pytest.mark.parametrize("call", ["execute", "read"])
@pytest.mark.parametrize("scan, message", [
    # each used to be priced (2.5 row steps, 2.0 from a 1.5 start, tip
    # 1.5 as a sector) or to fail inside `read` with a bare TypeError
    (Scan((1,), 1, 2.5), r"^scan length must be an integer, got 2\.5$"),
    (Scan((1,), 1, True), r"^scan length must be an integer, got True$"),
    (Scan((1,), 1.5, 2), r"^scan start must be an integer, got 1\.5$"),
    (Scan((1,), 1.0, 1), r"^scan start must be an integer, got 1\.0$"),
    (Scan((1,), True, 1), r"^scan start must be an integer, got True$"),
    (Scan((1,), 1, 3, {1: (2,), 2.0: (1,), 3: ()}),
     r"^override row must be an integer, got 2\.0$"),
    (Scan((1,), 1, 3, {True: (1,)}),
     r"^override row must be an integer, got True$"),
    (Scan((1.5,), 1, 1), r"^tip 1\.5 is not an integer$"),
    (Scan((1,), 1, 3, {2: (1, 2.5, 3)}), r"^tip 2\.5 is not an integer$"),
    # one tip reads one sector per row step: a repeat used to be priced
    # and read once per listing.  The integer and range checks come first
    (Scan((1, 1, 1), 1, 1), r"^tip 1 listed twice$"),
    (Scan([1, 2], 1, 3, {2: [3, 1, 3, 1]}), r"^tip 3 listed twice$"),
    (Scan((1, 1, 1.5), 1, 1), r"^tip 1\.5 is not an integer$"),
    (Scan((1, 1, 10), 1, 1), r"^tip 10 out of range 1\.\.9$"),
    # a bool tip used to be priced as a sector, and a tip that is no
    # number failed on a bare TypeError without naming it
    (Scan((True, 2), 1, 1), r"^tip True is not an integer$"),
    (Scan((1,), 1, 3, {2: (2, False)}), r"^tip False is not an integer$"),
    (Scan((1, "a"), 1, 1), r"^tip 'a' is not an integer$"),
    (Scan((None,), 1, 1), r"^tip None is not an integer$"),
    # a set that is no sequence was priced by `execute` and failed in
    # `read` (or in both, for one without a size) on a bare TypeError
    (Scan({1, 2}, 1, 1), r"^tip set must be a sequence, got set$"),
    (Scan(None, 1, 1), r"^tip set must be a sequence, got NoneType$"),
    (Scan(3, 1, 1), r"^tip set must be a sequence, got int$"),
    (Scan((1,), 1, 3, {2: None}), r"^tip set must be a sequence, got NoneType$"),
    (Scan((1,), 1, 3, {2: {3}}), r"^tip set must be a sequence, got set$"),
    # overrides that are no mapping: pairs would be taken as rows
    (Scan((1,), 1, 3, [(2, (1,))]), r"^per_row_tips must be a mapping, got list$"),
], ids=["length-float", "length-bool", "start-float", "start-integral-float",
        "start-bool", "row-float", "row-bool", "tip-float", "override-tip-float",
        "tip-repeated", "override-tip-repeated", "repeated-tip-float",
        "repeated-tip-out-of-range", "tip-bool", "override-tip-bool",
        "tip-str", "tip-none", "set-of-tips", "none-set", "int-set",
        "override-none-set", "override-set-of-tips", "override-pairs"])
def test_non_integer_plan_field_rejected_before_the_sled_moves(call, scan,
                                                               message):
    plan = AccessPlan([Scan(tips=(2,), start=5, length=3), scan])
    em = Emulator(TINY3)
    with pytest.raises(ValueError, match=message):
        if call == "execute":
            em.execute(plan)
        else:
            em.read(plan, MediaImage(TINY3))
    assert em.state == SledState()


def test_integer_checks_keep_the_old_check_order():
    # a length below 1 is still named before a start that is not an int,
    # and the scan's rows before its tips
    with pytest.raises(ValueError, match=r"^scan length must be >= 1$"):
        Emulator(TINY3).execute(AccessPlan([Scan((1.5,), 1.5, 0)]))
    with pytest.raises(ValueError, match=r"^scan rows 12\.\.13 exceed 1\.\.12$"):
        Emulator(TINY3).execute(AccessPlan([Scan((1.5,), 12, 2)]))


@pytest.mark.parametrize("tips, bad", [((1, 2.5), 2.5), ((1.0, 2), 1.0),
                                       ((Fraction(3, 2),), Fraction(3, 2)),
                                       ((True, 2), True), ((1, "a"), "a"),
                                       ((None,), None)],
                         ids=["float", "integral-float", "fraction", "bool",
                              "str", "none"])
def test_sorted_tips_reject_non_integer_tips(tips, bad):
    with pytest.raises(ValueError, match=rf"^tip {re.escape(repr(bad))} "
                                         r"is not an integer$"):
        SortedTips(tips)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-20, 30), b=st.integers(-20, 30),
       step=st.integers(-7, 7).filter(bool), n_tips=st.integers(1, 12))
def test_range_tips_checked_like_their_tuple(a, b, step, n_tips):
    def outcome(tips):
        try:
            _check_tips(tips, n_tips)
        except ValueError as exc:
            return str(exc)
        return None

    r = range(a, b, step)
    assert outcome(r) == outcome(tuple(r))


@settings(max_examples=300, deadline=None)
@given(tips=st.sets(st.integers(-20, 30)), n_tips=st.integers(1, 12))
def test_sorted_tips_checked_like_their_tuple(tips, n_tips):
    def outcome(tips):
        try:
            _check_tips(tips, n_tips)
        except ValueError as exc:
            return str(exc)
        return None

    t = tuple(sorted(tips))
    assert outcome(SortedTips(t)) == outcome(t)


@pytest.mark.parametrize("tips", [(2, 1), (1, 3, 2), (1, 1), (1, 2, 2, 3)])
def test_sorted_tips_reject_unsorted_and_repeated_tips(tips):
    with pytest.raises(ValueError, match=r"^tips must be strictly ascending$"):
        SortedTips(tips)


def test_sorted_tips_subclass_is_walked():
    # a subclass can skip the ascending check, so its ends prove nothing
    class Unchecked(SortedTips):
        __slots__ = ()

        def __new__(cls, tips):
            return tuple.__new__(cls, tips)

    with pytest.raises(ValueError, match=r"^tip 0 out of range 1\.\.6400$"):
        _check_tips(Unchecked((9, 0)), 6400)


@pytest.mark.parametrize("call", ["execute", "read"])
@pytest.mark.parametrize("bad, tip", [((0, 5), 0), ((5, 6401), 6401)])
def test_out_of_range_sorted_tips_rejected_before_the_sled_moves(call, bad, tip):
    plan = AccessPlan([
        Scan(tips=(1,), start=500, length=3),
        Scan(tips=SortedTips((1, 2)), start=10, length=3,
             per_row_tips={11: SortedTips(bad)}),
    ])
    em = Emulator(CMU)
    with pytest.raises(ValueError, match=rf"^tip {tip} out of range 1\.\.6400$"):
        if call == "execute":
            em.execute(plan)
        else:
            em.read(plan, MediaImage(CMU))
    assert em.state == SledState()


def test_bad_tip_in_shared_override_tuple_rejected():
    shared = (2, 6401)
    plan = AccessPlan([
        Scan(tips=(1,), start=1, length=2, per_row_tips={2: shared}),
        Scan(tips=(1,), start=10, length=2, per_row_tips={10: shared, 11: shared}),
    ])
    with pytest.raises(ValueError, match=r"^tip 6401 out of range 1\.\.6400$"):
        Emulator(CMU).execute(plan)


def test_bad_tip_only_in_a_later_override_rejected():
    good = tuple(range(1, 1281))
    plan = AccessPlan([
        Scan(tips=good, start=1, length=3, per_row_tips={2: good}),
        Scan(tips=good, start=20, length=3, per_row_tips={21: good, 22: (5, 0)}),
    ])
    with pytest.raises(ValueError, match=r"^tip 0 out of range 1\.\.6400$"):
        Emulator(CMU).execute(plan)



@pytest.mark.parametrize("rows", [(3, 2), (2, 3)])
def test_first_bad_override_set_in_dict_order_is_named(rows):
    # two bad sets in one scan: the one earlier in the override dict is
    # named, whichever row it overrides
    first, second = rows
    plan = AccessPlan([Scan(tips=(1,), start=1, length=3,
                            per_row_tips={first: (0,), second: (6401,)})])
    with pytest.raises(ValueError, match=r"^tip 0 out of range 1\.\.6400$"):
        Emulator(CMU).execute(plan)

@settings(max_examples=60, deadline=None)
@given(
    starts=st.lists(st.tuples(st.integers(1, 10), st.integers(1, 3),
                              st.sets(st.integers(1, 9), max_size=9)),
                    min_size=1, max_size=6),
    extra_start=st.integers(1, 10),
    extra_len=st.integers(1, 3),
)
def test_appending_a_scan_never_decreases_total(starts, extra_start, extra_len):
    scans = [Scan(tips=tuple(sorted(tips)), start=s, length=ln)
             for (s, ln, tips) in starts if s + ln - 1 <= 12]
    if not scans:
        scans = [Scan(tips=(1,), start=1, length=1)]
    extra_len = min(extra_len, 12 - extra_start + 1)
    extra = Scan(tips=(1,), start=extra_start, length=extra_len)
    t1 = Emulator(TINY).execute(AccessPlan(scans))
    t2 = Emulator(TINY).execute(AccessPlan(scans + [extra]))
    assert t2.total_s >= t1.total_s


# -- data-carrying reads ------------------------------------------------

def _pattern(region, s):
    return bytes([region % 256, s % 256, (region * 7 + s) % 256, 0, 1, 2, 3, 4])


def test_write_read_identity():
    im = MediaImage(TINY)
    for r in (1, 2):
        for s in (1, 2):
            im.write_cell(r, s, _pattern(r, s))
    em = Emulator(TINY)
    t, data = em.read(AccessPlan([Scan(tips=(1, 2), start=1, length=2)]), im)
    expected = (_pattern(1, 1) + _pattern(2, 1) + _pattern(1, 2) + _pattern(2, 2))
    assert data == expected
    t2 = Emulator(TINY).execute(AccessPlan([Scan(tips=(1, 2), start=1, length=2)]))
    assert t == t2


def test_read_multi_pass_chunking_order():
    p = DeviceParams(regions_x=3, regions_y=2, sectors_x=2, sectors_y=2,
                     n_active_tips=4)
    im = MediaImage(p)
    for r in range(1, 6):
        im.write_cell(r, 1, _pattern(r, 1))
    _, data = Emulator(p).read(AccessPlan([Scan(tips=(1, 2, 3, 4, 5), start=1, length=1)]), im)
    assert data == b"".join(_pattern(r, 1) for r in (1, 2, 3, 4, 5))


SMALL = DeviceParams(regions_x=3, regions_y=2, sectors_x=3, sectors_y=3,
                     n_active_tips=2)


@st.composite
def _plans(draw):
    # tip sets reach past n_active_tips, so rows may take up to three passes
    spr = SMALL.sectors_per_region
    tip_sets = st.lists(st.integers(1, SMALL.n_tips), unique=True,
                        max_size=SMALL.n_tips).map(tuple)
    scans = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(1, spr))
        length = draw(st.integers(1, spr - start + 1))
        overrides = st.dictionaries(st.integers(start, start + length - 1),
                                    tip_sets, max_size=length)
        scans.append(Scan(tips=draw(tip_sets), start=start, length=length,
                          per_row_tips=draw(st.none() | overrides)))
    return AccessPlan(scans)


# only the exit row of a two-row scan wants a second pass
_EXIT_ROW_ONLY = AccessPlan([Scan(tips=(1,), start=1, length=2,
                                  per_row_tips={2: (1, 2, 3)})])


def _priced(plan, params):
    """execute's event counts for the plan from the sled's home, after
    checking that read prices it alike."""
    t = Emulator(params).execute(plan)
    assert Emulator(params).read(plan, MediaImage(params))[0] == t
    return t.n_row_steps, t.n_turnarounds, t.n_sectors, t.settle_s


def test_wide_default_with_only_narrow_overrides_takes_extra_passes():
    # 2 active tips: the default's 3 tips want a second pass over its
    # outermost rows, 1 and 4, though no override is wide.  Pass 0 walks
    # rows 1..4, crossing into column 2; pass 1 reverses over 4..1.
    plan = AccessPlan([Scan(tips=(1, 2, 3), start=1, length=4,
                            per_row_tips={2: (1,), 3: ()})])
    assert _priced(plan, SMALL) == (8, 1, 3 * 2 + 1, 2 * SMALL.settle_time_s)


def test_one_wide_override_among_narrow_ones_takes_an_extra_pass():
    # only row 2's 3 tips exceed the 2 active tips (row 5's 2 do not), so
    # pass 1 reverses from exit row 6 back to row 2 alone
    plan = AccessPlan([Scan(tips=(1,), start=1, length=6,
                            per_row_tips={2: (1, 2, 3), 3: (4,), 5: (5, 6)})])
    assert _priced(plan, SMALL) == (6 + 4, 1, 3 + 3 + 1 + 2,
                                    2 * SMALL.settle_time_s)


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), col=st.integers(1, SMALL.sectors_x),
       row=st.integers(1, SMALL.sectors_y), y_dir=st.sampled_from((1, -1)),
       model=st.sampled_from(("average", "distance")))
@example(plan=_EXIT_ROW_ONLY, col=1, row=1, y_dir=1, model="average")
def test_read_prices_exactly_like_execute(plan, col, row, y_dir, model):
    ex, rd = Emulator(SMALL, model), Emulator(SMALL, model)
    ex.state, rd.state = SledState(col, row, y_dir), SledState(col, row, y_dir)
    t = ex.execute(plan)
    t_read, _ = rd.read(plan, MediaImage(SMALL))
    assert t == t_read
    assert ex.state == rd.state


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), data=st.data(), col=st.integers(1, SMALL.sectors_x),
       row=st.integers(1, SMALL.sectors_y), y_dir=st.sampled_from((1, -1)))
@example(plan=_EXIT_ROW_ONLY, data=None, col=1, row=1, y_dir=1)
def test_timing_depends_only_on_each_rows_tip_set_size(plan, data, col, row,
                                                       y_dir):
    # the emulator's tip symmetry: any other valid set of the same size,
    # default or override, prices the plan alike
    def same_size(tips):
        if data is None:  # the explicit example: tips counted from 1
            return tuple(range(1, len(tips) + 1))
        order = data.draw(st.permutations(range(1, SMALL.n_tips + 1)))
        return tuple(order[:len(tips)])

    swapped = AccessPlan([
        Scan(tips=same_size(s.tips), start=s.start, length=s.length,
             per_row_tips=s.per_row_tips and {
                 r: same_size(t) for r, t in s.per_row_tips.items()})
        for s in plan.scans])
    for model in SEEK_MODELS:
        a, b = Emulator(SMALL, model), Emulator(SMALL, model)
        a.state, b.state = SledState(col, row, y_dir), SledState(col, row, y_dir)
        assert a.execute(plan) == b.execute(swapped)
        assert a.state == b.state


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), col=st.integers(1, SMALL.sectors_x),
       row=st.integers(1, SMALL.sectors_y), y_dir=st.sampled_from((1, -1)))
@example(plan=_EXIT_ROW_ONLY, col=1, row=1, y_dir=1)
def test_read_returns_each_wanted_cell_exactly_once(plan, col, row, y_dir):
    im = MediaImage(SMALL)
    for tip in range(1, SMALL.n_tips + 1):
        for s in range(1, SMALL.sectors_per_region + 1):
            im.write_cell(tip, s, struct.pack(">II", tip, s))
    em = Emulator(SMALL)
    em.state = SledState(col, row, y_dir)
    _, data = em.read(plan, im)
    got = Counter(data[i:i + 8] for i in range(0, len(data), 8))
    want = Counter(struct.pack(">II", tip, s) for scan in plan.scans
                   for s in range(scan.start, scan.start + scan.length)
                   for tip in (scan.per_row_tips or {}).get(s, scan.tips))
    assert got == want



@st.composite
def _tip_sets(draw, n_tips):
    """A tip set of 1..n_tips: a `range` of step 1, 2 or -1, a
    `SortedTips`, a plain tuple in any order, or ()."""
    lo = draw(st.integers(1, n_tips))
    hi = draw(st.integers(lo - 1, n_tips))
    tips = draw(st.lists(st.integers(1, n_tips), unique=True,
                         max_size=n_tips))
    return draw(st.sampled_from((range(lo, hi + 1), range(lo, hi + 1, 2),
                                 range(hi, lo - 1, -1),
                                 SortedTips(sorted(tips)), tuple(tips), ())))


@st.composite
def _read_cases(draw):
    """A reduced device, an image that covers it and may be larger, some
    of the image's cells written (whole rows left out), and a plan."""
    rx, ry = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = DeviceParams(regions_x=rx, regions_y=ry,
                     sectors_x=draw(st.integers(1, 3)),
                     sectors_y=draw(st.integers(1, 3)),
                     n_active_tips=draw(st.integers(1, rx * ry)))
    image = MediaImage(replace(p, regions_x=rx + draw(st.integers(0, 2)),
                               sectors_x=p.sectors_x + draw(st.integers(0, 2))))
    # cells of some rows only, so whole rows stay unwritten
    rows = draw(st.lists(st.integers(1, image.sectors_per_region), unique=True))
    keys = draw(st.sets(st.tuples(st.integers(1, image.n_regions),
                                  st.sampled_from(rows)))) if rows else ()
    written = {key: struct.pack(">II", *key) for key in keys}
    spr, tip_sets = p.sectors_per_region, _tip_sets(p.n_tips)
    scans = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, spr))
        length = draw(st.integers(1, spr - start + 1))
        overrides = st.dictionaries(st.integers(start, start + length - 1),
                                    tip_sets, max_size=length)
        scans.append(Scan(tips=draw(tip_sets), start=start, length=length,
                          per_row_tips=draw(st.none() | overrides)))
    return p, image, written, AccessPlan(scans)


@settings(max_examples=300, deadline=None)
@given(case=_read_cases(), sled=st.tuples(st.integers(1, 3), st.integers(1, 3),
                                          st.sampled_from((1, -1))))
def test_read_takes_the_cells_a_plain_dict_lookup_gives(case, sled):
    # a second route: each row's cells looked up one (tip, row) at a time
    p, image, written, plan = case
    image.write_cells([r for r, _ in written], [s for _, s in written],
                      list(written.values()))
    col, row, y_dir = min(sled[0], p.sectors_x), min(sled[1], p.sectors_y), sled[2]
    ex, rd = Emulator(p), Emulator(p)
    ex.state, rd.state = SledState(col, row, y_dir), SledState(col, row, y_dir)
    t, data = rd.read(plan, image)
    assert t == ex.execute(plan)
    assert rd.state == ex.state
    got = Counter(data[i:i + 8] for i in range(0, len(data), 8))
    assert got == Counter(dict_read_cells(plan, written, bytes(8)))


def _fresh(tips):
    """An equal tip set of the same type that is another object (but for
    the empty tuple, of which there is one)."""
    if isinstance(tips, range):
        return range(tips.start, tips.stop, tips.step)
    if type(tips) is SortedTips:
        return SortedTips.prechecked(list(tips))
    return type(tips)(list(tips))


@st.composite
def _shared_set_plans(draw):
    # a few tip-set objects of every checked kind, some out of range or
    # not ints, each shared by any number of defaults and override rows
    spr, n_tips = SMALL.sectors_per_region, SMALL.n_tips
    tip = st.integers(0, n_tips + 1)
    pool = draw(st.lists(st.one_of(
        st.builds(range, tip, tip, st.sampled_from((1, 2, -1))),
        st.lists(tip, unique=True).map(lambda v: SortedTips(sorted(v))),
        st.lists(tip | st.just(1.5), max_size=n_tips + 1).map(tuple),
        st.lists(tip, max_size=n_tips + 1)), min_size=1, max_size=4))
    shared = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    scans = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(1, spr))
        length = draw(st.integers(1, spr - start + 1))
        overrides = st.dictionaries(st.integers(start, start + length - 1),
                                    shared, max_size=length)
        scans.append(Scan(tips=draw(shared), start=start, length=length,
                          per_row_tips=draw(st.none() | overrides)))
    return AccessPlan(scans)


@settings(max_examples=300, deadline=None)
@given(plan=_shared_set_plans(), col=st.integers(1, SMALL.sectors_x),
       row=st.integers(1, SMALL.sectors_y), y_dir=st.sampled_from((1, -1)))
def test_checking_each_tip_set_object_once_is_only_a_cache(plan, col, row,
                                                           y_dir):
    # the emulator checks each distinct set object once per plan; with
    # no object shared, every set is checked where it is used, and the
    # outcome must not change
    unshared = AccessPlan([
        Scan(tips=_fresh(s.tips), start=s.start, length=s.length,
             per_row_tips=s.per_row_tips and {
                 r: _fresh(t) for r, t in s.per_row_tips.items()})
        for s in plan.scans])

    def outcome(p):
        em = Emulator(SMALL)
        em.state = SledState(col, row, y_dir)
        try:
            result = em.execute(p)
        except ValueError as exc:
            result = str(exc)
        return result, em.state

    assert outcome(plan) == outcome(unshared)


# -- frozen override maps -------------------------------------------------

def test_row_tips_summarise_their_rows_once():
    wide, narrow = (1, 2, 3, 4), range(1, 3)
    rows = RowTips({7: narrow, 5: wide, 6: narrow, 9: ()})
    assert rows == {7: narrow, 5: wide, 6: narrow, 9: ()}
    assert (rows.lo, rows.hi, rows.cells, rows.widest) == (5, 9, 8, 4)
    # the distinct set objects in first-use order
    assert list(map(id, rows.sets)) == [id(narrow), id(wide), id(())]
    moved = rows.shifted(10)
    assert moved == {17: narrow, 15: wide, 16: narrow, 19: ()}
    assert type(moved) is RowTips and (moved.lo, moved.hi) == (15, 19)
    assert moved.sets is rows.sets
    assert (moved.cells, moved.widest) == (8, 4)
    empty = RowTips()
    assert not empty and empty.sets == () and empty.shifted(3) is empty
    # a plan holding one can still be copied and pickled
    plan = AccessPlan([Scan(tips=(1,), start=5, length=5, per_row_tips=rows)])
    for twin in (copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
        assert twin == plan and type(twin.scans[0].per_row_tips) is RowTips
        assert twin.scans[0].per_row_tips.cells == 8


@pytest.mark.parametrize("rows, message", [
    ({1: (2,), 2.0: (1,)}, r"^override row must be an integer, got 2\.0$"),
    ({True: (1,)}, r"^override row must be an integer, got True$"),
    # a set without a size is named once the sizes fail to sum
    ({1: (2,), 2: None}, r"^tip set must be a sequence, got NoneType$"),
    ({1: 3}, r"^tip set must be a sequence, got int$"),
], ids=["float", "bool", "none-set", "int-set"])
def test_row_tips_reject_a_row_that_is_not_an_int(rows, message):
    with pytest.raises(ValueError, match=message):
        RowTips(rows)


@st.composite
def _override_maps(draw):
    """Override rows, some of them outside any device, whose sets come
    from a small shared pool."""
    pool = draw(st.lists(_tip_sets(9), min_size=1, max_size=4))
    return draw(st.dictionaries(st.integers(-30, 30), st.sampled_from(pool),
                                max_size=12))


@settings(max_examples=300, deadline=None)
@given(rows=_override_maps(), k=st.integers(-30, 30))
def test_row_tips_summarise_like_a_plain_walk(rows, k):
    def walked(rows):
        lo, hi, sets, cells, widest = row_tips_summary(rows)
        return lo, hi, list(map(id, sets)), cells, widest

    def summary(rows):
        return rows.lo, rows.hi, list(map(id, rows.sets)), rows.cells, rows.widest

    built = RowTips(rows)
    assert built == rows and summary(built) == walked(rows)
    moved = {s + k: tips for s, tips in rows.items()}
    assert built.shifted(k) == moved and summary(built.shifted(k)) == walked(moved)


def test_row_tips_shift_only_by_an_int():
    with pytest.raises(ValueError, match=r"^rows must be an integer, got 1\.0$"):
        RowTips({1: (2,)}).shifted(1.0)


@pytest.mark.parametrize("change", [
    lambda m: operator.setitem(m, 2, (3,)),
    lambda m: operator.setitem(m, 1, ()),
    lambda m: operator.delitem(m, 1),
    lambda m: m.update({2: (3,)}),
    lambda m: m.update(),
    lambda m: m.clear(),
    lambda m: m.pop(1),
    lambda m: m.popitem(),
    lambda m: m.setdefault(2, (3,)),
    lambda m: operator.ior(m, {2: (3,)}),
], ids=["add-row", "replace-row", "del", "update", "update-nothing", "clear",
        "pop", "popitem", "setdefault", "ior"])
def test_row_tips_are_frozen(change):
    # a change would leave the summary stale, so every mutator refuses
    rows = RowTips({1: (1, 2)})
    with pytest.raises(TypeError, match=r"^a RowTips cannot be changed"):
        change(rows)
    # nor does a second `__init__` call change anything
    rows.__init__({2: (3,)})
    assert rows == {1: (1, 2)}
    assert (rows.lo, rows.hi, rows.cells, rows.widest) == (1, 1, 2, 2)


def _full_image(p):
    """An image of `p` whose every cell names its tip and row."""
    keys = [(tip, s) for tip in range(1, p.n_tips + 1)
            for s in range(1, p.sectors_per_region + 1)]
    image = MediaImage(p)
    image.write_cells([t for t, _ in keys], [s for _, s in keys],
                      [struct.pack(">II", *key) for key in keys])
    return image


@st.composite
def _row_tips_plans(draw):
    """Plans on TINY3 whose overrides are `RowTips`, some scans followed
    by `shift_scans` copies.  Sets come from a small shared pool, reach
    past the 3 active tips and may repeat a tip or leave 1..9; a row may
    fall outside its scan, and a copy outside the device."""
    spr, n_tips = TINY3.sectors_per_region, TINY3.n_tips
    pool = draw(st.lists(_tip_sets(n_tips) | st.lists(
        st.integers(0, n_tips + 1), max_size=n_tips + 1).map(tuple),
        min_size=1, max_size=4))
    shared = st.sampled_from(pool)
    scans = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, spr))
        length = draw(st.integers(1, spr - start + 1))
        first, last = start, start + length - 1
        if draw(st.integers(0, 4)) == 0:
            first, last = first - 1, last + 1
        rows = draw(st.dictionaries(st.integers(first, last), shared,
                                    max_size=length))
        scans.append(Scan(tips=draw(shared), start=start, length=length,
                          per_row_tips=RowTips(rows)))
        for _ in range(draw(st.integers(0, 2))):
            scans += shift_scans(scans[-1:], draw(st.integers(-spr, spr)))
    return AccessPlan(scans)


def _outcomes(plan, model, sled, image):
    """What `execute` and `read` return (or the message of the
    `ValueError` they raise), each with the sled state after it."""
    out = []
    for run in (lambda em: em.execute(plan), lambda em: em.read(plan, image)):
        em = Emulator(TINY3, model)
        em.state = SledState(*sled)
        try:
            out.append(run(em))
        except ValueError as exc:
            out.append(str(exc))
            assert em.state == SledState(*sled)
        out.append(em.state)
    return out


@settings(max_examples=300, deadline=None)
@given(plan=_row_tips_plans(),
       sled=st.tuples(st.integers(1, TINY3.sectors_x),
                      st.integers(1, TINY3.sectors_y), st.sampled_from((1, -1))),
       mapping=st.sampled_from((dict, MappingProxyType)))
def test_row_tips_price_and_read_like_plain_dicts(plan, sled, mapping):
    # a `RowTips` is checked from its summary and priced from its sizes;
    # the same rows as a plain mapping, a `dict` or one that is not, are
    # made a `RowTips` when their scan runs
    plain = AccessPlan([Scan(tips=s.tips, start=s.start, length=s.length,
                             per_row_tips=mapping(dict(s.per_row_tips)))
                        for s in plan.scans])
    image = _full_image(TINY3)
    for model in SEEK_MODELS:
        assert (_outcomes(plan, model, sled, image)
                == _outcomes(plain, model, sled, image))


@pytest.mark.parametrize("k", [1, 15])
def test_moved_band_scans_are_checked_once_per_set(monkeypatch, k):
    # k copies of one relational-parallel band scan, as the plans of a
    # projection hold them: each distinct tip set is checked once, no
    # override row is walked and no field is checked by `check_integer`.
    # No band row is wider than CMU's 1280 active tips, so pricing the
    # plan walks no row either
    lay = RelLayoutRP(CMU, RelationSchema(k=16, n=2_621_440))
    band = lay.counted_rows(Relation(2_621_440, 0).qualifying_counts(
        0.1, CMU.n_tips))
    [scan] = band.scans
    assert type(scan.per_row_tips) is RowTips and len(scan.per_row_tips) > 400
    plan = AccessPlan([moved for w in range(2, k + 2)
                       for moved in shift_scans([scan], lay.band_start(w) - 1)])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def walked(*args):
        raise AssertionError("an override row was walked")

    monkeypatch.setattr(emulator, "_check_tips",
                        counted("_check_tips", emulator._check_tips))
    monkeypatch.setattr(emulator, "check_integer",
                        counted("check_integer", emulator.check_integer))
    for name in ("__iter__", "keys", "values", "items"):
        monkeypatch.setattr(RowTips, name, walked)
    Emulator(CMU).execute(plan)
    sets = {id(scan.tips), *map(id, scan.per_row_tips.sets)}
    assert calls == {"_check_tips": len(sets)}


def test_exit_row_rescan_reverses_direction():
    em = Emulator(SMALL)
    t = em.execute(_EXIT_ROW_ONLY)
    assert (t.n_row_steps, t.n_turnarounds, t.n_sectors) == (3, 1, 4)
    # the second pass sweeps back over row 2 against the first pass
    assert em.state == SledState(col=1, row=2, y_dir=-1)


def test_unwritten_cells_read_as_zeros():
    im = MediaImage(TINY)
    _, data = Emulator(TINY).read(AccessPlan([Scan(tips=(3,), start=4, length=1)]), im)
    assert data == bytes(8)


def test_media_bounds():
    im = MediaImage(TINY)
    with pytest.raises(ValueError):
        im.write_cell(0, 1, bytes(8))
    with pytest.raises(ValueError):
        im.write_cell(1, 13, bytes(8))
    with pytest.raises(ValueError):
        im.write_cell(1, 1, bytes(7))

    # an image smaller than the emulator's geometry fails before the sled
    # moves, though only the second scan reaches outside it
    small = MediaImage(replace(TINY, regions_x=2, regions_y=2, sectors_x=3))
    plan = AccessPlan([Scan(tips=(1,), start=5, length=3),
                       Scan(tips=(7,), start=1, length=1)])
    em = Emulator(TINY)
    with pytest.raises(ValueError, match=r"^media image of 4 regions x 9 rows "
                                         r"does not cover the emulator's "
                                         r"9 tips x 12 rows$"):
        em.read(plan, small)
    assert em.state == SledState()
    # the geometry is what must match, not the timing
    slow = MediaImage(replace(TINY, move_x_s=1e-3, tip_rate_bits_s=1e5))
    slow.write_cell(7, 1, _pattern(7, 1))
    _, data = em.read(plan, slow)
    assert data == bytes(24) + _pattern(7, 1)



@pytest.mark.parametrize("region, row, message", [
    (1.5, 2, "region must be an integer, got 1.5"),
    (True, 2, "region must be an integer, got True"),
    (1, 2.0, "row must be an integer, got 2.0"),
    (1, False, "row must be an integer, got False"),
], ids=["float-region", "bool-region", "float-row", "bool-row"])
def test_write_cell_rejects_a_non_integer_region_or_row(region, row, message):
    # such a cell was stored under a key no read reaches
    im = MediaImage(TINY)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        im.write_cell(region, row, bytes(8))
    assert im._cells == {}


@pytest.mark.parametrize("data, kind", [("abcdefgh", "str"), (12345678, "int"),
                                        (None, "NoneType"), ([0] * 8, "list")],
                         ids=["str", "int", "none", "list"])
def test_write_cell_rejects_a_payload_that_is_not_bytes_like(data, kind):
    im = MediaImage(TINY)
    with pytest.raises(ValueError, match=f"^cell payload must be bytes, "
                                         f"bytearray or memoryview, got {kind}$"):
        im.write_cell(1, 1, data)
    assert im._cells == {}


def test_write_cells_checks_the_whole_batch_before_storing():
    im = MediaImage(TINY)
    with pytest.raises(ValueError, match=r"^row 13 out of range 1\.\.12$"):
        im.write_cells([1, 2, 3], [1, 13, 2], [bytes(8)] * 3)
    with pytest.raises(ValueError, match=r"^cell payload must be 8 bytes$"):
        im.write_cells([1, 2], [1, 1], [bytes(8), bytes(9)])
    with pytest.raises(ValueError, match=r"^2 regions, 2 rows and 1 cells "
                                         r"do not pair up$"):
        im.write_cells([1, 2], [1, 1], [bytes(8)])
    assert im._cells == {}
    # a bytearray or memoryview is stored as bytes; a later write replaces
    im.write_cells([2, 2], [5, 5], [bytearray(b"a" * 8), memoryview(b"b" * 8)])
    _, data = Emulator(TINY).read(AccessPlan([Scan(tips=(1, 2), start=5,
                                                   length=1)]), im)
    assert data == bytes(8) + b"b" * 8


def test_read_rejects_an_image_of_another_sector_size_before_the_sled_moves():
    # an image of 16-byte sectors read by an 8-byte device returned
    # 16-byte cells
    wide = MediaImage(replace(TINY, sector_bits=128))
    wide.write_cell(1, 1, bytes(16))
    em = Emulator(TINY)
    plan = AccessPlan([Scan(tips=(1,), start=5, length=3)])
    with pytest.raises(ValueError, match=r"^media image of 128-bit sectors does "
                                         r"not match the emulator's 64-bit "
                                         r"sectors$"):
        em.read(plan, wide)
    assert em.state == SledState()

# -- plan serialization -------------------------------------------------

def test_plan_text_round_trip():
    plan = AccessPlan([
        Scan(tips=(1, 2, 3, 7, 9, 10, 11), start=4, length=2),
        Scan(tips=(), start=1, length=5, per_row_tips={2: (5, 6), 4: ()}),
    ])
    text = plan_to_text(plan)
    assert plan_from_text(text) == plan


def test_plan_text_format_is_run_length_encoded():
    text = plan_to_text(AccessPlan([Scan(tips=tuple(range(1, 6401)), start=3, length=9)]))
    assert text.splitlines()[0] == "scan 3 9 1-6400"


def test_plan_text_empty_tips_marker():
    text = plan_to_text(AccessPlan([Scan(tips=(), start=1, length=1)]))
    assert text.splitlines()[0] == "scan 1 1 -"


_tip_lists = st.lists(st.integers(1, 40), max_size=30, unique=True)


@settings(max_examples=200, deadline=None)
@given(tips=st.one_of(
    st.builds(range, st.integers(-3, 40), st.integers(-3, 40),
              st.integers(1, 5) | st.integers(-5, -1)),
    _tip_lists.map(lambda tips: SortedTips(sorted(tips))),
    st.permutations(list(range(1, 30))).map(tuple),
    _tip_lists.map(tuple)))
def test_rle_of_a_run_or_sorted_set_matches_sorting_it(tips):
    # ranges and `SortedTips` skip the sort; any set encodes as its
    # sorted tuple does
    assert _rle(tips) == _rle(tuple(sorted(tips)))


@pytest.mark.parametrize("text,message", [
    ("scan 1 x 1-3", r"^line 2: length 'x' is not an integer$"),
    ("scan 1 2 1-2-3", r"^line 2: tip run '1-2-3' is not 'n' or 'n-m'$"),
    ("scan 1 2 5-3", r"^line 2: tip run '5-3' runs backwards$"),
    # each listing of a tip would be priced as one more sector
    ("scan 1 1 1,1", r"^line 2: tip 1 listed twice in '1,1'$"),
    ("scan 1 1 1-3,2", r"^line 2: tip 2 listed twice in '1-3,2'$"),
    ("scan 1 3 1-4\nrow 2 5,3-6", r"^line 3: tip 5 listed twice in '5,3-6'$"),
], ids=["bad-int", "three-part-run", "backwards-run", "tip-twice",
        "tip-twice-in-runs", "tip-twice-in-row"])
def test_plan_text_bad_field_names_its_line(text, message):
    with pytest.raises(ValueError, match=message):
        plan_from_text("# header\n" + text + "\n")


def test_plan_text_error_chains_the_field_error():
    with pytest.raises(ValueError) as err:
        plan_from_text("scan 1 x 1-3\n")
    assert str(err.value) == "line 1: length 'x' is not an integer"
    assert str(err.value.__cause__) == "length 'x' is not an integer"


def test_plan_text_repeated_row_override_names_both_lines():
    # the second override used to replace the first silently
    with pytest.raises(ValueError, match=r"^line 3: row 2 of this scan "
                                         r"already overridden on line 2$"):
        plan_from_text("scan 1 3 1-4\nrow 2 1\nrow 2 3-4\n")
    # the same row in two scans is two overrides, not a repeat
    plan = plan_from_text("scan 1 3 1-4\nrow 2 1\nscan 4 3 1-4\nrow 2 3-4\n")
    assert [s.per_row_tips for s in plan.scans] == [{2: (1,)}, {2: (3, 4)}]
