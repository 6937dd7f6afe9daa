"""Region-Sector address model: bidirectional mapping, averaged rates, scan splitting."""

import math
import random
import re
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator, MediaImage, Scan, SortedTips
from memsrs.linear import (DsmLayout, NsmLayout, compile_dsm, compile_nsm,
                           write_image_dsm, write_image_nsm)
from memsrs.relational import (RangeQuery, RelationSchema, RelLayoutRP,
                               RelLayoutRSY, compile_rp, write_image_rp,
                               write_image_rsy)
from memsrs.rs import (
    PhysAddr,
    RSAddr,
    layer_cuts,
    layer_scans,
    layer_tips,
    mems_to_rs,
    rs_scan,
    shift_scans,
    rs_to_mems,
)
from memsrs.spatial import (QueryRegion, SpatialSpace, SSYLayout,
                            build_block_grid, compile_sp, write_image_sp,
                            write_image_ssy)
from memsrs.workload import Relation
from tests.oracles import dsm_cell, nsm_cell

CMU = cmu_defaults()
TINY = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                    n_active_tips=4)


def test_first_cell():
    assert rs_to_mems(RSAddr(1, 1), CMU) == PhysAddr(1, 1, 1, 1)
    assert mems_to_rs(PhysAddr(1, 1, 1, 1), CMU) == RSAddr(1, 1)


def test_hand_evaluated_forward_mapping():
    # second region row, second sector column, serpentine flip on the even column
    assert rs_to_mems(RSAddr(81, 28), CMU) == PhysAddr(1, 2, 2, 27)
    # last region, last sector; column 2500 is even so the flip lands on row 1
    assert rs_to_mems(RSAddr(6400, 67500), CMU) == PhysAddr(80, 80, 2500, 1)


def test_hand_evaluated_inverse_mapping():
    assert mems_to_rs(PhysAddr(1, 2, 2, 27), CMU) == RSAddr(81, 28)
    assert mems_to_rs(PhysAddr(80, 80, 2500, 1), CMU) == RSAddr(6400, 67500)


def test_bounds_rejected():
    with pytest.raises(ValueError):
        rs_to_mems(RSAddr(0, 1), CMU)
    with pytest.raises(ValueError):
        rs_to_mems(RSAddr(1, 67501), CMU)
    with pytest.raises(ValueError):
        mems_to_rs(PhysAddr(81, 1, 1, 1), CMU)
    with pytest.raises(ValueError):
        mems_to_rs(PhysAddr(1, 1, 2501, 1), CMU)


@pytest.mark.parametrize("convert, address, message", [
    (rs_to_mems, RSAddr(1.5, 2.5),
     "RS address region must be an integer, got 1.5"),
    (rs_to_mems, RSAddr(1, 2.0), "RS address sector must be an integer, got 2.0"),
    (rs_to_mems, RSAddr(True, 1),
     "RS address region must be an integer, got True"),
    (mems_to_rs, PhysAddr(1, 1, 1.0, 1),
     "physical address col must be an integer, got 1.0"),
    (mems_to_rs, PhysAddr(1, 1, 1, True),
     "physical address row must be an integer, got True"),
], ids=["rs-float", "rs-float-sector", "rs-bool", "phys-float", "phys-bool"])
def test_address_field_that_is_not_an_integer_is_rejected(convert, address,
                                                          message):
    # RSAddr(1.5, 2.5) mapped to PhysAddr(1.5, 1.0, 1.0, 2.5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convert(address, CMU)


def test_exhaustive_bijection_tiny_geometry():
    seen = set()
    for r in range(1, TINY.n_regions + 1):
        for s in range(1, TINY.sectors_per_region + 1):
            phys = rs_to_mems(RSAddr(r, s), TINY)
            assert 1 <= phys.region_x <= 3 and 1 <= phys.region_y <= 3
            assert 1 <= phys.col <= 4 and 1 <= phys.row <= 3
            assert phys not in seen
            seen.add(phys)
            assert mems_to_rs(phys, TINY) == RSAddr(r, s)
    assert len(seen) == TINY.n_regions * TINY.sectors_per_region  # 108


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, CMU.n_regions), s=st.integers(1, CMU.sectors_per_region),
       r2=st.integers(1, CMU.n_regions), s2=st.integers(1, CMU.sectors_per_region))
def test_sampled_round_trip_cmu(r, s, r2, s2):
    # each map is a product of two axis maps: (region_x, region_y) comes
    # from the region alone and (col, row) from the sector alone, and
    # back.  So the round trips of every region and of every sector
    # (criterion 1) hold for every one of the device's cells.
    a, a2 = rs_to_mems(RSAddr(r, s), CMU), rs_to_mems(RSAddr(r2, s2), CMU)
    assert rs_to_mems(RSAddr(r, s2), CMU) == a[:2] + a2[2:]
    assert rs_to_mems(RSAddr(r2, s), CMU) == a2[:2] + a[2:]
    ph, ph2 = PhysAddr(*a[:2], *a2[2:]), PhysAddr(*a2[:2], *a[2:])
    assert mems_to_rs(ph, CMU) == RSAddr(r, s2)
    assert mems_to_rs(ph2, CMU) == RSAddr(r2, s)
    assert mems_to_rs(a, CMU) == RSAddr(r, s)


def test_quasi_contiguity_cmu_every_pair():
    # all 67,499 pairs of consecutive sector indices are physically
    # adjacent: same column one row apart, or adjacent column same row
    # (serpentine boundary); the sector part depends on no region
    cells = [rs_to_mems(RSAddr(1, s), CMU)[2:]
             for s in range(1, CMU.sectors_per_region + 1)]
    steps = {(abs(a[0] - b[0]), abs(a[1] - b[1]))
             for a, b in zip(cells, cells[1:])}
    assert steps == {(0, 1), (1, 0)}


@settings(max_examples=40, deadline=None)
@given(
    rx=st.integers(1, 6), ry=st.integers(1, 6),
    sx=st.integers(1, 8), sy=st.integers(1, 6),
)
def test_quasi_contiguity_exhaustive_small(rx, ry, sx, sy):
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=sx, sectors_y=sy,
                     n_active_tips=1)
    for s in range(1, p.sectors_per_region):
        a = rs_to_mems(RSAddr(1, s), p)
        b = rs_to_mems(RSAddr(1, s + 1), p)
        assert (abs(a.col - b.col), abs(a.row - b.row)) in ((0, 1), (1, 0))


def test_rs_params_cmu_values():
    denominator = CMU.region_bits / CMU.tip_rate_bits_s + CMU.sectors_x * CMU.settle_time_s
    assert math.isclose(CMU.transfer_rate_rs_bits_s, CMU.region_bits / denominator, rel_tol=1e-12)
    assert abs(CMU.transfer_rate_rs_bits_s - 0.644e6) < 0.001e6
    assert CMU.seek_time_rs_s == max(0.52e-3 + 0.215e-3, 0.35e-3 + 0.06e-3)
    assert CMU.seek_time_rs_s == 0.735e-3


def test_rs_params_no_settle_overhead():
    p = DeviceParams(settle_time_s=1e-300)  # effectively zero; zero is rejected
    assert math.isclose(p.transfer_rate_rs_bits_s, p.tip_rate_bits_s, rel_tol=1e-9)


# reading one sector-row range of a set of regions: `layer_scans` with
# that set as its one unit

def test_rs_read_scan_counts():
    assert len(layer_scans(1, 64, [range(1, 65)], CMU)) == 1
    assert len(layer_scans(1, 10, [range(1, 3201)], CMU)) == 3
    assert len(layer_scans(1, 10, [range(1, 6401)], CMU)) == 5


def test_rs_read_scan_contents():
    scans = layer_scans(10, 4, [(1, 5, 3000)], CMU)
    assert len(scans) == 1
    scan = scans[0]
    assert tuple(scan.tips) == (1, 5, 3000)
    assert scan.start == 10 and scan.length == 4


def test_rs_read_splits_in_ascending_region_order():
    scans = layer_scans(5, 2, [range(1, 3201)], CMU)
    assert [len(s.tips) for s in scans] == [1280, 1280, 640]
    assert list(scans[0].tips) == list(range(1, 1281))
    assert list(scans[2].tips) == list(range(2561, 3201))
    assert all(s.start == 5 and s.length == 2 for s in scans)


# -- scan layering -------------------------------------------------------

def test_rs_scan_equal_sets_give_no_overrides():
    scan = rs_scan(5, 2, [(1, 2), (1, 2), (1, 2)])
    assert scan == Scan(tips=(1, 2), start=5, length=6, per_row_tips=None)
    # the default object repeated, then an equal copy of it
    default = (1, 2)
    copy = tuple([1, 2])
    assert copy is not default
    scan = rs_scan(5, 2, [default, default, copy])
    assert scan == Scan(tips=(1, 2), start=5, length=6, per_row_tips=None)


def test_rs_scan_other_set_overrides_every_row_of_its_unit():
    scan = rs_scan(5, 3, [(1, 2), (3,), (1, 2), ()])
    assert scan.tips == (1, 2)
    assert (scan.start, scan.length) == (5, 12)
    assert scan.per_row_tips == {8: (3,), 9: (3,), 10: (3,),
                                 14: (), 15: (), 16: ()}


def test_rs_scan_lead_run_holds_the_first_set():
    body, tail = (1, 2), (1,)
    scan = rs_scan(5, 2, [body, tail], lead=3)
    assert scan == rs_scan(5, 2, [body] * 3 + [tail])
    assert scan == Scan(tips=(1, 2), start=5, length=8,
                        per_row_tips={11: (1,), 12: (1,)})
    # an equal last set overrides nothing, however long the lead run
    assert rs_scan(1, 1, [body, (1, 2)], lead=500) == Scan(tips=(1, 2),
                                                          start=1, length=501)


def test_shift_scans_moves_every_row_and_shares_the_tip_sets():
    default, override = (1, 2), (3,)
    scans = [Scan(tips=default, start=5, length=4,
                  per_row_tips={6: override, 8: ()}),
             Scan(tips=(4,), start=9, length=1)]
    moved = shift_scans(scans, 10)
    assert moved == [Scan(tips=(1, 2), start=15, length=4,
                          per_row_tips={16: (3,), 18: ()}),
                     Scan(tips=(4,), start=19, length=1)]
    assert moved[0].tips is default and moved[0].per_row_tips[16] is override
    # the scans moved from are left as they were
    assert scans[0].start == 5 and scans[0].per_row_tips == {6: (3,), 8: ()}
    assert shift_scans([], 3) == []


def test_layer_scans_unit_without_tips_in_a_layer_splits_its_run():
    p = DeviceParams(regions_x=2, regions_y=2, n_active_tips=2)
    scans = layer_scans(10, 2, [(1, 2, 3), (1,), (1, 2, 4), (2, 3)], p)
    assert scans == [
        # layer 0 reaches every unit: one scan
        Scan(tips=(1, 2), start=10, length=8,
             per_row_tips={12: (1,), 13: (1,), 16: (2, 3), 17: (2, 3)}),
        # layer 1 reaches units 0 and 2 only: one scan each
        Scan(tips=(3,), start=10, length=2),
        Scan(tips=(4,), start=14, length=2),
    ]


def test_layer_scans_pass_a_set_that_fits_one_layer_through():
    p = DeviceParams(regions_x=2, regions_y=2, n_active_tips=2)
    fits, wide = SortedTips((1, 3)), SortedTips((1, 2, 4))
    plain, span = (2, 4), range(1, 3)
    scans = layer_scans(10, 2, [plain, fits, wide, fits, span], p)
    # the caller's objects, not copies: sharing and type survive
    assert scans[0].tips is plain
    prt = scans[0].per_row_tips
    assert all(prt[s] is fits for s in (12, 13, 16, 17))
    assert prt[18] is span and prt[19] is span
    # a wider set is still cut into layers, a run of tips as a range
    assert prt[14] == range(1, 3)
    assert scans[1] == Scan(tips=range(4, 5), start=14, length=2)


def test_layer_scans_no_units_give_no_scans():
    p = DeviceParams(regions_x=2, regions_y=2, n_active_tips=2)
    assert layer_scans(1, 4, [], p) == []
    assert layer_scans(1, 4, [(), ()], p) == []


@st.composite
def _shared_units(draw):
    """Units drawn from a few set objects, so some units share one: ranges,
    `SortedTips`, plain tuples in any order and ()."""
    tips = st.integers(1, 12)
    pool = draw(st.lists(st.one_of(
        st.just(()),
        st.builds(lambda a, n: range(a, a + n), tips, st.integers(0, 12)),
        st.sets(tips).map(lambda s: SortedTips(sorted(s))),
        st.lists(tips, unique=True).map(tuple)), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=200, deadline=None)
@given(units=_shared_units(), napt=st.integers(1, 4))
def test_layer_cuts_cut_each_unit_layer_by_layer_once_per_set(units, napt):
    cuts = list(layer_cuts(units, napt))
    assert len(cuts) == -(-max(map(len, units), default=0) // napt)
    for i, cut in enumerate(cuts):
        expected = [layer_tips(tips, i * napt, napt) for tips in units]
        assert cut == expected
        assert list(map(type, cut)) == list(map(type, expected))
        # the units that hold one object hold one cut object
        shared = {}
        for tips, part in zip(units, cut):
            assert shared.setdefault(id(tips), part) is part


def test_layer_cuts_no_units_or_no_tips_give_no_layers():
    assert list(layer_cuts([], 2)) == []
    assert list(layer_cuts([(), range(3, 3), SortedTips()], 2)) == []


# -- the tip sets placements hand the emulator ----------------------------

def _placement_plans(p, rng):
    """Plans of every placement on device `p`: RSY, RP from real ids and
    from counted rows, NSM, DSM, SSY and the block grid."""
    n_tips, napt = p.n_tips, p.n_active_tips
    k = min(4, napt)
    schema = RelationSchema(k=k, n=5 * n_tips + 3)
    rsy, rp = RelLayoutRSY(p, schema), RelLayoutRP(p, schema)
    nsm, dsm = NsmLayout(p, schema), DsmLayout(p, schema)
    plans = [compile_nsm(nsm)]
    for sigma in (0.02, 0.3, 0.9, 1):
        rel = Relation(schema.n, rng.randrange(100))
        for nproj in range(1, k + 1):
            query = RangeQuery(projected=tuple(range(1, nproj + 1)),
                               predicate_attr=1, bound=0, selectivity=sigma)
            plans += [rsy.compile(query), compile_dsm(dsm, query),
                      compile_rp(rp, query,
                                 rel.qualifying_set(sigma, n_tips)),
                      rp.compile(query, rp.counted_rows(
                          rel.qualifying_counts(sigma, n_tips)))]
    space = SpatialSpace(width=2 * n_tips, height=2 * n_tips)
    ssy = SSYLayout(p, space)
    grids = [build_block_grid(p, space, ratio) for ratio in (0.25, 1.0, 4.0)]
    for _ in range(8):
        qr = QueryRegion(x0=rng.randint(1, space.width),
                         y0=rng.randint(1, space.height),
                         qx=rng.randint(1, space.width),
                         qy=rng.randint(1, space.height))
        plans += [ssy.compile(qr)] + [compile_sp(grid, qr) for grid in grids]
    return plans


@pytest.mark.parametrize("rx, ry, napt", [(3, 3, 3), (4, 2, 4), (8, 8, 8),
                                          (8, 8, 16), (16, 8, 64)])
def test_every_placement_plan_holds_ranges_sorted_tips_or_gaps(rx, ry, napt):
    # the emulator checks such a set at its two ends; it walks any other
    n_tips = rx * ry
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=4 * n_tips,
                     sectors_y=4, n_active_tips=napt)
    plans = _placement_plans(p, random.Random(n_tips + napt))
    sets = [scan.tips for plan in plans for scan in plan.scans]
    sets += [tips for plan in plans for scan in plan.scans
             for tips in (scan.per_row_tips or {}).values()]
    for tips in sets:
        assert (type(tips) is range
                or type(tips) is tuple and tips == ()
                or type(tips) is SortedTips
                and SortedTips(tuple(tips)) == tips), tips


# -- every layered placement reads back its contract ----------------------

def _cells(key, n_cells):
    """Distinct 10-byte cells of the value stored under `key`."""
    return [struct.pack(">IIH", *key, i) for i in range(n_cells)]


def _chunks(data, size):
    return sorted(data[i:i + size] for i in range(0, len(data), size))


@settings(max_examples=60, deadline=None)
@given(rx=st.sampled_from((1, 2, 4)), ry=st.sampled_from((1, 2, 4)),
       napt=st.integers(1, 15),
       sy=st.integers(1, 6), extra_x=st.integers(0, 2),
       spv=st.integers(1, 3), k=st.integers(1, 4), n=st.integers(1, 60),
       gx=st.integers(1, 2), gy=st.integers(1, 2), rng=st.randoms())
def test_layered_plans_read_back_their_contract(rx, ry, napt, sy, extra_x, spv,
                                                k, n, gx, gy, rng):
    # a power-of-two tip count always has a block shape for the curve
    n_tips = rx * ry
    assume(napt < n_tips and k <= n_tips)
    side_x, side_y = n_tips * gx, n_tips * gy
    # enough sector rows for every layout: band rows of RP, tuple rows of
    # RSY, stacked components of SSY and one block per n_tips objects
    need = max(k * -(-n // n_tips), -(-n // (n_tips // k)),
               side_x * side_y // n_tips) * spv
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_x=-(-need // sy) + extra_x,
                     sectors_y=sy, n_active_tips=napt, sector_bits=80)
    em = Emulator(p)
    schema = RelationSchema(k=k, n=n, attr_bits=80 * spv)
    rsy, rp = RelLayoutRSY(p, schema), RelLayoutRP(p, schema)
    space = SpatialSpace(width=side_x, height=side_y, obj_bits=80 * spv)
    ssy = SSYLayout(p, space)
    grid = build_block_grid(p, space, ratio=rng.choice((0.25, 1.0, 4.0)))
    value = lambda a, b: b"".join(_cells((a, b), spv))
    images = {}
    for name, layout, write in (("rsy", rsy, write_image_rsy),
                                ("rp", rp, write_image_rp),
                                ("ssy", ssy, write_image_ssy),
                                ("sp", grid, write_image_sp)):
        images[name] = MediaImage(p)
        write(layout, images[name], value)

    for _ in range(3):
        proj = tuple(sorted(rng.sample(range(1, k + 1), rng.randint(1, k))))
        qual = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        q = RangeQuery(projected=proj, predicate_attr=proj[0], bound=0,
                       selectivity=0.5)
        want = [c for v in range(1, n + 1) for w in proj
                for c in _cells((v, w), spv)]
        _, data = em.read(rsy.compile(q), images["rsy"])
        assert _chunks(data, 10) == sorted(want)
        want = [c for v in range(1, n + 1) for c in _cells((v, proj[0]), spv)]
        want += [c for v in qual for w in proj[1:] for c in _cells((v, w), spv)]
        _, data = em.read(rp.compile(q, rp.qualifying_rows(qual)), images["rp"])
        assert _chunks(data, 10) == sorted(want)

        qr = QueryRegion(x0=rng.randint(1, side_x), y0=rng.randint(1, side_y),
                         qx=rng.randint(1, side_x), qy=rng.randint(1, side_y))
        x0, y0, x1, y1 = qr.clip(space)
        want = sorted(c for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
                      for c in _cells((x, y), spv))
        for plan, image in ((ssy.compile(qr), "ssy"), (compile_sp(grid, qr), "sp")):
            _, data = em.read(plan, images[image])
            assert _chunks(data, 10) == want


@st.composite
def _packed_geometry(draw):
    """A device and relation where the tips split into whole groups of
    n_active_tips, one tuple (row store) or one value (column store) fits
    a group's sector row, and both stores fit the device."""
    rx = draw(st.sampled_from((1, 2, 4)))
    ry = draw(st.sampled_from((1, 2, 4)))
    sy = draw(st.integers(1, 6))
    extra_x = draw(st.integers(0, 2))
    n = draw(st.integers(1, 60))
    n_tips = rx * ry
    napt = draw(st.sampled_from([g for g in (1, 2, 4, 8, 16) if g <= n_tips]))
    spv = draw(st.integers(1, min(3, napt)))
    k = draw(st.integers(1, min(4, napt // spv)))
    blocks = max(-(-n // (napt // (k * spv))), k * -(-n // (napt // spv)))
    groups = n_tips // napt
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_y=sy,
                     sectors_x=-(-blocks // (groups * sy)) + extra_x,
                     n_active_tips=napt, sector_bits=80)
    return p, RelationSchema(k=k, n=n, attr_bits=80 * spv), spv


@settings(max_examples=40, deadline=None)
@given(geometry=_packed_geometry(), rng=st.randoms())
def test_row_and_column_stores_read_back_their_contract(geometry, rng):
    p, schema, spv = geometry
    n, k = schema.n, schema.k
    em = Emulator(p)
    nsm, dsm = NsmLayout(p, schema), DsmLayout(p, schema)
    value = lambda a, b: b"".join(_cells((a, b), spv))
    images = {"nsm": MediaImage(p), "dsm": MediaImage(p)}
    write_image_nsm(nsm, images["nsm"], value)
    write_image_dsm(dsm, images["dsm"], value)

    def read(plan, image):
        # slots past the last value of a block read back as zero cells
        _, got = em.read(plan, images[image])
        return [c for c in _chunks(got, 10) if c != bytes(10)]

    assert read(compile_nsm(nsm), "nsm") == sorted(
        c for v in range(1, n + 1) for w in range(1, k + 1)
        for c in _cells((v, w), spv))
    for _ in range(3):
        proj = tuple(sorted(rng.sample(range(1, k + 1), rng.randint(1, k))))
        q = RangeQuery(projected=proj, predicate_attr=proj[0], bound=0,
                       selectivity=0.5)
        assert read(compile_dsm(dsm, q), "dsm") == sorted(
            c for v in range(1, n + 1) for w in proj
            for c in _cells((v, w), spv))


@settings(max_examples=40, deadline=None)
@given(geometry=_packed_geometry())
def test_row_and_column_stores_write_the_straight_line_cells(geometry):
    p, schema, spv = geometry
    n, k = schema.n, schema.k
    value = lambda a, b: b"".join(_cells((a, b), spv))
    for layout, cell in ((NsmLayout(p, schema), nsm_cell),
                         (DsmLayout(p, schema), dsm_cell)):
        image = MediaImage(p)
        layout.write_image(image, value)
        want = {}
        for v in range(1, n + 1):
            for w in range(1, k + 1):
                tip, s = cell(p, schema, v, w)
                for d, c in enumerate(_cells((v, w), spv)):
                    want[tip + d, s] = c
        assert len(want) == n * k * spv  # the oracle gives every sector a cell
        # the image's rows hold every expected cell and no other non-zero one
        got = {(tip, s): c for s, row in image._cells.items()
               for tip, c in enumerate(row) if c != bytes(10)}
        assert got == want
    # the row store reads every block whatever the query projects
    nsm = NsmLayout(p, schema)
    for mask in range(1, 2 ** k):
        proj = tuple(w for w in range(1, k + 1) if mask >> (w - 1) & 1)
        q = RangeQuery(projected=proj, predicate_attr=proj[0], bound=0,
                       selectivity=0.5)
        assert nsm.compile(q) == compile_nsm(nsm)


# -- every image writer checks the payload length --------------------------

def _writer_cases():
    # 16-byte values: two 8-byte sectors each
    p = DeviceParams(regions_x=2, regions_y=2, sectors_x=8, sectors_y=4,
                     n_active_tips=4)
    schema = RelationSchema(k=2, n=4, attr_bits=128)
    space = SpatialSpace(width=4, height=4, obj_bits=128)
    return p, [(write_image_rsy, RelLayoutRSY(p, schema)),
               (write_image_rp, RelLayoutRP(p, schema)),
               (write_image_nsm, NsmLayout(p, schema)),
               (write_image_dsm, DsmLayout(p, schema)),
               (write_image_ssy, SSYLayout(p, space)),
               (write_image_sp, build_block_grid(p, space, ratio=1.0))]


@pytest.mark.parametrize("size", [15, 17])
@pytest.mark.parametrize("case", range(6), ids=["rsy", "rp", "nsm", "dsm",
                                                "ssy", "sp"])
def test_writer_rejects_payload_of_wrong_length(case, size):
    p, cases = _writer_cases()
    write, layout = cases[case]
    with pytest.raises(ValueError, match=f"must be 16 bytes, got {size}"):
        write(layout, MediaImage(p), lambda a, b: bytes(size))


_WRITERS = ["rsy", "rp", "nsm", "dsm", "ssy", "sp"]


def _last_value(layout):
    """The (tuple, attribute) or (x, y) every writer stores last."""
    if hasattr(layout, "schema"):
        return layout.schema.n, layout.schema.k
    return layout.space.width, layout.space.height


@pytest.mark.parametrize("case", range(6), ids=_WRITERS)
def test_writer_with_a_bad_last_payload_leaves_the_image_empty(case):
    # the image is one checked batch: no earlier value is stored either
    p, cases = _writer_cases()
    write, layout = cases[case]
    last = _last_value(layout)
    image = MediaImage(p)
    with pytest.raises(ValueError, match=rf"^payload of \({last[0]}, "
                                         rf"{last[1]}\) must be 16 bytes, got 7$"):
        write(layout, image, lambda a, b: bytes(7 if (a, b) == last else 16))
    assert image._cells == {}


@pytest.mark.parametrize("payload, kind", [("x" * 16, "str"), (12345678, "int"),
                                           ([0] * 16, "list")],
                         ids=["str", "int", "list"])
@pytest.mark.parametrize("case", range(6), ids=_WRITERS)
def test_writer_rejects_a_payload_that_is_not_bytes_like(case, payload, kind):
    p, cases = _writer_cases()
    write, layout = cases[case]
    last = _last_value(layout)
    image = MediaImage(p)
    with pytest.raises(ValueError, match=rf"^payload of \({last[0]}, {last[1]}\) "
                                         rf"must be bytes, bytearray or "
                                         rf"memoryview, got {kind}$"):
        write(layout, image, lambda a, b: payload if (a, b) == last else bytes(16))
    assert image._cells == {}


@pytest.mark.parametrize("case", range(6), ids=_WRITERS)
def test_writer_stores_a_bytearray_or_memoryview_payload_as_bytes(case):
    p, cases = _writer_cases()
    write, layout = cases[case]
    by_bytes, by_view = MediaImage(p), MediaImage(p)
    value = lambda a, b: struct.pack(">IIQ", a, b, 7)
    write(layout, by_bytes, value)
    write(layout, by_view, lambda a, b: memoryview(bytearray(value(a, b))))
    assert by_view._cells == by_bytes._cells
    assert {type(c) for row in by_view._cells.values() for c in row} == {bytes}
