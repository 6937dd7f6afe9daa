"""Region-Sector address model: bidirectional mapping, averaged rates, scan splitting."""

import math
import random
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memsrs.device import DeviceParams, cmu_defaults, derive
from memsrs.emulator import Emulator, MediaImage, Scan
from memsrs.linear import (DsmLayout, NsmLayout, compile_dsm, compile_nsm,
                           write_image_dsm, write_image_nsm)
from memsrs.relational import (RangeQuery, RelationSchema, RelLayoutRP,
                               RelLayoutRSY, write_image_rp, write_image_rsy)
from memsrs.rs import (
    PhysAddr,
    RSAddr,
    layer_scans,
    mems_to_rs,
    rs_params,
    rs_read,
    rs_scan,
    rs_to_mems,
)
from memsrs.spatial import (QueryRegion, SpatialSpace, SSYLayout,
                            build_block_grid, compile_sp, write_image_sp,
                            write_image_ssy)

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


def test_sampled_round_trip_cmu():
    rng = random.Random(20260822)
    for _ in range(10**6):
        a = RSAddr(rng.randint(1, CMU.n_regions), rng.randint(1, CMU.sectors_per_region))
        assert mems_to_rs(rs_to_mems(a, CMU), CMU) == a


def test_quasi_contiguity_cmu_sampled():
    # consecutive sector indices are physically adjacent: same column one row
    # apart, or adjacent column same row (serpentine boundary)
    rng = random.Random(7)
    for _ in range(20000):
        s = rng.randint(1, CMU.sectors_per_region - 1)
        a = rs_to_mems(RSAddr(1, s), CMU)
        b = rs_to_mems(RSAddr(1, s + 1), CMU)
        dcol, drow = abs(a.col - b.col), abs(a.row - b.row)
        assert (dcol, drow) in ((0, 1), (1, 0))


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
    rs = rs_params(CMU)
    d = derive(CMU)
    denominator = d.region_bits / CMU.tip_rate_bits_s + CMU.sectors_x * CMU.settle_time_s
    assert math.isclose(rs.transfer_rate_rs_bits_s, d.region_bits / denominator, rel_tol=1e-12)
    assert abs(rs.transfer_rate_rs_bits_s - 0.644e6) < 0.001e6
    assert rs.seek_time_rs_s == max(0.52e-3 + 0.215e-3, 0.35e-3 + 0.06e-3)
    assert rs.seek_time_rs_s == 0.735e-3


def test_rs_params_no_settle_overhead():
    p = DeviceParams(settle_time_s=1e-300)  # effectively zero; zero is rejected
    rs = rs_params(p)
    assert math.isclose(rs.transfer_rate_rs_bits_s, p.tip_rate_bits_s, rel_tol=1e-9)


def test_rs_read_scan_counts():
    plan = rs_read(range(1, 65), 1, 64, CMU)
    assert len(plan.scans) == 1
    plan = rs_read(range(1, 3201), 1, 10, CMU)
    assert len(plan.scans) == 3
    plan = rs_read(range(1, 6401), 1, 10, CMU)
    assert len(plan.scans) == 5


def test_rs_read_scan_contents():
    plan = rs_read([5, 1, 3000], 10, 4, CMU)
    assert len(plan.scans) == 1
    scan = plan.scans[0]
    assert tuple(scan.tips) == (1, 5, 3000)
    assert scan.start == 10 and scan.length == 4


def test_rs_read_splits_in_ascending_region_order():
    plan = rs_read(range(1, 3201), 5, 2, CMU)
    assert [len(s.tips) for s in plan.scans] == [1280, 1280, 640]
    assert list(plan.scans[0].tips) == list(range(1, 1281))
    assert list(plan.scans[2].tips) == list(range(2561, 3201))
    assert all(s.start == 5 and s.length == 2 for s in plan.scans)


def test_rs_read_bounds():
    with pytest.raises(ValueError):
        rs_read([1], 0, 5, CMU)
    with pytest.raises(ValueError):
        rs_read([1], 67500, 2, CMU)
    with pytest.raises(ValueError):
        rs_read([6401], 1, 1, CMU)


# -- scan layering -------------------------------------------------------

def test_rs_scan_equal_sets_give_no_overrides():
    scan = rs_scan(5, 2, [(1, 2), (1, 2), (1, 2)])
    assert scan == Scan(tips=(1, 2), start=5, length=6, per_row_tips=None)


def test_rs_scan_other_set_overrides_every_row_of_its_unit():
    scan = rs_scan(5, 3, [(1, 2), (3,), (1, 2), ()])
    assert scan.tips == (1, 2)
    assert (scan.start, scan.length) == (5, 12)
    assert scan.per_row_tips == {8: (3,), 9: (3,), 10: (3,),
                                 14: (), 15: (), 16: ()}


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


def test_layer_scans_no_units_give_no_scans():
    p = DeviceParams(regions_x=2, regions_y=2, n_active_tips=2)
    assert layer_scans(1, 4, [], p) == []
    assert layer_scans(1, 4, [(), ()], p) == []


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


@settings(max_examples=40, deadline=None)
@given(rx=st.sampled_from((1, 2, 4)), ry=st.sampled_from((1, 2, 4)),
       sy=st.integers(1, 6), extra_x=st.integers(0, 2), n=st.integers(1, 60),
       data=st.data(), rng=st.randoms())
def test_row_and_column_stores_read_back_their_contract(rx, ry, sy, extra_x, n,
                                                        data, rng):
    # the tips split into whole groups of n_active_tips, and one tuple
    # (row store) or one value (column store) fits a group's sector row
    n_tips = rx * ry
    napt = data.draw(st.sampled_from([g for g in (1, 2, 4, 8, 16) if g <= n_tips]))
    spv = data.draw(st.integers(1, min(3, napt)))
    k = data.draw(st.integers(1, min(4, napt // spv)))
    blocks = max(-(-n // (napt // (k * spv))), k * -(-n // (napt // spv)))
    groups = n_tips // napt
    p = DeviceParams(regions_x=rx, regions_y=ry, sectors_y=sy,
                     sectors_x=-(-blocks // (groups * sy)) + extra_x,
                     n_active_tips=napt, sector_bits=80)
    em = Emulator(p)
    schema = RelationSchema(k=k, n=n, attr_bits=80 * spv)
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
