"""Acceptance checklist for the finished package, one test per criterion.

The checks run the four default benchmark sweeps once (module-scoped
fixtures, a couple of minutes in total) and then assert aggregate
behavior: speedup bands, curve shapes, lower-bound dominance, estimator
agreement, and byte-exact retrieval on a reduced geometry.  A failing
check states which sub-check missed and by how much.
"""

import hashlib
import math
import random
import statistics
import struct
import time

import pytest

from memsrs import bench
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import AccessPlan, Emulator, MediaImage, Scan
from memsrs.linear import (DsmLayout, NsmLayout, compile_dsm, compile_nsm,
                           write_image_dsm, write_image_nsm)
from memsrs.relational import (RangeQuery, RelationSchema, RelLayoutRP,
                               RelLayoutRSY, compile_rp, compile_rsy,
                               write_image_rp, write_image_rsy)
from memsrs.rs import PhysAddr, RSAddr, mems_to_rs, rs_to_mems
from memsrs.spatial import (QueryRegion, SpatialSpace, SSYLayout,
                            build_block_grid, compile_sp, compile_ssy,
                            write_image_sp, write_image_ssy)
from tests.oracles import rsy_map_phys, ssy_map_phys

pytestmark = pytest.mark.acceptance


# -- shared benchmark sweeps ------------------------------------------------

@pytest.fixture(scope="module")
def exp1():
    return bench.run_experiment1()


@pytest.fixture(scope="module")
def exp2():
    return bench.run_experiment2()


@pytest.fixture(scope="module")
def exp3():
    return bench.run_experiment3()


@pytest.fixture(scope="module")
def exp4():
    return bench.run_experiment4()


@pytest.fixture(scope="module")
def all_rows(exp1, exp2, exp3, exp4):
    return exp1 + exp2 + exp3 + exp4


def _mean(rows, placement, **match):
    vals = [r["meas_total_s"] for r in rows
            if r["placement"] == placement
            and all(r[k] == v for k, v in match.items())]
    assert vals, f"no rows for {placement} {match}"
    return statistics.fmean(vals)


def _chunks8(data):
    return {data[i:i + 8] for i in range(0, len(data), 8)}


# -- criterion 1: the address translation is a checked bijection ------------

def test_criterion_01_mapping_bijection():
    tiny = DeviceParams(regions_x=3, regions_y=3, sectors_x=4, sectors_y=3,
                        n_active_tips=9)
    # exhaustive over the reduced geometry, both directions
    images = set()
    for region in range(1, tiny.n_regions + 1):
        for s in range(1, tiny.sectors_per_region + 1):
            a = RSAddr(region, s)
            ph = rs_to_mems(a, tiny)
            assert mems_to_rs(ph, tiny) == a, f"round trip broke at {a}"
            images.add(ph)
    assert len(images) == tiny.n_regions * tiny.sectors_per_region
    for rx in range(1, tiny.regions_x + 1):
        for ry in range(1, tiny.regions_y + 1):
            for col in range(1, tiny.sectors_x + 1):
                for row in range(1, tiny.sectors_y + 1):
                    ph = PhysAddr(rx, ry, col, row)
                    assert rs_to_mems(mems_to_rs(ph, tiny), tiny) == ph

    # the reference geometry: round trips of every region and of every
    # sector, from each side.  Both maps are products of a region map and
    # a sector map (test_rs.py::test_sampled_round_trip_cmu), so these
    # prove both round trips on all 6400 x 67,500 cells
    p = cmu_defaults()
    for a in [RSAddr(r, 1) for r in range(1, p.n_regions + 1)] + [
            RSAddr(1, s) for s in range(1, p.sectors_per_region + 1)]:
        assert mems_to_rs(rs_to_mems(a, p), p) == a, f"round trip broke at {a}"
    regions = [(x, y, 1, 1) for y in range(1, p.regions_y + 1)
               for x in range(1, p.regions_x + 1)]
    sectors = [(1, 1, col, row) for col in range(1, p.sectors_x + 1)
               for row in range(1, p.sectors_y + 1)]
    for ph in map(PhysAddr._make, regions + sectors):
        assert rs_to_mems(mems_to_rs(ph, p), p) == ph, f"round trip broke at {ph}"

    # malformed addresses are rejected, not wrapped
    for bad in (RSAddr(0, 1), RSAddr(p.n_regions + 1, 1),
                RSAddr(1, 0), RSAddr(1, p.sectors_per_region + 1)):
        with pytest.raises(ValueError):
            rs_to_mems(bad, p)
    for bad in (PhysAddr(0, 1, 1, 1), PhysAddr(1, 81, 1, 1),
                PhysAddr(1, 1, 2501, 1), PhysAddr(1, 1, 1, 28)):
        with pytest.raises(ValueError):
            mems_to_rs(bad, p)


# -- criterion 2: direct physical mappings agree with the layered path ------

def test_criterion_02_composition_identities():
    p = cmu_defaults()
    rng = random.Random(2)

    sch = RelationSchema(k=16, n=2_621_440)
    lay = RelLayoutRSY(p, sch)
    for _ in range(100_000):
        v = rng.randint(1, sch.n)
        w = rng.randint(1, sch.k)
        assert mems_to_rs(rsy_map_phys(lay, v, w), p) == lay.map(v, w)

    space = SpatialSpace(width=6400, height=6400)
    ssy = SSYLayout(p, space)
    # documented anchor: object (100, 200) sits at tip (20, 2), column 8, row 17
    assert ssy_map_phys(ssy, 100, 200) == PhysAddr(20, 2, 8, 17)
    for _ in range(100_000):
        x = rng.randint(1, space.width)
        y = rng.randint(1, space.height)
        assert mems_to_rs(ssy_map_phys(ssy, x, y), p) == ssy.map(x, y)


# -- criterion 3: relational speedup lands in the published bands -----------

def test_criterion_03_relational_speedup_ratio():
    t0 = time.perf_counter()
    rows = bench.run_experiment1(
        sizes_mb=(5.0, 320.0),
        placements=("relational-parallel", "relational-sequential-yu"))
    elapsed = time.perf_counter() - t0

    r5 = (_mean(rows, "relational-sequential-yu", data_mb=5.0)
          / _mean(rows, "relational-parallel", data_mb=5.0))
    r320 = (_mean(rows, "relational-sequential-yu", data_mb=320.0)
            / _mean(rows, "relational-parallel", data_mb=320.0))

    problems = []
    if not 2.0 <= r5 <= 3.3:
        problems.append(f"speedup at 5 MB = {r5:.3f}, outside [2.0, 3.3]")
    if not 3.0 <= r320 <= 5.0:
        problems.append(f"speedup at 320 MB = {r320:.3f}, outside [3.0, 5.0]")
    if not r320 > r5:
        problems.append(f"speedup should grow with data size: {r5:.3f} -> {r320:.3f}")
    if elapsed >= 300.0:
        problems.append(f"two-point sweep took {elapsed:.1f}s, limit 300s")
    assert not problems, "; ".join(problems)


# -- criterion 4: projection-width sweep has the expected shape --------------

def test_criterion_04_projection_sweep_shape(exp2):
    rsy = {np_: _mean(exp2, "relational-sequential-yu", n_projection=np_)
           for np_ in range(1, 17)}
    rp = {np_: _mean(exp2, "relational-parallel", n_projection=np_)
          for np_ in range(1, 17)}
    nsm = {np_: _mean(exp2, "nsm-griffin", n_projection=np_)
           for np_ in range(1, 17)}
    dsm16 = _mean(exp2, "dsm-griffin", n_projection=16)

    problems = []

    # staircase: flat inside each scan-count plateau ...
    plateaus = ((1, 3), (4, 6), (7, 9), (10, 12), (13, 16))
    for lo, hi in plateaus:
        band = [rsy[np_] for np_ in range(lo, hi + 1)]
        spread = max(band) / min(band) - 1.0
        if spread > 0.01:
            problems.append(
                f"plateau {lo}..{hi} not flat: spread {spread:.2%} > 1%")
    # ... with a >= 25% step where each plateau after the first begins
    for b in [lo for lo, _ in plateaus[1:]]:
        jump = rsy[b] / rsy[b - 1] - 1.0
        if jump < 0.25 - 1e-9:
            problems.append(
                f"step at width {b} is {jump:+.1%}, expected >= +25%")

    xs = list(range(1, 17))
    r2 = statistics.correlation(xs, [rp[np_] for np_ in xs]) ** 2
    if r2 < 0.999:
        problems.append(f"parallel placement not linear in width: R2 {r2:.5f}")

    nsm_spread = max(nsm.values()) / min(nsm.values()) - 1.0
    if nsm_spread > 0.01:
        problems.append(f"row-store baseline not flat: spread {nsm_spread:.2%}")
    if not rsy[16] > max(max(nsm.values()), dsm16):
        problems.append(
            f"full-width projection should cost the sequential placement more "
            f"than either baseline: {rsy[16]:.4f}s vs {max(max(nsm.values()), dsm16):.4f}s")

    assert not problems, "; ".join(problems)


# -- criterion 5: spatial speedup lands in the published bands ---------------

def test_criterion_05_spatial_speedup_ratio(exp3):
    r_big = (_mean(exp3, "spatial-sequential-yu", query_frac=0.1)
             / _mean(exp3, "spatial-parallel", query_frac=0.1))
    r_small = (_mean(exp3, "spatial-sequential-yu", query_frac=0.0001)
               / _mean(exp3, "spatial-parallel", query_frac=0.0001))

    problems = []
    if not 0.9 <= r_big <= 1.6:
        problems.append(f"speedup at 10% queries = {r_big:.3f}, outside [0.9, 1.6]")
    if not 3.5 <= r_small <= 6.0:
        problems.append(f"speedup at 0.01% queries = {r_small:.3f}, outside [3.5, 6.0]")
    assert not problems, "; ".join(problems)


# -- criterion 6: aspect-ratio sweep has the expected shape ------------------

def test_criterion_06_aspect_sweep_shape(exp4):
    sp = {a: _mean(exp4, "spatial-parallel", aspect=a) for a in bench.ASPECTS}
    ssy = {a: _mean(exp4, "spatial-sequential-yu", aspect=a)
           for a in bench.ASPECTS}
    lb_sq = _mean(exp4, "spatial-lowerbound", aspect=1.0)

    problems = []
    spread = max(sp.values()) / min(sp.values()) - 1.0
    if spread > 0.25:
        problems.append(f"block placement swings {spread:.1%} across aspects, limit 25%")
    if not ssy[1 / 16] >= 2.0 * ssy[1.0]:
        problems.append(
            f"column layout should pay >= 2x for wide queries: "
            f"{ssy[1 / 16]:.4f}s vs {ssy[1.0]:.4f}s")
    if not ssy[8.0] > ssy[4.0]:
        problems.append("column layout should keep rising for tall queries")
    if not sp[1.0] <= 2.0 * lb_sq:
        problems.append(
            f"block placement at square queries is {sp[1.0] / lb_sq:.2f}x the "
            f"floor, limit 2x")
    assert not problems, "; ".join(problems)


# -- criterion 7: no measurement beats the analytic floor --------------------

def test_criterion_07_lower_bound_dominance(all_rows):
    viol = [r for r in all_rows
            if not r["placement"].endswith("-lowerbound")
            and r["meas_total_s"] < r["_lb"] - 1e-9]
    if viol:
        by_placement = {}
        for r in viol:
            by_placement[r["placement"]] = by_placement.get(r["placement"], 0) + 1
        worst = min(viol, key=lambda r: r["meas_total_s"] - r["_lb"])
        gap = worst["meas_total_s"] - worst["_lb"]
        pytest.fail(
            f"{len(viol)} of {len(all_rows)} rows finish below the analytic "
            f"floor: {by_placement}; worst gap {gap:.4f}s "
            f"({gap / worst['_lb']:+.2%}) on {worst['placement']} in "
            f"experiment {worst['experiment']}")


# -- criterion 8: the cost model tracks the emulator ------------------------

def test_criterion_08_estimator_consistency(all_rows):
    worst_err, worst_row = 0.0, None
    for r in all_rows:
        if r["placement"].endswith("-lowerbound"):
            continue
        err = abs(r["est_total_s"] - r["meas_total_s"]) / r["meas_total_s"]
        if err > worst_err:
            worst_err, worst_row = err, r
    assert worst_err <= 0.15, (
        f"estimate off by {worst_err:.1%} on {worst_row['placement']} in "
        f"experiment {worst_row['experiment']}, limit 15%")


# -- criterion 9: retrieved bytes match each placement's contract ------------

def test_criterion_09_data_correctness_reduced_geometry():
    p = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                     n_active_tips=16)
    em = Emulator(p)
    enc = lambda a, b: struct.pack(">II", a, b)
    rng = random.Random(9)
    problems = []

    sch = RelationSchema(k=4, n=1600)
    rsy = RelLayoutRSY(p, sch)
    rp = RelLayoutRP(p, sch)
    nsm = NsmLayout(p, sch)
    dsm = DsmLayout(p, sch)
    images = {}
    for name, lay, writer in (("rsy", rsy, write_image_rsy),
                              ("rp", rp, write_image_rp),
                              ("nsm", nsm, write_image_nsm),
                              ("dsm", dsm, write_image_dsm)):
        images[name] = MediaImage(p)
        writer(lay, images[name], enc)

    every_cell = {enc(v, w) for v in range(1, sch.n + 1)
                  for w in range(1, sch.k + 1)}
    # the row store reads the whole relation whatever the query asks
    _, data = em.read(compile_nsm(nsm), images["nsm"])
    if _chunks8(data) != every_cell:
        problems.append("nsm: full-relation read returned the wrong byte set")

    for trial in range(40):
        proj = tuple(sorted(set(rng.sample(range(1, 5), rng.randint(1, 4))) | {1}))
        sel = rng.choice((0.05, 0.1, 0.25))
        qual = sorted(rng.sample(range(1, sch.n + 1), math.ceil(sel * sch.n)))
        q = RangeQuery(projected=proj, predicate_attr=1, bound=0, selectivity=sel)

        want = {enc(v, w) for v in range(1, sch.n + 1) for w in proj}
        _, data = em.read(compile_rsy(rsy, q), images["rsy"])
        if _chunks8(data) != want:
            problems.append(f"rsy: wrong byte set for projection {proj} (trial {trial})")
        _, data = em.read(compile_dsm(dsm, q), images["dsm"])
        if _chunks8(data) != want:
            problems.append(f"dsm: wrong byte set for projection {proj} (trial {trial})")

        want = ({enc(v, 1) for v in range(1, sch.n + 1)}
                | {enc(v, w) for v in qual for w in proj if w != 1})
        _, data = em.read(compile_rp(rp, q, qual), images["rp"])
        if _chunks8(data) != want:
            problems.append(
                f"rp: wrong byte set for projection {proj}, "
                f"{len(qual)} qualifiers (trial {trial})")

    space = SpatialSpace(width=64, height=64)
    ssy = SSYLayout(p, space)
    grid = build_block_grid(p, space, ratio=1.0)
    img_ssy, img_sp = MediaImage(p), MediaImage(p)
    write_image_ssy(ssy, img_ssy, enc)
    write_image_sp(grid, img_sp, enc)

    for trial in range(60):
        x0, y0 = rng.randint(1, 64), rng.randint(1, 64)
        qr = QueryRegion(x0=x0, y0=y0, qx=rng.randint(1, 70), qy=rng.randint(1, 70))
        x1 = min(x0 + qr.qx - 1, 64)
        y1 = min(y0 + qr.qy - 1, 64)
        want = {enc(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}
        _, data = em.read(compile_ssy(ssy, qr), img_ssy)
        if _chunks8(data) != want:
            problems.append(f"ssy: wrong byte set for rectangle {qr} (trial {trial})")
        _, data = em.read(compile_sp(grid, qr), img_sp)
        if _chunks8(data) != want:
            problems.append(f"sp: wrong byte set for rectangle {qr} (trial {trial})")

    assert not problems, "; ".join(problems)


# -- criterion 10: streaming a region reproduces the abstract rate ----------

def test_criterion_10_transfer_rate_identity():
    p = cmu_defaults()
    t = Emulator(p).execute(AccessPlan([
        Scan(tips=(1,), start=1, length=p.sectors_per_region)]))
    measured = p.sectors_per_region * p.sector_bits / t.total_s
    rel = abs(measured - p.transfer_rate_rs_bits_s) / p.transfer_rate_rs_bits_s
    assert rel <= 0.01, (
        f"single-tip region stream at {measured:.0f} b/s vs abstract rate "
        f"{p.transfer_rate_rs_bits_s:.0f} b/s, off by {rel:.2%}")
    # the abstract constants themselves stay pinned to the catalog figures
    assert p.transfer_rate_rs_bits_s == pytest.approx(0.644e6, abs=0.001e6)
    assert p.seek_time_rs_s == pytest.approx(0.735e-3, rel=1e-9)


# -- the default sweeps' output stays byte-identical -------------------------

# sha256 of csv_text of each default sweep (seeds 0-19): a speed-up or
# refactor must leave every cell of the paper's four sweeps in place
_DEFAULT_CSV_DIGESTS = {
    1: "d07db7f2c011a72dda96552bcb1a1cecd9d0938463dcef55f0ed724d8a6f1042",
    2: "87540f412dab7153f28df35449157f77f5e3d81239d014e929f61fc76f4d5e82",
    3: "dd3c9b758f72b1b22646ce4da223418777081d3e6ace026a2793458648b0e702",
    4: "4d9ce6349b7a88798a59cb07702c99d6231637de1dcca6f37f2ecc5c4d885786",
}


def test_default_sweep_csvs_pinned(exp1, exp2, exp3, exp4):
    digests = {i: hashlib.sha256(bench.csv_text(rows).encode()).hexdigest()
               for i, rows in enumerate((exp1, exp2, exp3, exp4), 1)}
    moved = [i for i in digests if digests[i] != _DEFAULT_CSV_DIGESTS[i]]
    assert not moved, f"default sweeps whose CSV moved: experiments {moved}"
