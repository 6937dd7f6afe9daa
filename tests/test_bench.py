"""Benchmark harness tests.

The harness wires placements, workloads, the emulator, and the
estimator into CSV rows.  Oracles here are small sweeps whose rows can
be checked against direct module calls and hand-computed lower bounds.
"""

import hashlib
import random
import re

import pytest

from memsrs import bench, relational
from memsrs.bench import (
    RELATIONAL_FIELDS,
    RELATIONAL_PLACEMENTS,
    SPATIAL_FIELDS,
    SPATIAL_PLACEMENTS,
    csv_text,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    run_experiment4,
    sort_rows,
)
from memsrs.device import DeviceParams, cmu_defaults
from memsrs.emulator import Emulator
from memsrs.relational import RangeQuery, RelationSchema, RelLayoutRSY, compile_rsy
from perfbench import readback, tracing, workloads

CMU = cmu_defaults()
NAPT = CMU.n_active_tips


def small_exp1(**kw):
    kw.setdefault("sizes_mb", (5,))
    kw.setdefault("seeds", (0, 1, 2))
    return run_experiment1(**kw)


# -- row shape and ordering ------------------------------------------------

def test_exp1_row_count_and_constants():
    rows = small_exp1()
    assert len(rows) == len(RELATIONAL_PLACEMENTS) * 1 * 3
    for r in rows:
        assert r["experiment"] == 1
        assert r["data_mb"] == 5
        assert r["n_projection"] == 8
        assert r["selectivity"] == 0.1
        for field in RELATIONAL_FIELDS:
            assert field in r
        assert "_bits" in r and "_lb" in r


def test_rows_sorted_by_placement_sweep_seed():
    rows = run_experiment1(sizes_mb=(10, 5), seeds=(1, 0))
    key = [(r["placement"], r["data_mb"], r["seed"]) for r in rows]
    assert key == sorted(key)
    assert rows[0]["placement"] == "dsm-griffin"
    assert (rows[0]["data_mb"], rows[0]["seed"]) == (5, 0)


def test_sort_rows_shuffle_roundtrip():
    rows = small_exp1()
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    assert sort_rows(shuffled) == rows


def test_rerun_byte_identical():
    a = csv_text(small_exp1())
    b = csv_text(small_exp1())
    assert a == b


def test_unknown_placement_rejected():
    with pytest.raises(ValueError):
        small_exp1(placements=("spatial-parallel",))
    with pytest.raises(ValueError):
        run_experiment3(query_fracs=(0.0001,), seeds=(0,),
                        placements=("nsm-griffin",))


# -- lower-bound rows ------------------------------------------------------

def test_relational_lowerbound_row_values():
    rows = small_exp1(seeds=(0,), placements=("relational-lowerbound",))
    (r,) = rows
    n = 5 * 2**20 // (16 * 8)
    bits = (n // 10) * 8 * 64  # ceil(0.1 * 40960) qualifiers, 8 attrs, 64 bits
    expect = bits / (CMU.tip_rate_bits_s * NAPT)
    assert r["scans"] == 0
    assert r["k_random"] == 0.0
    assert r["k_parallel"] == float(NAPT)
    assert r["seek_s"] == 0.0
    assert r["meas_total_s"] == pytest.approx(expect, rel=1e-12)
    assert r["meas_total_s"] == r["est_total_s"] == r["transfer_s"] == r["_lb"]
    assert r["_bits"] == bits


def test_spatial_lowerbound_row_values():
    rows = run_experiment3(query_fracs=(0.0001,), seeds=(0,),
                           placements=("spatial-lowerbound",))
    (r,) = rows
    bits = 64 * 64 * 64  # 0.01% of 6400x6400 is a 64x64 square of sectors
    assert (r["qx"], r["qy"]) == (64, 64)
    assert r["n_query_blocks"] == 0
    assert r["meas_total_s"] == pytest.approx(
        bits / (CMU.tip_rate_bits_s * NAPT), rel=1e-12)
    assert r["meas_total_s"] == r["est_total_s"] == r["_lb"]


# -- measured rows against direct module calls ------------------------------

def test_sequential_yu_row_matches_direct_emulation():
    rows = small_exp1(seeds=(0,), placements=("relational-sequential-yu",))
    (r,) = rows
    sch = RelationSchema(k=16, n=5 * 2**20 // (16 * 8))
    query = RangeQuery(projected=tuple(range(1, 9)), predicate_attr=1,
                       bound=1_000_000, selectivity=0.1)
    plan = compile_rsy(RelLayoutRSY(CMU, sch), query)
    t = Emulator(CMU).execute(plan)
    assert r["meas_total_s"] == t.total_s
    assert r["scans"] == len(plan.scans)
    assert r["_bits"] == t.n_sectors * CMU.sector_bits


def test_measured_rows_internally_consistent():
    rows = small_exp1(seeds=(0, 1))
    rows += run_experiment3(query_fracs=(0.0001, 0.001, 0.01), seeds=(0, 1, 2))
    for r in rows:
        assert r["meas_total_s"] == r["seek_s"] + r["transfer_s"]
        assert r["k_parallel"] > 0
        assert r["est_total_s"] > 0


def test_region_sector_placements_dominate_lower_bound():
    # the linear baselines stream with fewer settles than the averaged
    # Region-Sector rate charges, so they test that the floor is a floor
    rows = small_exp1(placements=("relational-sequential-yu",
                                  "relational-parallel", "nsm-griffin",
                                  "dsm-griffin"))
    for r in rows:
        assert r["meas_total_s"] >= r["_lb"] - 1e-9


def test_parallel_row_estimate_close():
    rows = small_exp1(seeds=(0,), placements=("relational-parallel",))
    (r,) = rows
    assert abs(r["est_total_s"] - r["meas_total_s"]) / r["meas_total_s"] <= 0.15


# -- seed and query independence of the fixed layouts -----------------------

def test_sequential_yu_rows_seed_independent():
    rows = small_exp1(placements=("relational-sequential-yu",))
    times = {r["meas_total_s"] for r in rows}
    assert len(times) == 1


def test_nsm_rows_projection_independent_and_dsm_meets_it_at_full_width():
    rows = run_experiment2(size_mb=5, n_projections=(1, 4, 16), seeds=(0,),
                           placements=("nsm-griffin", "dsm-griffin"))
    nsm = [r for r in rows if r["placement"] == "nsm-griffin"]
    dsm = {r["n_projection"]: r for r in rows if r["placement"] == "dsm-griffin"}
    assert [r["n_projection"] for r in nsm] == [1, 4, 16]
    assert len({r["meas_total_s"] for r in nsm}) == 1
    # full-width projection reads the same blocks in the same order
    assert dsm[16]["meas_total_s"] == nsm[0]["meas_total_s"]
    assert dsm[1]["meas_total_s"] < nsm[0]["meas_total_s"]


def test_parallel_time_grows_with_projection_width():
    rows = run_experiment2(size_mb=5, n_projections=(1, 16), seeds=(0,),
                           placements=("relational-parallel",))
    by_nproj = {r["n_projection"]: r["meas_total_s"] for r in rows}
    assert by_nproj[16] > by_nproj[1]


@pytest.mark.parametrize("size_mb", [5, 320])
def test_parallel_rows_seed_independent_at_default_selectivity(size_mb):
    # at sigma = 0.1 every band row holds between 1 and n_active_tips
    # qualifying tuples whatever the draw, so RP prices each seed's plan
    # alike; this is why a new qualifying-set sampler keeps the CSV bytes
    rows = run_experiment2(size_mb=size_mb, n_projections=(1, 8, 16),
                           seeds=(0, 1, 2), placements=("relational-parallel",))
    times = {}
    for r in rows:
        times.setdefault(r["n_projection"], set()).add(r["meas_total_s"])
    assert sorted(times) == [1, 8, 16]
    assert all(len(t) == 1 for t in times.values())


# -- spatial sweeps ----------------------------------------------------------

def test_exp3_rows_and_block_counts():
    rows = run_experiment3(query_fracs=(0.0001,), seeds=(0, 1))
    assert len(rows) == len(SPATIAL_PLACEMENTS) * 2
    for r in rows:
        assert r["experiment"] == 3
        assert r["aspect"] == 1
        assert r["query_frac"] == 0.0001
        assert (r["qx"], r["qy"]) == (64, 64)
        assert r["data_mb"] == 312.5
        for field in SPATIAL_FIELDS:
            assert field in r
    sp = [r for r in rows if r["placement"] == "spatial-parallel"]
    ssy = [r for r in rows if r["placement"] == "spatial-sequential-yu"]
    assert all(r["n_query_blocks"] >= 1 for r in sp)
    assert all(r["n_query_blocks"] == 64 for r in ssy)


def test_exp3_same_seed_same_query_rectangle():
    rows = run_experiment3(query_fracs=(0.001,), seeds=(7,))
    origins = {(r["qx"], r["qy"]) for r in rows}
    assert len(origins) == 1


def test_exp4_stripe_layout_pays_for_tall_queries():
    rows = run_experiment4(aspects=(8, 4), seeds=(0,),
                           placements=("spatial-sequential-yu",))
    by_aspect = {r["aspect"]: r for r in rows}
    assert by_aspect[8]["qx"] == 1810 and by_aspect[4]["qx"] == 1280
    # 1810 stripes need two activation rounds, 1280 exactly one
    assert by_aspect[8]["meas_total_s"] > by_aspect[4]["meas_total_s"]
    for r in rows:
        assert r["query_frac"] == 0.01 and r["experiment"] == 4


@pytest.mark.parametrize("placement", RELATIONAL_PLACEMENTS)
def test_relation_larger_than_the_device_is_named(placement):
    # about 100 GB against 3296 MiB: no placement, the lower bound
    # included, can hold it
    with pytest.raises(ValueError, match=(
            r"^experiment 1, data_mb=100000, n_projection=8: relation needs "
            r"13107200000 sectors, the device holds 432000000$")):
        run_experiment1(sizes_mb=(100000,), seeds=(0,), placements=(placement,))


@pytest.mark.parametrize("run, kw, message", [
    (run_experiment1, {"sizes_mb": (0.0001,)},
     r"^experiment 1, data_mb=0\.0001, n_projection=8: no 128-byte tuple "
     r"fits in 0\.0001 MB$"),
    # fits the device's sectors, but 16 bands of 4219 rows exceed 67500
    (run_experiment2, {"size_mb": 3295.7, "n_projections": (1,),
                       "placements": ("relational-parallel",)},
     r"^experiment 2, data_mb=3295\.7, n_projection=1: relation does not "
     r"fit the device under this layout$"),
    (run_experiment1, {"sizes_mb": (float("inf"),)},
     r"^experiment 1, data_mb=inf, n_projection=8: data size inf MB is not "
     r"finite$"),
    (run_experiment1, {"sizes_mb": (float("nan"),)},
     r"^experiment 1, data_mb=nan, n_projection=8: data size nan MB is not "
     r"finite$"),
], ids=["no-tuple", "layout", "inf", "nan"])
def test_infeasible_relational_point_is_named(run, kw, message):
    with pytest.raises(ValueError, match=message) as info:
        run(seeds=(0,), **kw)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.fixture
def no_rows(monkeypatch):
    def fail(*args):
        raise AssertionError("a row was made before the sweep was checked")
    monkeypatch.setattr(bench, "_measured_row", fail)
    monkeypatch.setattr(bench, "_lowerbound_row", fail)


def test_infeasible_relational_point_fails_before_any_row(no_rows):
    with pytest.raises(ValueError, match=r"^experiment 1, data_mb=100000, "):
        run_experiment1(sizes_mb=(5, 100000), seeds=(0,))


def test_non_finite_size_fails_before_any_row(no_rows):
    with pytest.raises(ValueError, match=r"^experiment 1, data_mb=inf, "):
        run_experiment1(sizes_mb=(5, float("inf")), seeds=(0,))


@pytest.mark.parametrize("run, kw, message", [
    (run_experiment2, {"n_projections": (3, 0)},
     "experiment 2, data_mb=320, n_projection=0: projection width 0 is "
     "below 1"),
    (run_experiment2, {"n_projections": (3, 17)},
     "experiment 2, data_mb=320, n_projection=17: projection width 17 "
     "exceeds schema k=16"),
    (run_experiment2, {"n_projections": (3, 2.5)},
     "experiment 2, data_mb=320, n_projection=2.5: projection width must "
     "be an integer, got 2.5"),
    (run_experiment2, {"n_projections": (3, True)},
     "experiment 2, data_mb=320, n_projection=True: projection width must "
     "be an integer, got True"),
    (run_experiment1, {"n_projection": -1},
     "experiment 1, data_mb=5, n_projection=-1: projection width -1 is "
     "below 1"),
], ids=["zero", "above-k", "float", "bool", "exp1-negative"])
def test_bad_projection_width_fails_named_before_any_row(no_rows, run, kw,
                                                          message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(seeds=(0,), **kw)


@pytest.mark.parametrize("run, seeds, message", [
    (run_experiment1, ("0",), "experiment 1: seed must be an integer, got '0'"),
    (run_experiment1, (1.5,), "experiment 1: seed must be an integer, got 1.5"),
    (run_experiment2, (0, "0"),
     "experiment 2: seed must be an integer, got '0'"),
    (run_experiment3, (True,),
     "experiment 3: seed must be an integer, got True"),
    (run_experiment4, (0, None),
     "experiment 4: seed must be an integer, got None"),
], ids=["exp1-str", "exp1-float", "exp2-mixed", "exp3-bool", "exp4-none"])
def test_non_integer_seed_fails_named_before_any_row(no_rows, run, seeds,
                                                      message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(seeds=seeds)


@pytest.mark.parametrize("run, kw, message", [
    (run_experiment1, {"sizes_mb": (5, "5")},
     "experiment 1, data_mb='5', n_projection=8: data size must be a real "
     "number, got '5'"),
    (run_experiment1, {"sizes_mb": (True,)},
     "experiment 1, data_mb=True, n_projection=8: data size must be a real "
     "number, got True"),
    (run_experiment2, {"size_mb": "5"},
     "experiment 2, data_mb='5', n_projection=1: data size must be a real "
     "number, got '5'"),
    (run_experiment3, {"query_fracs": (0.01, "0.01")},
     "experiment 3, query_frac='0.01', aspect=1: query size fraction must "
     "be a real number, got '0.01'"),
    (run_experiment3, {"aspect": "1"},
     "experiment 3, query_frac=0.0001, aspect='1': query aspect must be a "
     "real number, got '1'"),
    (run_experiment4, {"aspects": (1, None)},
     "experiment 4, query_frac=0.01, aspect=None: query aspect must be a "
     "real number, got None"),
    (run_experiment4, {"query_frac": b"0.01"},
     "experiment 4, query_frac=b'0.01', aspect=16: query size fraction must "
     "be a real number, got b'0.01'"),
    # a point that cannot be hashed is still checked for repeats first
    (run_experiment4, {"query_frac": [0.01]},
     "experiment 4, query_frac=[0.01], aspect=16: query size fraction must "
     "be a real number, got [0.01]"),
    (run_experiment1, {"sizes_mb": ([5],)},
     "experiment 1, data_mb=[5], n_projection=8: data size must be a real "
     "number, got [5]"),
], ids=["exp1-str", "exp1-bool", "exp2-str", "exp3-frac", "exp3-aspect",
        "exp4-aspect", "exp4-bytes", "exp4-list", "exp1-list"])
def test_non_number_sweep_point_fails_named_before_any_row(no_rows, run, kw,
                                                           message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(seeds=(0,), **kw)


def test_huge_integer_size_is_named_not_overflowed(no_rows):
    # a size too large for a float still names its point
    with pytest.raises(ValueError, match=re.escape(
            f"experiment 1, data_mb={10**400}, n_projection=8: relation "
            f"needs ")):
        run_experiment1(sizes_mb=(10**400,), seeds=(0,))


@pytest.mark.parametrize("kw, message", [
    ({"aspect": 10**400},
     f"experiment 3, query_frac=0.0001, aspect={10**400}, seed=0: query of "
     f"size fraction 0.0001 and aspect {10**400} does not fit the space"),
    ({"query_fracs": (10**400,)},
     f"experiment 3, query_frac={10**400}, aspect=1, seed=0: query of size "
     f"fraction {10**400} and aspect 1.0 does not fit the space"),
], ids=["aspect", "frac"])
def test_huge_integer_query_shape_is_named_not_overflowed(no_rows, kw, message):
    # an integer shape too large for a float is rejected by value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment3(seeds=(0,), **kw)


@pytest.mark.parametrize("run, selectivity, message", [
    (run_experiment1, 1.5, "experiment 1: selectivity 1.5 is not within [0, 1]"),
    (run_experiment1, -0.1,
     "experiment 1: selectivity -0.1 is not within [0, 1]"),
    (run_experiment2, float("nan"),
     "experiment 2: selectivity nan is not within [0, 1]"),
    (run_experiment1, "0.1",
     "experiment 1: selectivity must be a real number, got '0.1'"),
    (run_experiment2, True,
     "experiment 2: selectivity must be a real number, got True"),
    (run_experiment1, 10**400,
     f"experiment 1: selectivity {10**400} is not within [0, 1]"),
], ids=["above-1", "negative", "nan", "str", "bool", "huge-int"])
def test_bad_selectivity_fails_named_before_any_row(no_rows, run, selectivity,
                                                     message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(selectivity=selectivity, seeds=(0,))


@pytest.mark.parametrize("run, kw, message", [
    (run_experiment1, {"sizes_mb": (5, 10, 5)},
     r"experiment 1, data_mb=5, n_projection=8: sweep point"),
    (run_experiment1, {"sizes_mb": (5,), "seeds": (0, 1, 0)},
     r"experiment 1: seed 0"),
    (run_experiment1, {"sizes_mb": (5,),
                       "placements": ("nsm-griffin", "nsm-griffin")},
     r"placement 'nsm-griffin'"),
    (run_experiment2, {"size_mb": 5, "n_projections": (1, 1)},
     r"experiment 2, data_mb=5, n_projection=1: sweep point"),
    (run_experiment3, {"query_fracs": (0.0001, 0.0001)},
     r"experiment 3, query_frac=0\.0001, aspect=1: sweep point"),
    (run_experiment4, {"aspects": (1, 1 / 2, 1)},
     r"experiment 4, query_frac=0\.01, aspect=1: sweep point"),
    (run_experiment4, {"seeds": (3, 3)}, r"experiment 4: seed 3"),
    (run_experiment4, {"placements": ("spatial-lowerbound",) * 2},
     r"placement 'spatial-lowerbound'"),
], ids=["exp1-point", "exp1-seed", "exp1-placement", "exp2-point",
        "exp3-point", "exp4-point", "exp4-seed", "exp4-placement"])
def test_repeated_input_fails_before_any_row(run, kw, message, no_rows):
    # a repeat would only duplicate rows
    with pytest.raises(ValueError, match=f"^{message} listed twice$"):
        run(**{"seeds": (0,), **kw})


@pytest.mark.parametrize("run, kw, message", [
    (run_experiment3, {"query_fracs": (0.0001,),
                       "placements": ("spatial-sequential-yu",),
                       "curve": "peano"},
     r"unknown curve 'peano'; expected one of hilbert, zorder"),
    (run_experiment1, {"sizes_mb": (5,),
                       "placements": ("relational-lowerbound",),
                       "seek_model": "bogus"},
     r"unknown seek model: 'bogus'"),
    (run_experiment4, {"placements": ("spatial-lowerbound",),
                       "seek_model": "bogus"},
     r"unknown seek model: 'bogus'"),
    (run_experiment1, {"sizes_mb": (5,), "placements": ("nsm-griffin",),
                       "qual_mode": "bogus"},
     r"unknown qualifying mode 'bogus'; expected one of uniform"),
], ids=["exp3-curve", "exp1-seek-model", "exp4-seek-model", "exp1-qual-mode"])
def test_unknown_option_fails_before_any_row(run, kw, message, no_rows):
    # checked even when no chosen placement uses the option
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(**{"seeds": (0,), **kw})


_SWEEP_POINTS = {run_experiment1: "sizes_mb", run_experiment2: "n_projections",
                 run_experiment3: "query_fracs", run_experiment4: "aspects"}


@pytest.mark.parametrize("run", _SWEEP_POINTS, ids=["exp1", "exp2", "exp3",
                                                    "exp4"])
@pytest.mark.parametrize("arg, value, message", [
    ("placements", "relational-parallel",
     "placements must be a sequence, got 'relational-parallel'"),
    ("seeds", 3, "seeds must be a sequence, got 3"),
    ("points", 5.0, "{points} must be a sequence, got 5.0"),
    ("points", "5", "{points} must be a sequence, got '5'"),
    ("params", "cmu", "params must be a DeviceParams, got 'cmu'"),
], ids=["placements-str", "seeds-int", "points-float", "points-str",
        "params-str"])
def test_bad_sweep_argument_fails_named_before_any_row(no_rows, run, arg,
                                                       value, message):
    # a string is not split into characters, nor a scalar left to raise
    # a bare TypeError or AttributeError
    points = _SWEEP_POINTS[run]
    experiment = re.search(r"\d$", run.__name__).group()
    want = f"experiment {experiment}: {message.format(points=points)}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        run(**{points if arg == "points" else arg: value})


def test_infeasible_spatial_point_fails_before_any_row(no_rows):
    # aspect 1 is feasible and comes first; 1/16 of a 10% query is not
    with pytest.raises(ValueError, match=r"^experiment 4, query_frac=0\.1, "
                       r"aspect=0\.0625, seed=0: query shape 506x8095"):
        run_experiment4(query_frac=0.1, aspects=(1, 1 / 16), seeds=(0,))


def test_infeasible_spatial_point_fails_with_no_seeds():
    # no seed changes the query shape, so a run that draws no query still
    # rejects it, naming the point
    with pytest.raises(ValueError, match=r"^experiment 4, query_frac=0\.1, "
                       r"aspect=0\.0625: query shape 506x8095"):
        run_experiment4(query_frac=0.1, aspects=(1, 1 / 16), seeds=())


@pytest.mark.parametrize("run, kw", [
    (run_experiment1, {"sizes_mb": (5, 10)}),
    (run_experiment2, {"size_mb": 5, "n_projections": (1, 8)}),
], ids=["exp1", "exp2"])
def test_each_run_is_priced_once(monkeypatch, run, kw):
    # these placements' plans do not vary with the seed, so the three
    # seeds' rows share one run, and so one pricing of its trace
    executed, priced = [], []
    execute, trace_k_values = Emulator.execute, bench.trace_k_values

    def counted_execute(self, plan):
        executed.append(plan)
        return execute(self, plan)

    def counted_trace(*args):
        priced.append(args)
        return trace_k_values(*args)
    monkeypatch.setattr(Emulator, "execute", counted_execute)
    monkeypatch.setattr(bench, "trace_k_values", counted_trace)
    rows = run(seeds=(0, 1, 2), placements=("relational-sequential-yu",
                                            "nsm-griffin", "dsm-griffin"),
               **kw)
    assert len(rows) == 3 * 2 * 3
    assert executed and len(priced) == len(executed)


def test_qualifying_band_scanned_once_per_size_and_seed(monkeypatch):
    # every width of a (size, seed) shares one band, so its rows are cut
    # and scanned once, not once per width; each plan only places them
    scanned = []
    layer_scans = relational.layer_scans

    def counted(start, unit_rows, unit_tips, p):
        scanned.append(len(unit_tips))
        return layer_scans(start, unit_rows, unit_tips, p)
    monkeypatch.setattr(relational, "layer_scans", counted)
    rows = run_experiment2(size_mb=20, n_projections=(1, 2, 8, 16),
                           seeds=(0, 1), placements=("relational-parallel",))
    assert len(rows) == 4 * 2
    assert scanned == [26, 26]  # 20 MB holds 163,840 tuples: 26 band rows


def test_block_grid_built_once_per_block_shape(monkeypatch):
    # the nine default aspects pick five block shapes: 320x20, 160x40,
    # 80x80, 40x160 and 20x320, each ordered once
    shapes = []
    build = bench.build_block_grid

    def counted(*args, **kwargs):
        grid = build(*args, **kwargs)
        shapes.append((grid.B_x, grid.B_y))
        return grid
    monkeypatch.setattr(bench, "build_block_grid", counted)
    run_experiment4(seeds=(0,), placements=("spatial-parallel",))
    assert len(shapes) == 5 and len(set(shapes)) == 5


def test_spatial_grid_error_names_the_point():
    # 48x48 regions give 48x48 blocks, which 6400 is no multiple of
    with pytest.raises(ValueError, match=(
            r"^experiment 4, query_frac=0\.01, aspect=1: 48x48 blocks do not "
            r"tile the 6400x6400 space$")) as info:
        run_experiment4(DeviceParams(regions_x=48, regions_y=48), aspects=(1,),
                        seeds=(0,))
    assert isinstance(info.value.__cause__, ValueError)


def test_spatial_grid_is_checked_without_seeds_and_not_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(bench, "build_block_grid", no_build)
    assert run_experiment4(aspects=(1, 16), seeds=()) == []
    with pytest.raises(ValueError, match=(
            r"^experiment 4, query_frac=0\.01, aspect=1: 48x48 blocks do not "
            r"tile the 6400x6400 space$")):
        run_experiment4(DeviceParams(regions_x=48, regions_y=48), aspects=(1,),
                        seeds=())


def test_infeasible_spatial_point_is_named():
    with pytest.raises(ValueError, match=r"experiment 4, query_frac=0\.1, "
                       r"aspect=0\.0625, seed=0: query shape 506x8095") as info:
        run_experiment4(query_frac=0.1, aspects=(1 / 16,), seeds=(0,))
    assert isinstance(info.value.__cause__, ValueError)


def test_non_finite_query_aspect_is_named():
    with pytest.raises(ValueError, match=r"experiment 4, query_frac=0\.01, "
                       r"aspect=inf, seed=0: query aspect must be positive"):
        run_experiment4(query_frac=0.01, aspects=(float("inf"),), seeds=(0,))


# -- CSV rendering -----------------------------------------------------------

def test_relational_csv_header_and_cells():
    text = csv_text(small_exp1(seeds=(0,)))
    lines = text.splitlines()
    assert lines[0] == ("experiment,placement,data_mb,n_projection,selectivity,"
                        "meas_total_s,est_total_s,seek_s,transfer_s,scans,"
                        "k_parallel,k_random,seed")
    assert len(lines) == 1 + len(RELATIONAL_PLACEMENTS)
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[2] == "5"
    assert cells[4] == "0.1"
    whole, frac = cells[5].split(".")
    assert whole.isdigit() and len(frac) == 9


def test_spatial_csv_header_and_cells():
    rows = run_experiment4(aspects=(0.0625,), seeds=(0,),
                           placements=("spatial-lowerbound",))
    lines = csv_text(rows).splitlines()
    assert lines[0] == ("experiment,placement,data_mb,n_projection,selectivity,"
                        "meas_total_s,est_total_s,seek_s,transfer_s,scans,"
                        "k_parallel,k_random,query_frac,aspect,qx,qy,"
                        "n_query_blocks,seed")
    cells = lines[1].split(",")
    assert cells[2] == "312.5"
    assert cells[3] == "" and cells[4] == ""
    assert cells[13] == "0.0625"


# -- CSV pin ---------------------------------------------------------------

@pytest.mark.parametrize("run, kw, digest", [
    (run_experiment1, dict(sizes_mb=(5, 320), seeds=(0, 1)),
     "dbdfe305ff402d3355e8dc728e3288e1bf3d4fe4c67051c19dc54e45837a72ab"),
    (run_experiment2, dict(n_projections=(1, 8, 16), seeds=(0,)),
     "4a5d9e0171cc7bb37cb4c408841f261a2f652e70d23a5dd03ddfdb002a6e5f06"),
    (run_experiment3, dict(query_fracs=(0.0001, 0.01), seeds=(0, 1, 2)),
     "029fc51e9e77567e1f1b49dc53983b4cd8001bcb840c01924d10c5cea5539f71"),
    (run_experiment4, dict(aspects=(16, 1, 1 / 16), seeds=(0, 1)),
     "60824a7a83eba17e2c48d23fe46c8a74c5839eaf1e485b55e1ba302a634241f5"),
    # half the tuples qualify, so each band row is read in several layers
    (run_experiment1, dict(sizes_mb=(5, 320), seeds=(0, 1), selectivity=0.5),
     "d2edb19bedc80cdbe364a777a3c359f739dbcea1dbb3a1dfd5e5f2781ccb9809"),
], ids=["exp1", "exp2", "exp3", "exp4", "exp1-half"])
def test_sweep_csv_bytes_pinned(run, kw, digest):
    # any cell that moves changes the hash; a refactor must keep them all
    assert hashlib.sha256(csv_text(run(**kw)).encode()).hexdigest() == digest


def test_readback_output_pinned():
    # every read's placement, query, simulated time, length and byte hash
    text, _ = workloads.summary("readback", readback.run(readback.device(), 0))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "10eaeb84b2db21d1cad666706a1f440c3bd6020f9e088f821c721e65c117ba14")


# -- benchmark tracer --------------------------------------------------------

def test_every_tracer_target_binds():
    # the benchmark's tracer wraps memsrs functions and methods by name; a
    # target that binds nowhere would leave its layer silently untimed
    bound = {target for _, _, _, target in tracing.target_bindings()}
    assert [t for t in tracing.TARGETS if t not in bound] == []
