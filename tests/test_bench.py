"""Benchmark harness tests.

The harness wires placements, workloads, the emulator, and the
estimator into CSV rows.  Oracles here are small sweeps whose rows can
be checked against direct module calls and hand-computed lower bounds.
"""

import hashlib
import random

import pytest

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
    write_csv,
)
from memsrs.device import cmu_defaults
from memsrs.emulator import Emulator
from memsrs.relational import RangeQuery, RelationSchema, RelLayoutRSY, compile_rsy
from perfbench import tracing

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


def test_infeasible_spatial_point_is_named():
    with pytest.raises(ValueError, match=r"experiment 4, query_frac=0\.1, "
                       r"aspect=0\.0625, seed=0: query shape 506x8095") as info:
        run_experiment4(query_frac=0.1, aspects=(1 / 16,), seeds=(0,))
    assert isinstance(info.value.__cause__, ValueError)


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


def test_write_csv_roundtrip(tmp_path):
    rows = small_exp1(seeds=(0,))
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    text = path.read_text()
    assert text == csv_text(rows)
    assert text.endswith("\n")


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
], ids=["exp1", "exp2", "exp3", "exp4"])
def test_sweep_csv_bytes_pinned(run, kw, digest):
    # any cell that moves changes the hash; a refactor must keep them all
    assert hashlib.sha256(csv_text(run(**kw)).encode()).hexdigest() == digest


# -- benchmark tracer --------------------------------------------------------

def test_every_tracer_target_binds():
    # the benchmark's tracer wraps memsrs functions and methods by name; a
    # target that binds nowhere would leave its layer silently untimed
    bound = {target for _, _, _, target in tracing.target_bindings()}
    assert [t for t in tracing.TARGETS if t not in bound] == []
