"""Retrieval-time benchmark sweeps over the placement engines.

Four stock sweeps: relational data-size and projection-width sweeps,
and spatial query-size and query-aspect sweeps.  Every (placement,
sweep point, seed) combination is compiled by its placement engine and
executed on a fresh emulator in metadata-only mode; the row reports the
measured timing next to the averages-model estimate realized by the
run's own trace.

Rows are plain dicts keyed by the CSV column names, plus two private
keys used by the test suite: ``_bits`` (sectors transferred times
sector size; for lower-bound rows, the minimal retrieval volume) and
``_lb`` (``cost.lower_bound`` of ``_bits``: the bits at the raw per-tip
rate across ``n_active_tips`` tips, with no settles, turnarounds or
seeks).  Each emulated row step costs one sector time and moves at most
``n_active_tips`` sectors, so every measured row finishes at or above
its ``_lb``.

The ``seek_s`` column is repositioning time (seeks plus direction
reversals) and ``transfer_s`` is streaming time (sector transfers plus
column-crossing settles), so the two always sum to ``meas_total_s``.
Lower-bound rows have ``meas_total_s == est_total_s == _lb`` and zero
scans and seeks by construction.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cost import CostInput, estimate, lower_bound, trace_k_values
from .device import DeviceParams, cmu_defaults
from .emulator import Emulator, Timing
from .linear import DsmLayout, NsmLayout, compile_dsm, compile_nsm
from .relational import (RangeQuery, RelationSchema, RelLayoutRP,
                         RelLayoutRSY, compile_rp, compile_rsy)
from .rs import RSParams, rs_params
from .spatial import (SSYLayout, build_block_grid, compile_sp, compile_ssy,
                      query_block_set)
from .workload import (PREDICATE_BOUND, exact_ceil, gen_query_region,
                       gen_relation, gen_spatial)

RELATIONAL_PLACEMENTS = ("relational-parallel", "relational-sequential-yu",
                         "relational-lowerbound", "nsm-griffin", "dsm-griffin")
SPATIAL_PLACEMENTS = ("spatial-parallel", "spatial-sequential-yu",
                      "spatial-lowerbound")

RELATIONAL_FIELDS = ("experiment", "placement", "data_mb", "n_projection",
                     "selectivity", "meas_total_s", "est_total_s", "seek_s",
                     "transfer_s", "scans", "k_parallel", "k_random", "seed")
SPATIAL_FIELDS = RELATIONAL_FIELDS[:-1] + ("query_frac", "aspect", "qx", "qy",
                                           "n_query_blocks", "seed")

SIZES_MB = (5, 10, 20, 40, 80, 160, 320)
QUERY_FRACS = (0.0001, 0.001, 0.01, 0.1)
ASPECTS = (16, 8, 4, 2, 1, 1 / 2, 1 / 4, 1 / 8, 1 / 16)

Row = Dict[str, object]


# -- row assembly ------------------------------------------------------------

def _measured_row(base: Row, t: Timing, n_scans: int,
                  rs: RSParams, p: DeviceParams) -> Row:
    ci = trace_k_values(t, rs, p)
    est = estimate(ci, rs)
    row = dict(base)
    row.update(meas_total_s=t.total_s, est_total_s=est.total_s,
               seek_s=t.seek_s + t.turnaround_s,
               transfer_s=t.transfer_s + t.settle_s,
               scans=n_scans, k_parallel=ci.k_parallel, k_random=ci.k_random,
               _bits=ci.bits,
               _lb=lower_bound(ci.bits, p).total_s)
    return row


def _lowerbound_row(base: Row, bits: float, p: DeviceParams) -> Row:
    lb = lower_bound(bits, p).total_s
    row = dict(base)
    row.update(meas_total_s=lb, est_total_s=lb, seek_s=0.0, transfer_s=lb,
               scans=0, k_parallel=float(p.n_active_tips), k_random=0.0,
               _bits=bits, _lb=lb)
    return row


def _get(cache: dict, key, make):
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _check_placements(given: Sequence[str], known: Sequence[str]) -> None:
    for name in given:
        if name not in known:
            raise ValueError(f"unknown placement {name!r}; "
                             f"expected one of {', '.join(known)}")


# -- relational sweeps --------------------------------------------------------

def _relational_rows(params: DeviceParams, experiment: int,
                     points: Iterable[Tuple[float, int]], *, k: int,
                     attr_bytes: int, selectivity: float,
                     seeds: Sequence[int], placements: Sequence[str],
                     qual_mode: str, seek_model: str) -> List[Row]:
    _check_placements(placements, RELATIONAL_PLACEMENTS)
    rs = rs_params(params)
    attr_bits = attr_bytes * 8
    layouts: dict = {}
    fixed: Dict[tuple, Tuple[Timing, int]] = {}
    qualmaps: dict = {}
    out: List[Row] = []

    def qual_and_rows(lay: RelLayoutRP, n: int, seed: int):
        qual = gen_relation(n, k=k, attr_bytes=attr_bytes,
                            seed=seed).qualifying_set(selectivity, qual_mode)
        return qual, lay.qualifying_rows(qual)

    for size_mb, nproj in points:
        n = int(size_mb * 2**20) // (k * attr_bytes)
        sch = _get(layouts, ("schema", n),
                   lambda: RelationSchema(k=k, n=n, attr_bits=attr_bits))
        query = RangeQuery(projected=tuple(range(1, nproj + 1)),
                           predicate_attr=1, bound=PREDICATE_BOUND,
                           selectivity=selectivity)
        for placement in placements:
            for seed in seeds:
                base: Row = {"experiment": experiment, "placement": placement,
                             "data_mb": size_mb, "n_projection": nproj,
                             "selectivity": selectivity, "seed": seed}
                if placement == "relational-lowerbound":
                    bits = exact_ceil(selectivity, n) * nproj * attr_bits
                    out.append(_lowerbound_row(base, bits, params))
                    continue
                if placement == "relational-parallel":
                    lay = _get(layouts, ("rp", n),
                               lambda: RelLayoutRP(params, sch))
                    qual, rmap = _get(qualmaps, (n, seed),
                                      lambda: qual_and_rows(lay, n, seed))
                    plan = compile_rp(lay, query, qual, rows=rmap)
                    t = Emulator(params, seek_model).execute(plan)
                    out.append(_measured_row(base, t, len(plan.scans),
                                             rs, params))
                    continue
                # the remaining layouts place data independently of the
                # qualifying set, so one run serves every seed
                if placement == "relational-sequential-yu":
                    key = (placement, n, nproj)
                    lay = _get(layouts, ("rsy", n),
                               lambda: RelLayoutRSY(params, sch))
                    make_plan = lambda: compile_rsy(lay, query)
                elif placement == "nsm-griffin":
                    key = (placement, n)
                    lay = _get(layouts, ("nsm", n),
                               lambda: NsmLayout(params, sch))
                    make_plan = lambda: compile_nsm(lay)
                else:
                    key = (placement, n, nproj)
                    lay = _get(layouts, ("dsm", n),
                               lambda: DsmLayout(params, sch))
                    make_plan = lambda: compile_dsm(lay, query)
                if key not in fixed:
                    plan = make_plan()
                    fixed[key] = (Emulator(params, seek_model).execute(plan),
                                  len(plan.scans))
                t, n_scans = fixed[key]
                out.append(_measured_row(base, t, n_scans, rs, params))
    return sort_rows(out)


def run_experiment1(params: Optional[DeviceParams] = None, *,
                    sizes_mb: Sequence[float] = SIZES_MB,
                    n_projection: int = 8, selectivity: float = 0.1,
                    k: int = 16, attr_bytes: int = 8,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational data-size sweep at a fixed projection width."""
    params = params or cmu_defaults()
    return _relational_rows(params, 1, [(mb, n_projection) for mb in sizes_mb],
                            k=k, attr_bytes=attr_bytes,
                            selectivity=selectivity, seeds=tuple(seeds),
                            placements=placements, qual_mode=qual_mode,
                            seek_model=seek_model)


def run_experiment2(params: Optional[DeviceParams] = None, *,
                    size_mb: float = 320,
                    n_projections: Sequence[int] = tuple(range(1, 17)),
                    selectivity: float = 0.1, k: int = 16,
                    attr_bytes: int = 8,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational projection-width sweep at a fixed data size."""
    params = params or cmu_defaults()
    return _relational_rows(params, 2,
                            [(size_mb, np_) for np_ in n_projections],
                            k=k, attr_bytes=attr_bytes,
                            selectivity=selectivity, seeds=tuple(seeds),
                            placements=placements, qual_mode=qual_mode,
                            seek_model=seek_model)


# -- spatial sweeps ------------------------------------------------------------

def _spatial_rows(params: DeviceParams, experiment: int,
                  points: Iterable[Tuple[float, float]], *,
                  seeds: Sequence[int], placements: Sequence[str],
                  curve: str, seek_model: str, obj_count: int,
                  obj_bytes: int) -> List[Row]:
    _check_placements(placements, SPATIAL_PLACEMENTS)
    rs = rs_params(params)
    space = gen_spatial(count=obj_count, obj_bytes=obj_bytes).space
    data_mb = space.width * space.height * obj_bytes / 2**20
    grids: dict = {}
    ssy: Optional[SSYLayout] = None
    out: List[Row] = []
    for frac, aspect in points:
        for placement in placements:
            for seed in seeds:
                try:
                    qr = gen_query_region(space, frac, aspect, seed=seed)
                except ValueError as exc:
                    raise ValueError(
                        f"experiment {experiment}, query_frac={frac:g}, "
                        f"aspect={aspect:g}, seed={seed}: {exc}") from exc
                base: Row = {"experiment": experiment, "placement": placement,
                             "data_mb": data_mb, "n_projection": "",
                             "selectivity": "", "query_frac": frac,
                             "aspect": aspect, "qx": qr.qx, "qy": qr.qy,
                             "seed": seed}
                if placement == "spatial-lowerbound":
                    row = _lowerbound_row(base, qr.qx * qr.qy * space.obj_bits,
                                          params)
                    row["n_query_blocks"] = 0
                elif placement == "spatial-parallel":
                    # the block shape is workload-tuned: each sweep point
                    # declares its aspect, so the grid is rebuilt per point
                    grid = _get(grids, aspect,
                                lambda: build_block_grid(params, space,
                                                         ratio=aspect,
                                                         curve=curve))
                    plan = compile_sp(grid, qr)
                    t = Emulator(params, seek_model).execute(plan)
                    row = _measured_row(base, t, len(plan.scans), rs, params)
                    row["n_query_blocks"] = len(query_block_set(grid, qr))
                else:
                    if ssy is None:
                        ssy = SSYLayout(params, space)
                    plan = compile_ssy(ssy, qr)
                    t = Emulator(params, seek_model).execute(plan)
                    row = _measured_row(base, t, len(plan.scans), rs, params)
                    # one stripe of stacked components per x position
                    row["n_query_blocks"] = qr.qx
                out.append(row)
    return sort_rows(out)


def run_experiment3(params: Optional[DeviceParams] = None, *,
                    query_fracs: Sequence[float] = QUERY_FRACS,
                    aspect: float = 1.0,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert", seek_model: str = "average",
                    obj_count: int = 40_960_000,
                    obj_bytes: int = 8) -> List[Row]:
    """Spatial query-size sweep at a fixed aspect ratio."""
    params = params or cmu_defaults()
    return _spatial_rows(params, 3, [(f, aspect) for f in query_fracs],
                         seeds=tuple(seeds), placements=placements,
                         curve=curve, seek_model=seek_model,
                         obj_count=obj_count, obj_bytes=obj_bytes)


def run_experiment4(params: Optional[DeviceParams] = None, *,
                    query_frac: float = 0.01,
                    aspects: Sequence[float] = ASPECTS,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert", seek_model: str = "average",
                    obj_count: int = 40_960_000,
                    obj_bytes: int = 8) -> List[Row]:
    """Spatial query-aspect sweep at a fixed query size."""
    params = params or cmu_defaults()
    return _spatial_rows(params, 4, [(query_frac, a) for a in aspects],
                         seeds=tuple(seeds), placements=placements,
                         curve=curve, seek_model=seek_model,
                         obj_count=obj_count, obj_bytes=obj_bytes)


# -- ordering and CSV rendering ------------------------------------------------

_SWEEP_KEY = {1: "data_mb", 2: "n_projection", 3: "query_frac", 4: "aspect"}


def sort_rows(rows: List[Row]) -> List[Row]:
    """Stable order: experiment, placement, sweep variable, seed."""
    def key(r: Row):
        sweep = r[_SWEEP_KEY[r["experiment"]]]
        return (r["experiment"], r["placement"], float(sweep), r["seed"])
    return sorted(rows, key=key)


_CELL_FMT = {"data_mb": "g", "selectivity": "g", "query_frac": "g",
             "aspect": "g", "meas_total_s": ".9f", "est_total_s": ".9f",
             "seek_s": ".9f", "transfer_s": ".9f", "k_parallel": ".6f",
             "k_random": ".6f"}


def _cell(field: str, value) -> str:
    if value == "":
        return ""
    fmt = _CELL_FMT.get(field)
    return format(value, fmt) if fmt else str(value)


def csv_text(rows: List[Row], fields: Optional[Sequence[str]] = None) -> str:
    if fields is None:
        fields = SPATIAL_FIELDS if rows and "qx" in rows[0] else RELATIONAL_FIELDS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([_cell(f, r[f]) for f in fields])
    return buf.getvalue()


def write_csv(rows: List[Row], path,
              fields: Optional[Sequence[str]] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(rows, fields))
