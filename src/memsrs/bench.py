"""Retrieval-time benchmark sweeps over the placement engines.

Four stock sweeps: relational data-size and projection-width sweeps,
and spatial query-size and query-aspect sweeps.  Every (placement,
sweep point, seed) combination gets a row.  Its plan is compiled by the
placement engine and executed on a fresh emulator in metadata-only
mode, once per distinct input the plan depends on; the row reports the
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

from .cost import estimate, lower_bound, trace_k_values
from .device import DeviceParams, cmu_defaults
from .emulator import Emulator
from .linear import DsmLayout, NsmLayout, compile_dsm, compile_nsm
from .relational import (RangeQuery, RelationSchema, RelLayoutRP, RelLayoutRSY,
                         exact_ceil)
from .rs import rs_params
from .spatial import (SpatialSpace, SSYLayout, build_block_grid, compile_sp,
                      query_block_set)
from .workload import PREDICATE_BOUND, Relation, gen_query_region

# The paper's data: a relation of 16 attributes of 8 bytes each, whose
# tuple count follows from the sweep's data size, and a 6400 x 6400 grid
# of 8-byte spatial objects (312.5 MB).
_K, _ATTR_BYTES = 16, 8
_SPACE = SpatialSpace(width=6400, height=6400, obj_bits=64)

# Each relational placement: its layout class, the sweep fields its plan
# varies with (one compile and run serves every row that agrees on them)
# and its plan for a query, where `rows()` gives the seed's qualifying
# tuples by band row.  A plan calls its compile function through this
# module's global name at call time, so rebinding that name (as
# perfbench's tracer does) reaches every call.  The lower bound has no
# layout: it is priced from the query's bit volume.
_RELATIONAL_LAYOUTS = {
    "relational-parallel": (RelLayoutRP, ("data_mb", "n_projection", "seed"),
                            lambda lay, q, rows: lay.compile(q, rows())),
    "relational-sequential-yu": (RelLayoutRSY, ("data_mb", "n_projection"),
                                 lambda lay, q, rows: lay.compile(q)),
    "relational-lowerbound": (None, (), None),
    "nsm-griffin": (NsmLayout, ("data_mb",),
                    lambda lay, q, rows: compile_nsm(lay)),
    "dsm-griffin": (DsmLayout, ("data_mb", "n_projection"),
                    lambda lay, q, rows: compile_dsm(lay, q)),
}
RELATIONAL_PLACEMENTS = tuple(_RELATIONAL_LAYOUTS)
SPATIAL_PLACEMENTS = ("spatial-parallel", "spatial-sequential-yu",
                      "spatial-lowerbound")
# a spatial query, and with it the plan, is drawn per seed
_SPATIAL_VARIES = ("query_frac", "aspect", "seed")

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

def _measured_row(base: Row, varies: Sequence[str], make_plan, cache: dict,
                  params: DeviceParams, seek_model: str) -> Row:
    """`base` completed by an emulated run of `make_plan()`.  The plan is
    compiled and executed once per placement and values of the `varies`
    fields of `base`; later rows that agree on them reuse that run."""
    key = (base["placement"],) + tuple(base[f] for f in varies)
    if key not in cache:
        plan = make_plan()
        cache[key] = (Emulator(params, seek_model).execute(plan),
                      len(plan.scans))
    t, n_scans = cache[key]
    rs = rs_params(params)
    ci = trace_k_values(t, rs, params)
    est = estimate(ci, rs)
    row = dict(base)
    row.update(meas_total_s=t.total_s, est_total_s=est.total_s,
               seek_s=t.seek_s + t.turnaround_s,
               transfer_s=t.transfer_s + t.settle_s,
               scans=n_scans, k_parallel=ci.k_parallel, k_random=ci.k_random,
               _bits=ci.bits,
               _lb=lower_bound(ci.bits, params).total_s)
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
                     points: Iterable[Tuple[float, int]], *,
                     selectivity: float, seeds: Sequence[int],
                     placements: Sequence[str], qual_mode: str,
                     seek_model: str) -> List[Row]:
    _check_placements(placements, RELATIONAL_PLACEMENTS)
    cache: dict = {}
    out: List[Row] = []
    for size_mb, nproj in points:
        if nproj > _K:
            raise ValueError(f"projection width {nproj} exceeds schema k={_K}")
        n = int(size_mb * 2**20) // (_K * _ATTR_BYTES)
        sch = RelationSchema(k=_K, n=n, attr_bits=_ATTR_BYTES * 8)
        query = RangeQuery(projected=tuple(range(1, nproj + 1)),
                           predicate_attr=1, bound=PREDICATE_BOUND,
                           selectivity=selectivity)
        for placement in placements:
            cls, varies, plan = _RELATIONAL_LAYOUTS[placement]
            for seed in seeds:
                base: Row = {"experiment": experiment, "placement": placement,
                             "data_mb": size_mb, "n_projection": nproj,
                             "selectivity": selectivity, "seed": seed}
                if cls is None:
                    bits = exact_ceil(selectivity, n) * nproj * sch.attr_bits
                    out.append(_lowerbound_row(base, bits, params))
                    continue
                lay = _get(cache, (cls, n), lambda: cls(params, sch))
                # drawn once per (size, seed) and shared by every width
                rows = lambda: _get(cache, ("rows", n, seed), lambda: (
                    lay.qualifying_rows(Relation(n, seed).qualifying_set(
                        selectivity, qual_mode))))
                out.append(_measured_row(base, varies,
                                         lambda: plan(lay, query, rows),
                                         cache, params, seek_model))
    return sort_rows(out)


def run_experiment1(params: Optional[DeviceParams] = None, *,
                    sizes_mb: Sequence[float] = SIZES_MB,
                    n_projection: int = 8, selectivity: float = 0.1,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational data-size sweep at a fixed projection width."""
    params = params or cmu_defaults()
    return _relational_rows(params, 1, [(mb, n_projection) for mb in sizes_mb],
                            selectivity=selectivity, seeds=tuple(seeds),
                            placements=placements, qual_mode=qual_mode,
                            seek_model=seek_model)


def run_experiment2(params: Optional[DeviceParams] = None, *,
                    size_mb: float = 320,
                    n_projections: Sequence[int] = tuple(range(1, 17)),
                    selectivity: float = 0.1,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational projection-width sweep at a fixed data size."""
    params = params or cmu_defaults()
    return _relational_rows(params, 2,
                            [(size_mb, np_) for np_ in n_projections],
                            selectivity=selectivity, seeds=tuple(seeds),
                            placements=placements, qual_mode=qual_mode,
                            seek_model=seek_model)


# -- spatial sweeps ------------------------------------------------------------

def _spatial_rows(params: DeviceParams, experiment: int,
                  points: Iterable[Tuple[float, float]], *,
                  seeds: Sequence[int], placements: Sequence[str],
                  curve: str, seek_model: str) -> List[Row]:
    _check_placements(placements, SPATIAL_PLACEMENTS)
    data_mb = _SPACE.width * _SPACE.height * _SPACE.obj_bits / 8 / 2**20
    cache: dict = {}
    out: List[Row] = []
    for frac, aspect in points:
        for placement in placements:
            for seed in seeds:
                try:
                    qr = gen_query_region(_SPACE, frac, aspect, seed=seed)
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
                    row = _lowerbound_row(base, qr.qx * qr.qy * _SPACE.obj_bits,
                                          params)
                    row["n_query_blocks"] = 0
                elif placement == "spatial-parallel":
                    # the block shape is workload-tuned: each sweep point
                    # declares its aspect, so the grid is rebuilt per point
                    grid = _get(cache, ("grid", aspect),
                                lambda: build_block_grid(params, _SPACE,
                                                         ratio=aspect,
                                                         curve=curve))
                    row = _measured_row(base, _SPATIAL_VARIES,
                                        lambda: compile_sp(grid, qr),
                                        cache, params, seek_model)
                    row["n_query_blocks"] = len(query_block_set(grid, qr))
                else:
                    ssy = _get(cache, "ssy", lambda: SSYLayout(params, _SPACE))
                    row = _measured_row(base, _SPATIAL_VARIES,
                                        lambda: ssy.compile(qr),
                                        cache, params, seek_model)
                    # one stripe of stacked components per x position
                    row["n_query_blocks"] = qr.qx
                out.append(row)
    return sort_rows(out)


def run_experiment3(params: Optional[DeviceParams] = None, *,
                    query_fracs: Sequence[float] = QUERY_FRACS,
                    aspect: float = 1.0,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert",
                    seek_model: str = "average") -> List[Row]:
    """Spatial query-size sweep at a fixed aspect ratio."""
    params = params or cmu_defaults()
    return _spatial_rows(params, 3, [(f, aspect) for f in query_fracs],
                         seeds=tuple(seeds), placements=placements,
                         curve=curve, seek_model=seek_model)


def run_experiment4(params: Optional[DeviceParams] = None, *,
                    query_frac: float = 0.01,
                    aspects: Sequence[float] = ASPECTS,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert",
                    seek_model: str = "average") -> List[Row]:
    """Spatial query-aspect sweep at a fixed query size."""
    params = params or cmu_defaults()
    return _spatial_rows(params, 4, [(query_frac, a) for a in aspects],
                         seeds=tuple(seeds), placements=placements,
                         curve=curve, seek_model=seek_model)


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
