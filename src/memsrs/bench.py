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
import math
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

from .cost import estimate, lower_bound, trace_k_values
from .device import (DeviceParams, check_integer, check_real, cmu_defaults,
                     named)
from .emulator import Emulator
from .linear import DsmLayout, NsmLayout, compile_dsm, compile_nsm
from .relational import (RangeQuery, RelationSchema, RelLayoutRP, RelLayoutRSY,
                         check_selectivity, exact_ceil)
from .spatial import (CURVES, BlockGrid, SpatialSpace, SSYLayout, _grid_shape,
                      build_block_grid, compile_sp, query_block_set)
from .workload import Relation, gen_query_region

# The paper's data: a relation of 16 attributes of 8 bytes each, whose
# tuple count follows from the sweep's data size, and a 6400 x 6400 grid
# of 8-byte spatial objects (312.5 MB).
_K, _ATTR_BYTES = 16, 8
_SPACE = SpatialSpace(width=6400, height=6400, obj_bits=64)

# Each placement: its layout class (None for a lower bound, which is
# priced from the query's bit volume), the sweep fields its plan varies
# with (one compile and run serves every row that agrees on them), its
# plan for a layout, a query and the seed's qualifying band
# `rows(layout)`, and for a spatial placement its `n_query_blocks` rule.
# A plan calls its compile function through this module's global name at
# call time, so rebinding that name (as perfbench's tracer does) reaches
# every call.
_PLACEMENTS = {
    "relational-parallel": (RelLayoutRP, ("data_mb", "n_projection", "seed"),
                            lambda lay, q, rows: lay.compile(q, rows(lay)),
                            None),
    "relational-sequential-yu": (RelLayoutRSY, ("data_mb", "n_projection"),
                                 lambda lay, q, rows: lay.compile(q), None),
    "relational-lowerbound": (None, (), None, None),
    "nsm-griffin": (NsmLayout, ("data_mb",),
                    lambda lay, q, rows: compile_nsm(lay), None),
    "dsm-griffin": (DsmLayout, ("data_mb", "n_projection"),
                    lambda lay, q, rows: compile_dsm(lay, q), None),
    # a spatial query, and with it the plan, is drawn per seed
    "spatial-parallel": (BlockGrid, ("query_frac", "aspect", "seed"),
                         lambda grid, qr, rows: compile_sp(grid, qr),
                         lambda grid, qr: len(query_block_set(grid, qr))),
    # one stripe of stacked components per x position
    "spatial-sequential-yu": (SSYLayout, ("query_frac", "aspect", "seed"),
                              lambda lay, qr, rows: lay.compile(qr),
                              lambda lay, qr: qr.qx),
    "spatial-lowerbound": (None, (), None, lambda lay, qr: 0),
}
RELATIONAL_PLACEMENTS = tuple(p for p, e in _PLACEMENTS.items() if not e[3])
SPATIAL_PLACEMENTS = tuple(p for p, e in _PLACEMENTS.items() if e[3])

RELATIONAL_FIELDS = ("experiment", "placement", "data_mb", "n_projection",
                     "selectivity", "meas_total_s", "est_total_s", "seek_s",
                     "transfer_s", "scans", "k_parallel", "k_random", "seed")
SPATIAL_FIELDS = RELATIONAL_FIELDS[:-1] + ("query_frac", "aspect", "qx", "qy",
                                           "n_query_blocks", "seed")

SIZES_MB = (5, 10, 20, 40, 80, 160, 320)
N_PROJECTIONS = tuple(range(1, _K + 1))
QUERY_FRACS = (0.0001, 0.001, 0.01, 0.1)
ASPECTS = (16, 8, 4, 2, 1, 1 / 2, 1 / 4, 1 / 8, 1 / 16)

Row = Dict[str, object]


# -- row assembly ------------------------------------------------------------

def _measured_row(base: Row, varies: Sequence[str], make_plan, cache: dict,
                  params: DeviceParams, seek_model: str) -> Row:
    """`base` completed by the priced columns of an emulated run of
    `make_plan()`.  The plan is compiled, executed and priced once per
    placement and values of the `varies` fields of `base`; later rows
    that agree on them reuse those columns."""
    key = (base["placement"],) + tuple(base[f] for f in varies)
    if key not in cache:
        plan = make_plan()
        t = Emulator(params, seek_model).execute(plan)
        ci = trace_k_values(t, params)
        cache[key] = dict(meas_total_s=t.total_s,
                          est_total_s=estimate(ci, params).total_s,
                          seek_s=t.seek_s + t.turnaround_s,
                          transfer_s=t.transfer_s + t.settle_s,
                          scans=len(plan.scans), k_parallel=ci.k_parallel,
                          k_random=ci.k_random, _bits=ci.bits,
                          _lb=lower_bound(ci.bits, params).total_s)
    return {**base, **cache[key]}


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


def _check_unique(values: Iterable, name) -> None:
    """Fail on the first value listed twice, named by `name(value)`.
    Values are compared, not hashed, so a point holding a list reaches
    its own check, which names it."""
    seen: list = []
    for value in values:
        if value in seen:
            raise ValueError(f"{name(value)} listed twice")
        seen.append(value)


def _sequence(what: str, value) -> tuple:
    """`value` as a tuple; a string or a value that is not iterable
    fails naming it as `what`, rather than being split into characters
    or raising a bare `TypeError`."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValueError(f"{what} must be a sequence, got {value!r}")
    return tuple(value)


def _check_option(option: str, value: str, known: Iterable[str]) -> None:
    if value not in known:
        raise ValueError(f"unknown {option} {value!r}; "
                         f"expected one of {', '.join(known)}")


# -- the sweep driver ----------------------------------------------------------

def _sweep(params: Optional[DeviceParams], experiment: int,
           points: Sequence[tuple], family: tuple, option: str,
           seeds: Sequence[int], placements: Sequence[str], seek_model: str,
           **point_args) -> List[Row]:
    """One row per placement, sweep point and seed, in `sort_rows` order.

    `family` is (point name, point function, placements, option name,
    option values).  Params that are not a `DeviceParams`, seeds or
    placements that are not a sequence, non-integer seeds, bad
    placements, seek model and `option`, and repeated seeds or points,
    fail first: a repeat would only duplicate rows.
    Every point is then checked before any row is made, by
    `point(params, pt, name, seeds, classes, build, option, **point_args)`:
    it fails naming the point, builds the layouts of `classes` through the
    cache by `build(key, make)`, and returns them by class with each
    seed's (sweep columns, query, lower-bound bits, qualifying band).
    """
    name, point, known, option_name, option_values = family
    with named(f"experiment {experiment}"):
        if params is None:
            params = cmu_defaults()
        elif not isinstance(params, DeviceParams):
            raise ValueError(f"params must be a DeviceParams, got {params!r}")
        seeds = _sequence("seeds", seeds)
        placements = _sequence("placements", placements)
        for seed in seeds:
            check_integer("seed", seed)
    for placement in placements:
        _check_option("placement", placement, known)
    _check_unique(placements, lambda placement: f"placement {placement!r}")
    _check_unique(seeds, lambda seed: f"experiment {experiment}: seed {seed}")
    # the emulator checks the seek model, also when no placement runs it
    Emulator(params, seek_model)
    _check_option(option_name, option, option_values)
    _check_unique(points, lambda pt: f"{name(experiment, *pt)}: sweep point")
    cache: dict = {}
    classes = [_PLACEMENTS[placement][0] for placement in placements]
    checked = [point(params, pt, name(experiment, *pt), seeds, classes,
                     partial(_get, cache), option, **point_args)
               for pt in points]
    out: List[Row] = []
    for layouts, draws in checked:
        for placement in placements:
            cls, varies, plan, blocks = _PLACEMENTS[placement]
            lay = layouts.get(cls)
            for seed, (columns, query, bits, rows) in zip(seeds, draws):
                base: Row = {"experiment": experiment, "placement": placement,
                             **columns, "seed": seed}
                if cls is None:
                    row = _lowerbound_row(base, bits, params)
                else:
                    row = _measured_row(base, varies,
                                        lambda: plan(lay, query, rows),
                                        cache, params, seek_model)
                if blocks:
                    row["n_query_blocks"] = blocks(lay, query)
                out.append(row)
    return sort_rows(out)


# -- relational sweeps --------------------------------------------------------

def _point_value(value) -> str:
    """A sweep point's value as its name shows it: `:g` for a float or an
    int that fits one, repr for anything else, so any point can be named."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return format(value, "g")
        except OverflowError:
            pass
    return repr(value)


def _relational_name(experiment: int, size_mb: float, nproj: int) -> str:
    return (f"experiment {experiment}, data_mb={_point_value(size_mb)}, "
            f"n_projection={nproj}")


def _relational_point(params: DeviceParams, pt: tuple, name: str,
                      seeds: Sequence[int], classes: Sequence, build,
                      qual_mode: str, selectivity: float) -> tuple:
    """The relation of `pt` = (size_mb, nproj), with its layouts built
    under (class, n).  A point with a projection width that is not an
    integer in 1.._K, or a size that is not a finite real number or that
    the device cannot hold, fails naming the point.  A seed's qualifying
    band is drawn and scanned once per (size, seed), from counts per band
    row, and shared by every width;
    `qual_mode` is the checked "uniform", the one draw there is."""
    size_mb, nproj = pt
    with named(name):
        check_integer("projection width", nproj)
        if nproj < 1:
            raise ValueError(f"projection width {nproj} is below 1")
        if nproj > _K:
            raise ValueError(f"projection width {nproj} exceeds schema k={_K}")
        check_real("data size", size_mb)
        if isinstance(size_mb, float) and not math.isfinite(size_mb):
            raise ValueError(f"data size {size_mb:g} MB is not finite")
        n = int(size_mb * 2**20) // (_K * _ATTR_BYTES)
        if n < 1:
            raise ValueError(f"no {_K * _ATTR_BYTES}-byte tuple fits in "
                             f"{_point_value(size_mb)} MB")
        sch = RelationSchema(k=_K, n=n, attr_bits=_ATTR_BYTES * 8)
        sectors = n * _K * sch.sectors_per_value(params.sector_bits)
        capacity = params.n_tips * params.sectors_per_region
        if sectors > capacity:
            raise ValueError(f"relation needs {sectors} sectors, the device "
                             f"holds {capacity}")
        layouts = {cls: build((cls, n), lambda: cls(params, sch))
                   for cls in classes if cls}
    query = RangeQuery(projected=tuple(range(1, nproj + 1)), predicate_attr=1,
                       bound=0, selectivity=selectivity)
    columns = {"data_mb": size_mb, "n_projection": nproj,
               "selectivity": selectivity}
    bits = exact_ceil(selectivity, n) * nproj * sch.attr_bits

    def draw(seed: int, lay: RelLayoutRP):
        # a run only times its plan, so counted rows price it as the
        # qualifying ids' rows would
        return build(("rows", n, seed), lambda: lay.counted_rows(
            Relation(n, seed).qualifying_counts(selectivity, params.n_tips)))
    return layouts, [(columns, query, bits, partial(draw, seed))
                     for seed in seeds]


_RELATIONAL = (_relational_name, _relational_point, RELATIONAL_PLACEMENTS,
               "qualifying mode", ("uniform",))


def run_experiment1(params: Optional[DeviceParams] = None, *,
                    sizes_mb: Sequence[float] = SIZES_MB,
                    n_projection: int = 8, selectivity: float = 0.1,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational data-size sweep at a fixed projection width."""
    with named("experiment 1"):
        check_selectivity(selectivity)
        sizes_mb = _sequence("sizes_mb", sizes_mb)
    return _sweep(params, 1, [(mb, n_projection) for mb in sizes_mb],
                  _RELATIONAL, qual_mode, seeds, placements, seek_model,
                  selectivity=selectivity)


def run_experiment2(params: Optional[DeviceParams] = None, *,
                    size_mb: float = 320,
                    n_projections: Sequence[int] = N_PROJECTIONS,
                    selectivity: float = 0.1,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = RELATIONAL_PLACEMENTS,
                    qual_mode: str = "uniform",
                    seek_model: str = "average") -> List[Row]:
    """Relational projection-width sweep at a fixed data size."""
    with named("experiment 2"):
        check_selectivity(selectivity)
        n_projections = _sequence("n_projections", n_projections)
    return _sweep(params, 2, [(size_mb, np_) for np_ in n_projections],
                  _RELATIONAL, qual_mode, seeds, placements, seek_model,
                  selectivity=selectivity)


# -- spatial sweeps ------------------------------------------------------------

def _spatial_name(experiment: int, frac: float, aspect: float) -> str:
    return (f"experiment {experiment}, query_frac={_point_value(frac)}, "
            f"aspect={_point_value(aspect)}")


def _spatial_point(params: DeviceParams, pt: tuple, name: str,
                   seeds: Sequence[int], classes: Sequence, build,
                   curve: str) -> tuple:
    """Each seed's query at `pt` = (frac, aspect), with the block grid
    built under (BlockGrid, its block shape) and the stripe layout under
    SSYLayout; with no seeds the grid is checked, not built.  A point
    that cannot be run, or whose size fraction or aspect is not a real
    number, fails naming the point."""
    frac, aspect = pt
    with named(name):
        check_real("query size fraction", frac)
        check_real("query aspect", aspect)
    data_mb = _SPACE.width * _SPACE.height * _SPACE.obj_bits / 8 / 2**20
    draws = []
    for seed in seeds:
        with named(f"{name}, seed={seed}"):
            qr = gen_query_region(_SPACE, frac, aspect, seed=seed)
        draws.append(({"data_mb": data_mb, "n_projection": "",
                       "selectivity": "", "query_frac": frac, "aspect": aspect,
                       "qx": qr.qx, "qy": qr.qy},
                      qr, qr.qx * qr.qy * _SPACE.obj_bits, None))
    if not seeds:
        # no seed changes a query's shape, so a run with no seeds still
        # checks that it fits
        with named(name):
            gen_query_region(_SPACE, frac, aspect)
    layouts = {}
    with named(name):
        if BlockGrid in classes:
            # the grid's checks, without the curve walk; each point's
            # aspect picks a block shape, and one grid per shape is built
            # only for a run with seeds, since no other run makes a row
            shape = _grid_shape(params, _SPACE, aspect, curve)[:2]
            if seeds:
                layouts[BlockGrid] = build(
                    (BlockGrid, shape),
                    lambda: build_block_grid(params, _SPACE, aspect, curve))
        if SSYLayout in classes:
            layouts[SSYLayout] = build(SSYLayout,
                                       lambda: SSYLayout(params, _SPACE))
    return layouts, draws


_SPATIAL = (_spatial_name, _spatial_point, SPATIAL_PLACEMENTS, "curve", CURVES)


def run_experiment3(params: Optional[DeviceParams] = None, *,
                    query_fracs: Sequence[float] = QUERY_FRACS,
                    aspect: float = 1.0,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert",
                    seek_model: str = "average") -> List[Row]:
    """Spatial query-size sweep at a fixed aspect ratio."""
    with named("experiment 3"):
        query_fracs = _sequence("query_fracs", query_fracs)
    return _sweep(params, 3, [(f, aspect) for f in query_fracs], _SPATIAL,
                  curve, seeds, placements, seek_model)


def run_experiment4(params: Optional[DeviceParams] = None, *,
                    query_frac: float = 0.01,
                    aspects: Sequence[float] = ASPECTS,
                    seeds: Sequence[int] = tuple(range(20)),
                    placements: Sequence[str] = SPATIAL_PLACEMENTS,
                    curve: str = "hilbert",
                    seek_model: str = "average") -> List[Row]:
    """Spatial query-aspect sweep at a fixed query size."""
    with named("experiment 4"):
        aspects = _sequence("aspects", aspects)
    return _sweep(params, 4, [(query_frac, a) for a in aspects], _SPATIAL,
                  curve, seeds, placements, seek_model)


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

