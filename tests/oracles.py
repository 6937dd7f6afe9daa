"""Straight-line physical mappings of the tuple-major and column-per-x
layouts, and of the row and column stores.  Each computes a value's tip,
column and row without going through the Region-Sector address or the
layout's own block walk, so tests use it as an oracle for
`rs_to_mems(layout.map(...))` or for the cells a store's image holds.
The curve keys order a block grid by sorting every cell on its position
along the curve, an oracle for `build_block_grid`'s quadrant walk.
The exact inversion searches the hypergeometric law out from its mode
in integers and fractions, an oracle for `workload._hypergeometric`'s
search in floats.
The per-block plan locates every block of a run on its own, an oracle
for `lba_to_plan`'s column and group stepping.
The per-row and per-band plans build the relational plans one unit per
tuple row and one `layer_scans` per attribute band, oracles for the lead
run of `RelLayoutRSY.compile` and the shifted band scans of
`RelLayoutRP.compile`.
The dict reader looks up every cell a plan reads, one (tip, row) at a
time, in a plain dict of what was written, an oracle for the cells
`Emulator.read` takes from the image's sector rows pass by pass.
The row-tips summary walks an override map row by row, an oracle for
the summary `RowTips` keeps."""

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from memsrs.device import DeviceParams
from memsrs.emulator import AccessPlan, SortedTips
from memsrs.linear import LinearMap
from memsrs.relational import (RangeQuery, RelationSchema, RelLayoutRP,
                               RelLayoutRSY, _check_vw)
from memsrs.rs import PhysAddr, layer_cuts, layer_scans, rs_scan
from memsrs.spatial import SSYLayout


def rsy_map_phys(lay: RelLayoutRSY, v: int, w: int) -> PhysAddr:
    _check_vw(v, w, lay.schema)
    p = lay.params
    r = lay.schema.k * ((v - 1) % lay.m) + w
    s = ((v - 1) // lay.m) * lay.spv + 1
    col = (s - 1) // p.sectors_y + 1
    off = (s - 1) % p.sectors_y
    row = off + 1 if col % 2 == 1 else p.sectors_y - off
    return PhysAddr((r - 1) % p.regions_x + 1, (r - 1) // p.regions_x + 1,
                    col, row)


def rsy_plan_per_row(lay: RelLayoutRSY, query: RangeQuery) -> AccessPlan:
    """The tuple-major plan with one unit per tuple row in each layer's
    scan: the body's set on every row but the last."""
    rows, k = lay.rows_used, lay.schema.k
    needed = SortedTips.prechecked(k * slot + w
                                   for slot in range(min(lay.m, lay.schema.n))
                                   for w in query.projected)
    n_last = lay.schema.n - (rows - 1) * lay.m
    last = SortedTips.prechecked(needed[:n_last * query.n_projection])
    return AccessPlan([rs_scan(1, lay.spv, [body] * (rows - 1) + [tail])
                       for body, tail in layer_cuts([needed, last],
                                                    lay.params.n_active_tips)])


def rp_plan_per_band(lay: RelLayoutRP, query: RangeQuery,
                     rows: Mapping[int, Sequence[int]]) -> AccessPlan:
    """The attribute-band plan from the band-row map `rows`, each
    projected band's scans built by their own `layer_scans` call from
    that band's first row, the predicate band's one unit per row."""
    h, spv, p = lay.band_rows, lay.spv, lay.params
    count = lay.schema.n - (h - 1) * p.n_tips
    full = [range(1, p.n_tips + 1)] * (h - 1) + [range(1, count + 1)]
    scans = layer_scans(lay.band_start(query.predicate_attr), spv, full, p)
    units = [rows.get(j, ()) for j in range(1, h + 1)]
    for w in query.projected:
        if w != query.predicate_attr:
            scans += layer_scans(lay.band_start(w), spv, units, p)
    return AccessPlan(scans)


def ssy_map_phys(lay: SSYLayout, x: int, y: int) -> PhysAddr:
    lay.space.check(x, y)
    p = lay.params
    tip = (x - 1) % p.n_tips
    s0 = ((x - 1) // p.n_tips) * lay.component_rows + (y - 1) * lay.spo
    col, off = divmod(s0, p.sectors_y)
    return PhysAddr(tip % p.regions_x + 1, tip // p.regions_x + 1, col + 1,
                    off + 1 if col % 2 == 0 else p.sectors_y - off)


def dict_read_cells(plan: AccessPlan, written: Dict[Tuple[int, int], bytes],
                    zero: bytes) -> List[bytes]:
    """Every cell the plan reads, in scan and row order: each row's whole
    set, its override or the scan's default, looked up by (tip, row) in
    `written`, with `zero` for a cell never written."""
    return [written.get((tip, s), zero) for scan in plan.scans
            for s in range(scan.start, scan.start + scan.length)
            for tip in (scan.per_row_tips or {}).get(s, scan.tips)]


def row_tips_summary(rows: Mapping[int, Sequence[int]]) -> Tuple:
    """(lo, hi, sets, cells, widest) of an override map, walked row by
    row: its first and last rows (None when it has none), its distinct
    tip-set objects told apart by `id` in first-use order, the sum of its
    sets' sizes and the largest size (0 when it has none)."""
    lo = hi = None
    sets, seen = [], set()
    cells = widest = 0
    for s, tips in rows.items():
        lo = s if lo is None else min(lo, s)
        hi = s if hi is None else max(hi, s)
        if id(tips) not in seen:
            seen.add(id(tips))
            sets.append(tips)
        cells += len(tips)
        widest = max(widest, len(tips))
    return lo, hi, sets, cells, widest


def _block_cell(p: DeviceParams, block: int, offset: int) -> Tuple[int, int]:
    """(tip, sector row) of tip `offset` of 0-based logical block `block`;
    blocks walk one column through every tip group, then the next."""
    col, rem = divmod(block, p.n_tips // p.n_active_tips * p.sectors_y)
    group, row = divmod(rem, p.sectors_y)
    return group * p.n_active_tips + offset + 1, col * p.sectors_y + row + 1


def nsm_cell(p: DeviceParams, schema: RelationSchema, v: int,
             w: int) -> Tuple[int, int]:
    """(tip, sector row) of the first sector of value (v, w) in the row
    store: whole tuples in order, n_active_tips // (k * spv) a block."""
    spv = schema.sectors_per_value(p.sector_bits)
    block, i = divmod(v - 1, p.n_active_tips // (schema.k * spv))
    return _block_cell(p, block, (i * schema.k + w - 1) * spv)


def dsm_cell(p: DeviceParams, schema: RelationSchema, v: int,
             w: int) -> Tuple[int, int]:
    """(tip, sector row) of the first sector of value (v, w) in the column
    store: attribute w's values in tuple order in the w-th run of blocks."""
    spv = schema.sectors_per_value(p.sector_bits)
    per_block = p.n_active_tips // spv
    block, i = divmod(v - 1, per_block)
    return _block_cell(p, (w - 1) * -(-schema.n // per_block) + block, i * spv)


def per_block_plan(lm: LinearMap, lba_start: int,
                   lba_len: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """(start, length, tips) of each scan reading blocks lba_start ..
    lba_start + lba_len - 1: blocks located one by one, and each block
    of the same column and group as the one before joined to its scan."""
    p = lm.params
    scans: List[list] = []
    prev = None
    for lba in range(lba_start, lba_start + lba_len):
        col, group, row = lm.locate(lba)
        if (col, group) == prev:
            scans[-1][1] += 1
        else:
            scans.append([(col - 1) * p.sectors_y + row, 1, tuple(range(
                (group - 1) * p.n_active_tips + 1,
                group * p.n_active_tips + 1))])
        prev = col, group
    return [tuple(scan) for scan in scans]


def _hilbert_xy2d(side: int, x: int, y: int) -> int:
    """Position of cell (x, y), 0-based, along the Hilbert curve on a
    `side` x `side` grid, `side` a power of two."""
    d = 0
    s = side // 2
    while s:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def _zorder_xy2d(x: int, y: int) -> int:
    """Z-order position of cell (x, y), 0-based: the bits of x and y
    interleaved, x in the even bits."""
    d = 0
    i = 0
    while x or y:
        d |= (x & 1) << (2 * i) | (y & 1) << (2 * i + 1)
        x >>= 1
        y >>= 1
        i += 1
    return d


def curve_key_order(curve: str, g_x: int, g_y: int) -> List[Tuple[int, int]]:
    """The 1-based cells of a g_x x g_y block grid sorted by their curve
    key; the Hilbert curve covers the smallest power-of-two square
    holding the grid."""
    order = [(x, y) for x in range(1, g_x + 1) for y in range(1, g_y + 1)]
    if curve == "hilbert":
        side = 1
        while side < max(g_x, g_y):
            side *= 2
        order.sort(key=lambda c: _hilbert_xy2d(side, c[0] - 1, c[1] - 1))
    else:
        order.sort(key=lambda c: _zorder_xy2d(c[0] - 1, c[1] - 1))
    return order


def hypergeometric_inversion(total: int, good: int, draws: int,
                             u: float) -> Tuple[int, Fraction]:
    """(k, gap): the k whose cumulative pmf first exceeds u when the
    pmf is summed out from the mode, mode, mode+1, mode-1, mode+2, ...,
    each value's pmf exact: the mode's from `math.comb`, the next ones
    by the law's integer ratios.  `gap` is how far u lies from the
    nearest cumulative sum on the way."""
    lo, hi = max(0, draws + good - total), min(good, draws)
    mode = (draws + 1) * (good + 1) // (total + 2)
    bad = total - good
    # pmf(k) = ways(k) / whole, every ways(k) an integer
    whole = math.comb(total, draws)
    ways = math.comb(good, mode) * math.comb(bad, draws - mode)
    u = Fraction(u)
    order = [mode]
    for step in range(1, max(hi - mode, mode - lo) + 1):
        order += [k for k in (mode + step, mode - step) if lo <= k <= hi]
    up = down = ways
    total_ways, nearest = 0, None
    for k in order:
        if k > mode:
            up = (up * (good - k + 1) * (draws - k + 1)
                  // (k * (bad - draws + k)))
            ways = up
        elif k < mode:
            down = (down * (k + 1) * (bad - draws + k + 1)
                    // ((good - k) * (draws - k)))
            ways = down
        total_ways += ways
        # |total_ways/whole - u|, kept as one integer over whole*denominator
        off = abs(total_ways * u.denominator - u.numerator * whole)
        nearest = off if nearest is None else min(nearest, off)
        if total_ways * u.denominator > u.numerator * whole:
            return k, Fraction(nearest, whole * u.denominator)
    raise AssertionError("the pmf sums to 1, that is above every u < 1")
