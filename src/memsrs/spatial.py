"""Spatial object placements.

Two layouts for a uniformly gridded object space:

* column-per-tip (`SSYLayout`): object column x feeds tip x, so a query's
  x-extent fixes its parallelism and tall narrow queries serialize.
* block (`BlockGrid` + `compile_sp`): the space is tiled into blocks of
  exactly one object per region, blocks are laid along a space-filling
  curve, and a query touches one sector-group row per overlapped block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cost import CostInput
from .device import DeviceParams, check_integer, check_real
from .emulator import AccessPlan, MediaImage, SortedTips
from .rs import RSAddr, layer_cuts, layer_scans, rs_scan, write_values


@dataclass(frozen=True)
class SpatialSpace:
    width: int
    height: int
    obj_bits: int = 64

    def __post_init__(self):
        for field in ("width", "height", "obj_bits"):
            check_integer(f"spatial space {field}", getattr(self, field))
        if self.width < 1 or self.height < 1 or self.obj_bits < 1:
            raise ValueError("space dimensions and object size must be >= 1")

    def check(self, x: int, y: int) -> None:
        if not 1 <= x <= self.width:
            raise ValueError(f"x {x} out of range 1..{self.width}")
        if not 1 <= y <= self.height:
            raise ValueError(f"y {y} out of range 1..{self.height}")


@dataclass(frozen=True)
class QueryRegion:
    x0: int
    y0: int
    qx: int
    qy: int

    def __post_init__(self):
        for field in ("x0", "y0", "qx", "qy"):
            check_integer(f"query region {field}", getattr(self, field))
        if self.x0 < 1 or self.y0 < 1:
            raise ValueError("query origin must be 1-based")
        if self.qx < 0 or self.qy < 0:
            raise ValueError("query extents must be >= 0")

    def clip(self, space: SpatialSpace) -> Optional[Tuple[int, int, int, int]]:
        """Intersection with the space as (x0, y0, x1, y1), or None."""
        if self.qx == 0 or self.qy == 0:
            return None
        x1 = min(self.x0 + self.qx - 1, space.width)
        y1 = min(self.y0 + self.qy - 1, space.height)
        if self.x0 > x1 or self.y0 > y1:
            return None
        return self.x0, self.y0, x1, y1


# -- column-per-tip layout -------------------------------------------------

class SSYLayout:
    """Object (x, y) -> tip x, sector row y, components stacked along s."""

    def __init__(self, params: DeviceParams, space: SpatialSpace):
        self.params = params
        self.space = space
        self.spo = -(-space.obj_bits // params.sector_bits)
        self.n_components = -(-space.width // params.n_tips)
        self.component_rows = space.height * self.spo
        if self.n_components * self.component_rows > params.sectors_per_region:
            raise ValueError("space does not fit the device under this layout")

    def map(self, x: int, y: int) -> RSAddr:
        self.space.check(x, y)
        comp, tip = divmod(x - 1, self.params.n_tips)
        return RSAddr(tip + 1,
                      comp * self.component_rows + (y - 1) * self.spo + 1)

    def compile(self, qr: QueryRegion) -> AccessPlan:
        box = qr.clip(self.space)
        if box is None:
            return AccessPlan([])
        x0, y0, x1, y1 = box
        n_pt = self.params.n_tips
        plan = AccessPlan()
        for comp in range((x0 - 1) // n_pt, (x1 - 1) // n_pt + 1):
            lo = max(x0, comp * n_pt + 1) - comp * n_pt
            hi = min(x1, (comp + 1) * n_pt) - comp * n_pt
            start = comp * self.component_rows + (y0 - 1) * self.spo + 1
            plan.scans += layer_scans(start, (y1 - y0 + 1) * self.spo,
                                      [range(lo, hi + 1)], self.params)
        return plan

    def k_values(self, qr: QueryRegion) -> CostInput:
        box = qr.clip(self.space)
        if box is None:
            return CostInput(bits=0, k_parallel=self.params.n_active_tips, k_random=0)
        x0, y0, x1, y1 = box
        bits = (x1 - x0 + 1) * (y1 - y0 + 1) * self.space.obj_bits
        return CostInput(bits=bits,
                         k_parallel=min(x1 - x0 + 1, self.params.n_active_tips),
                         k_random=1)


# -- block layout -----------------------------------------------------------

_TILE = 8  # side of the squares the curve walk emits from a stored order


def _turn(n: int, o: int, x: int, y: int) -> Tuple[int, int]:
    """Cell (x, y) of an n-side square under orientation `o`: bit 1 swaps
    the axes, then bit 0 reverses both."""
    if o & 2:
        x, y = y, x
    return (n - 1 - x, n - 1 - y) if o & 1 else (x, y)


def _curve_walk(quads):
    """A curve's walk tables from its quadrants in visiting order, each
    (x bit, y bit, orientation); orientations compose by xor.  Per
    orientation, the quadrants last first; per (side up to _TILE,
    orientation), the square's cells in curve order."""
    kids = {o: [(*_turn(2, o, x, y), o ^ t) for x, y, t in reversed(quads)]
            for o in range(4)}
    tiles, order, n = {}, [(0, 0)], 1
    while n <= _TILE:
        for o in range(4):
            tiles[n, o] = [_turn(n, o, *c) for c in order]
        order = [(qx * n + x, qy * n + y) for qx, qy, t in quads
                 for x, y in (_turn(n, t, *c) for c in order)]
        n *= 2
    return kids, tiles


# Hilbert swaps its first quadrant's axes and swaps and reverses its last;
# Z-order visits four quadrants as they are, x first
_CURVES = {"hilbert": _curve_walk(((0, 0, 2), (0, 1, 0), (1, 1, 0), (1, 0, 3))),
           "zorder": _curve_walk(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))}
# the curve names `bench` and the CLI accept
CURVES = tuple(_CURVES)


@dataclass(frozen=True)
class BlockGrid:
    """B_x x B_y blocks of one object per region, row-major within a block;
    `rank` gives each block (gx, gy) its 1-based position on the curve,
    and `tips` is the block's tips 1..B_x*B_y, the one tuple every partial
    clip's `SortedTips` is joined from."""
    params: DeviceParams
    space: SpatialSpace
    B_x: int
    B_y: int
    spo: int
    rank: Dict[Tuple[int, int], int]
    tips: Tuple[int, ...] = field(repr=False, compare=False)

    def map(self, x: int, y: int) -> RSAddr:
        self.space.check(x, y)
        b = self.rank[((x - 1) // self.B_x + 1, (y - 1) // self.B_y + 1)]
        return RSAddr(((y - 1) % self.B_y) * self.B_x + (x - 1) % self.B_x + 1,
                      (b - 1) * self.spo + 1)

    def k_values(self, qr: QueryRegion) -> CostInput:
        box = qr.clip(self.space)
        if box is None:
            return CostInput(bits=0, k_parallel=self.params.n_active_tips, k_random=0)
        x0, y0, x1, y1 = box
        napt = self.params.n_active_tips
        cells = steps = 0
        blocks = query_block_set(self, qr)
        for _, (la, lb, ya, yb) in blocks:
            cnt = (lb - la + 1) * (yb - ya + 1)
            cells += cnt
            steps += -(-cnt // napt) * self.spo
        return CostInput(bits=(x1 - x0 + 1) * (y1 - y0 + 1) * self.space.obj_bits,
                         k_parallel=cells / steps, k_random=len(blocks))


def _power_of_two_pairs(n: int) -> List[Tuple[int, int]]:
    """The factor pairs (bx, by) of `n`, bx ascending, whose ratio is a
    power of two; each divisor up to sqrt(n) gives a pair and its mirror."""
    pairs = []
    for lo in range(1, math.isqrt(n) + 1):
        hi, rem = divmod(n, lo)
        if rem == 0 and hi % lo == 0 and (hi // lo) & (hi // lo - 1) == 0:
            pairs += {(lo, hi), (hi, lo)}
    return sorted(pairs)


def _block_shape(params: DeviceParams, ratio: float) -> Tuple[int, int]:
    """The block dimensions (B_x, B_y) closest to the aspect `ratio`.

    Candidate dimensions are the factor pairs of the region count whose own
    ratio is a power of two, so the curve runs on a power-of-two grid.
    """
    check_real("aspect ratio", ratio)
    if not 0 < ratio < math.inf:
        raise ValueError(f"aspect ratio must be positive and finite, got {ratio}")
    n_r = params.n_regions
    pairs = _power_of_two_pairs(n_r)
    if not pairs:
        raise ValueError(f"no block shape for {n_r} regions: no factor pair "
                         f"of {n_r} has a power-of-two ratio")
    target = math.log2(ratio)
    return min(pairs, key=lambda p: (abs(math.log2(p[0] / p[1]) - target),
                                     -p[0]))


def _grid_shape(params: DeviceParams, space: SpatialSpace, ratio: float,
                curve: str) -> Tuple[int, int, int]:
    """The block shape (B_x, B_y) and sectors per object of the grid that
    `build_block_grid` would build, after all of its checks and without
    walking the curve: the curve, the shape of `ratio`, the tiling and
    the fit, in that order."""
    if not isinstance(curve, str) or curve not in _CURVES:
        raise ValueError(f"unknown curve: {curve!r}")
    b_x, b_y = _block_shape(params, ratio)
    if space.width % b_x or space.height % b_y:
        raise ValueError(f"{b_x}x{b_y} blocks do not tile the "
                         f"{space.width}x{space.height} space")
    g_x, g_y = space.width // b_x, space.height // b_y
    spo = -(-space.obj_bits // params.sector_bits)
    if g_x * g_y * spo > params.sectors_per_region:
        raise ValueError("space does not fit the device under this layout")
    return b_x, b_y, spo


def build_block_grid(params: DeviceParams, space: SpatialSpace, ratio: float,
                     curve: str = "hilbert") -> BlockGrid:
    """Tile the space in the `_block_shape` of `ratio` and order the blocks
    along `curve`; aspects of one shape give the same grid."""
    b_x, b_y, spo = _grid_shape(params, space, ratio, curve)
    g_x, g_y = space.width // b_x, space.height // b_y
    # blocks in curve order: one walk over the smallest power-of-two square
    # holding the grid skips sub-squares outside it and emits each tile
    kids, tiles = _CURVES[curve]
    side = 1
    while side < max(g_x, g_y):
        side *= 2
    order: List[Tuple[int, int]] = []
    stack = [(1, 1, side, 0)]
    while stack:
        x0, y0, n, o = stack.pop()
        if n <= _TILE:
            order += [(x0 + x, y0 + y) for x, y in tiles[n, o]
                      if x0 + x <= g_x and y0 + y <= g_y]
            continue
        n //= 2
        stack += [(x0 + x * n, y0 + y * n, n, t) for x, y, t in kids[o]
                  if x0 + x * n <= g_x and y0 + y * n <= g_y]
    # the ranks 1..blocks and the tips 1..B_x*B_y both count from 1, so
    # one tuple gives both their int objects
    numbers = tuple(range(1, max(len(order), b_x * b_y) + 1))
    return BlockGrid(params=params, space=space, B_x=b_x, B_y=b_y, spo=spo,
                     rank=dict(zip(order, numbers)), tips=numbers[:b_x * b_y])


def _spans(lo: int, hi: int, size: int) -> List[Tuple[int, int, int]]:
    """(block index, first local, last local) for each block of `size`
    cells that the interval lo..hi overlaps, all 1-based."""
    return [(g + 1, max(lo - g * size, 1), min(hi - g * size, size))
            for g in range((lo - 1) // size, (hi - 1) // size + 1)]


def query_block_set(grid: BlockGrid, qr: QueryRegion
                    ) -> List[Tuple[int, Tuple[int, int, int, int]]]:
    """Blocks overlapping the query as (rank, clip), rank-ascending.  The
    clip (la, lb, ya, yb) is the query's part of the block: local columns
    la..lb and rows ya..yb, 1-based within the block."""
    box = qr.clip(grid.space)
    if box is None:
        return []
    x0, y0, x1, y1 = box
    rows = _spans(y0, y1, grid.B_y)
    return sorted((grid.rank[gx, gy], (la, lb, ya, yb))
                  for gx, la, lb in _spans(x0, x1, grid.B_x)
                  for gy, ya, yb in rows)


def _clip_tips(grid: BlockGrid, clip: Tuple[int, int, int, int]) -> Sequence[int]:
    """Tips of a block clip, row-major.  A clip whose tips run on without
    a break (one local row, or whole block rows such as the full block)
    is a `range`; any other clip is a `SortedTips` joined from one slice
    of `grid.tips` per row, so no tip is made or walked here and every
    clip of the grid shares the block's int objects.  1 <= la <= lb <= B_x
    makes the joined tips ascend, so `prechecked` is safe."""
    la, lb, ya, yb = clip
    b_x = grid.B_x
    if ya == yb or (la == 1 and lb == b_x):
        return range((ya - 1) * b_x + la, (yb - 1) * b_x + lb + 1)
    cells, width = grid.tips, lb - la + 1
    out: List[int] = []
    for start in range((ya - 1) * b_x + la - 1, (yb - 1) * b_x + la, b_x):
        out += cells[start:start + width]
    return SortedTips.prechecked(out)


def compile_sp(grid: BlockGrid, qr: QueryRegion) -> AccessPlan:
    """Visit overlapped blocks in curve order, streaming through rank gaps
    that cost less to read over than the device's averaged seek."""
    p = grid.params
    spo = grid.spo
    sector_time = p.sector_time_s
    seek_rs = p.seek_time_rs_s
    max_gap = int(seek_rs / (spo * sector_time))
    if max_gap * spo * sector_time >= seek_rs:
        max_gap -= 1
    # each run as its first rank and one tip set per rank, () where the
    # run streams through a block the query misses
    runs: List[Tuple[int, List[Sequence[int]]]] = []
    # a block's tip set depends only on its clip, and a query has at most
    # nine distinct clips (interior, edges, corners), so each set is built
    # once and shared by every block with that clip
    clip_tips: Dict[Tuple[int, int, int, int], Sequence[int]] = {}
    prev_rank = None
    for rank, clip in query_block_set(grid, qr):
        tips = clip_tips.get(clip)
        if tips is None:
            tips = clip_tips[clip] = _clip_tips(grid, clip)
        if prev_rank is not None and rank - prev_rank - 1 <= max_gap:
            runs[-1][1].extend([()] * (rank - prev_rank - 1) + [tips])
        else:
            runs.append((rank, [tips]))
        prev_rank = rank
    plan = AccessPlan()
    for first_rank, units in runs:
        # one scan per layer, from its first to its last block with tips; a
        # run holding a full block is one scan, whose passes read its layers
        cuts = ([units] if max(map(len, units)) == grid.B_x * grid.B_y
                else layer_cuts(units, p.n_active_tips))
        for cut in cuts:
            want = [i for i, part in enumerate(cut) if part]
            plan.scans.append(rs_scan((first_rank + want[0] - 1) * spo + 1,
                                      spo, cut[want[0]:want[-1] + 1]))
    return plan


# -- module-level operation names and image writers -------------------------

def compile_ssy(layout: SSYLayout, qr: QueryRegion) -> AccessPlan:
    return layout.compile(qr)


def write_image_ssy(layout: SSYLayout, image: MediaImage, value_fn) -> None:
    write_values(image, layout.map, layout.space.width, layout.space.height,
                 layout.spo, value_fn)


def write_image_sp(grid: BlockGrid, image: MediaImage, value_fn) -> None:
    write_values(image, grid.map, grid.space.width, grid.space.height,
                 grid.spo, value_fn)
