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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cost import CostInput
from .device import DeviceParams
from .emulator import AccessPlan, MediaImage, Scan
from .rs import (PhysAddr, RSAddr, layer_scans, rs_params, rs_scan,
                 write_values)


@dataclass(frozen=True)
class SpatialSpace:
    width: int
    height: int
    obj_bits: int = 64

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.obj_bits < 1:
            raise ValueError("space dimensions and object size must be >= 1")


@dataclass(frozen=True)
class QueryRegion:
    x0: int
    y0: int
    qx: int
    qy: int

    def __post_init__(self):
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

    def _check(self, x: int, y: int) -> None:
        if not 1 <= x <= self.space.width:
            raise ValueError(f"x {x} out of range 1..{self.space.width}")
        if not 1 <= y <= self.space.height:
            raise ValueError(f"y {y} out of range 1..{self.space.height}")

    def map(self, x: int, y: int) -> RSAddr:
        self._check(x, y)
        comp = (x - 1) // self.params.n_tips
        return RSAddr((x - 1) % self.params.n_tips + 1,
                      comp * self.component_rows + (y - 1) * self.spo + 1)

    def map_phys(self, x: int, y: int) -> PhysAddr:
        """Straight-line physical mapping; oracle for the RS composition."""
        self._check(x, y)
        p = self.params
        tip = (x - 1) % p.n_tips
        s0 = ((x - 1) // p.n_tips) * self.component_rows + (y - 1) * self.spo
        col, off = divmod(s0, p.sectors_y)
        return PhysAddr(tip % p.regions_x + 1, tip // p.regions_x + 1, col + 1,
                        off + 1 if col % 2 == 0 else p.sectors_y - off)

    def compile(self, qr: QueryRegion) -> AccessPlan:
        box = qr.clip(self.space)
        if box is None:
            return AccessPlan([])
        x0, y0, x1, y1 = box
        n_pt = self.params.n_tips
        scans: List[Scan] = []
        for comp in range((x0 - 1) // n_pt, (x1 - 1) // n_pt + 1):
            lo = max(x0, comp * n_pt + 1) - comp * n_pt
            hi = min(x1, (comp + 1) * n_pt) - comp * n_pt
            start = comp * self.component_rows + (y0 - 1) * self.spo + 1
            scans += layer_scans(start, (y1 - y0 + 1) * self.spo,
                                 [range(lo, hi + 1)], self.params)
        return AccessPlan(scans)

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


@dataclass(frozen=True)
class BlockGrid:
    params: DeviceParams
    space: SpatialSpace
    B_x: int
    B_y: int
    G_x: int
    G_y: int
    spo: int
    curve: str
    order: Tuple[Tuple[int, int], ...]
    rank: Dict[Tuple[int, int], int]

    @property
    def n_blocks(self) -> int:
        return self.G_x * self.G_y


def _power_of_two_pairs(n: int) -> List[Tuple[int, int]]:
    pairs = []
    for bx in range(1, n + 1):
        if n % bx:
            continue
        by = n // bx
        hi, lo = max(bx, by), min(bx, by)
        if hi % lo == 0 and (hi // lo) & (hi // lo - 1) == 0:
            pairs.append((bx, by))
    return pairs


def build_block_grid(params: DeviceParams, space: SpatialSpace, ratio: float,
                     curve: str = "hilbert") -> BlockGrid:
    """Pick block dimensions closest to the aspect `ratio` and order them.

    Candidate dimensions are the factor pairs of the region count whose own
    ratio is a power of two, so the curve runs on a power-of-two grid.
    """
    if curve not in ("hilbert", "zorder"):
        raise ValueError(f"unknown curve: {curve!r}")
    if not 0 < ratio < math.inf:
        raise ValueError(f"aspect ratio must be positive and finite, got {ratio}")
    n_r = params.n_regions
    pairs = _power_of_two_pairs(n_r)
    if not pairs:
        raise ValueError(f"no block shape for {n_r} regions: no factor pair "
                         f"of {n_r} has a power-of-two ratio")
    target = math.log2(ratio)
    b_x, b_y = min(pairs, key=lambda p: (abs(math.log2(p[0] / p[1]) - target),
                                         -p[0]))
    if space.width % b_x or space.height % b_y:
        raise ValueError(f"{b_x}x{b_y} blocks do not tile the "
                         f"{space.width}x{space.height} space")
    g_x, g_y = space.width // b_x, space.height // b_y
    spo = -(-space.obj_bits // params.sector_bits)
    if g_x * g_y * spo > params.sectors_per_region:
        raise ValueError("space does not fit the device under this layout")
    # blocks in curve order: the curve covers the smallest power-of-two
    # square holding the grid, and cells outside the grid are skipped
    order = [(x, y) for x in range(1, g_x + 1) for y in range(1, g_y + 1)]
    if curve == "hilbert":
        side = 1
        while side < max(g_x, g_y):
            side *= 2
        order.sort(key=lambda c: _hilbert_xy2d(side, c[0] - 1, c[1] - 1))
    else:
        order.sort(key=lambda c: _zorder_xy2d(c[0] - 1, c[1] - 1))
    rank = {cell: i + 1 for i, cell in enumerate(order)}
    return BlockGrid(params=params, space=space, B_x=b_x, B_y=b_y,
                     G_x=g_x, G_y=g_y, spo=spo, curve=curve,
                     order=tuple(order), rank=rank)


def map_sp(grid: BlockGrid, x: int, y: int) -> RSAddr:
    if not 1 <= x <= grid.space.width:
        raise ValueError(f"x {x} out of range 1..{grid.space.width}")
    if not 1 <= y <= grid.space.height:
        raise ValueError(f"y {y} out of range 1..{grid.space.height}")
    gx = (x - 1) // grid.B_x + 1
    gy = (y - 1) // grid.B_y + 1
    x_l = (x - 1) % grid.B_x + 1
    y_l = (y - 1) % grid.B_y + 1
    b = grid.rank[(gx, gy)]
    return RSAddr((y_l - 1) * grid.B_x + x_l, (b - 1) * grid.spo + 1)


def query_block_set(grid: BlockGrid, qr: QueryRegion) -> List[Tuple[int, Tuple[int, int]]]:
    """Blocks overlapping the query as (rank, (gx, gy)), rank-ascending."""
    box = qr.clip(grid.space)
    if box is None:
        return []
    x0, y0, x1, y1 = box
    blocks = []
    for gx in range((x0 - 1) // grid.B_x + 1, (x1 - 1) // grid.B_x + 2):
        for gy in range((y0 - 1) // grid.B_y + 1, (y1 - 1) // grid.B_y + 2):
            blocks.append((grid.rank[(gx, gy)], (gx, gy)))
    blocks.sort()
    return blocks


def _block_tips(grid: BlockGrid, box, gx: int, gy: int) -> Sequence[int]:
    x0, y0, x1, y1 = box
    la = max(x0, (gx - 1) * grid.B_x + 1) - (gx - 1) * grid.B_x
    lb = min(x1, gx * grid.B_x) - (gx - 1) * grid.B_x
    ya = max(y0, (gy - 1) * grid.B_y + 1) - (gy - 1) * grid.B_y
    yb = min(y1, gy * grid.B_y) - (gy - 1) * grid.B_y
    if (la, ya, lb, yb) == (1, 1, grid.B_x, grid.B_y):
        return range(1, grid.B_x * grid.B_y + 1)
    return tuple((y_l - 1) * grid.B_x + x_l
                 for y_l in range(ya, yb + 1) for x_l in range(la, lb + 1))


def compile_sp(grid: BlockGrid, qr: QueryRegion) -> AccessPlan:
    """Visit overlapped blocks in curve order, streaming through rank gaps
    that cost less to read over than the device's averaged seek."""
    box = qr.clip(grid.space)
    if box is None:
        return AccessPlan([])
    p = grid.params
    spo = grid.spo
    sector_time = p.sector_bits / p.tip_rate_bits_s
    seek_rs = rs_params(p).seek_time_rs_s
    max_gap = int(seek_rs / (spo * sector_time))
    if max_gap * spo * sector_time >= seek_rs:
        max_gap -= 1
    runs: List[List[Tuple[int, Sequence[int]]]] = []
    prev_rank = None
    for rank, (gx, gy) in query_block_set(grid, qr):
        tips = _block_tips(grid, box, gx, gy)
        if prev_rank is not None and rank - prev_rank - 1 <= max_gap:
            runs[-1].append((rank, tips))
        else:
            runs.append([(rank, tips)])
        prev_rank = rank
    napt = p.n_active_tips
    scans: List[Scan] = []
    for run in runs:
        first_rank = run[0][0]
        present = dict(run)
        units = [present.get(rank, ()) for rank in range(first_rank, run[-1][0] + 1)]
        deepest = max(map(len, units))
        # one scan for a run within the activation limit or holding a full
        # block; the emulator's passes read the layers past the limit
        if deepest <= napt or deepest == grid.B_x * grid.B_y:
            scans.append(rs_scan((first_rank - 1) * spo + 1, spo, units))
            continue
        # a run of partial blocks only, some past the activation limit:
        # one scan per tip layer, from the first to the last block with
        # tips in that layer, instead of full retraces
        for lo in range(0, deepest, napt):
            want = [i for i, tips in enumerate(units) if len(tips) > lo]
            scans.append(rs_scan((first_rank + want[0] - 1) * spo + 1, spo,
                                 [tips[lo:lo + napt]
                                  for tips in units[want[0]:want[-1] + 1]]))
    return AccessPlan(scans)


def k_values_sp(grid: BlockGrid, qr: QueryRegion) -> CostInput:
    box = qr.clip(grid.space)
    if box is None:
        return CostInput(bits=0, k_parallel=grid.params.n_active_tips, k_random=0)
    x0, y0, x1, y1 = box
    napt = grid.params.n_active_tips
    cells = steps = 0
    blocks = query_block_set(grid, qr)
    for _, (gx, gy) in blocks:
        cnt = len(_block_tips(grid, box, gx, gy))
        cells += cnt
        steps += -(-cnt // napt) * grid.spo
    return CostInput(bits=(x1 - x0 + 1) * (y1 - y0 + 1) * grid.space.obj_bits,
                     k_parallel=cells / steps, k_random=len(blocks))


# -- module-level operation names and image writers -------------------------

def compile_ssy(layout: SSYLayout, qr: QueryRegion) -> AccessPlan:
    return layout.compile(qr)


def write_image_ssy(layout: SSYLayout, image: MediaImage, value_fn) -> None:
    write_values(image, layout.map, layout.space.width, layout.space.height,
                 layout.spo, value_fn)


def write_image_sp(grid: BlockGrid, image: MediaImage, value_fn) -> None:
    write_values(image, lambda x, y: map_sp(grid, x, y), grid.space.width,
                 grid.space.height, grid.spo, value_fn)
