"""The two-axis logical view of the device: Region x Sector.

A linearized region lays its tip sectors along the Sector axis in
column-prime (serpentine) order: down the first column, up the second,
and so on. That makes consecutive sector indices physically adjacent,
so a whole linearized region streams at an averaged rate that folds the
per-column settle into the transfer rate. Addresses are 1-based on both
axes.

The model's two facilities build every placement's scans: any tip set
can be used for each sector row (`rs_scan`), and at most
`n_active_tips` tips run at once, so wider sets are read in layers
(`layer_scans`). Every placement that maps a value to one Region-Sector
address stores it down that region's sector axis (`write_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from .device import DeviceParams, derive
from .emulator import AccessPlan, MediaImage, Scan, _col_row, _lin


class RSAddr(NamedTuple):
    region: int   # linearized-region index, 1..n_regions
    sector: int   # position along the serpentine sector order, 1..sectors_per_region


class PhysAddr(NamedTuple):
    region_x: int
    region_y: int
    col: int   # tip-sector column inside the region
    row: int   # tip-sector position inside the column


@dataclass(frozen=True)
class RSParams:
    transfer_rate_rs_bits_s: float  # averaged per-tip rate over a linearized region
    seek_time_rs_s: float           # averaged random-position seek


def rs_to_mems(a: RSAddr, p: DeviceParams) -> PhysAddr:
    r, s = a
    if not (1 <= r <= p.n_regions and 1 <= s <= p.sectors_per_region):
        raise ValueError(f"RS address out of bounds: {a}")
    return PhysAddr((r - 1) % p.regions_x + 1, (r - 1) // p.regions_x + 1,
                    *_col_row(s, p.sectors_y))


def mems_to_rs(a: PhysAddr, p: DeviceParams) -> RSAddr:
    region_x, region_y, col, row = a
    if not (1 <= region_x <= p.regions_x and 1 <= region_y <= p.regions_y
            and 1 <= col <= p.sectors_x and 1 <= row <= p.sectors_y):
        raise ValueError(f"physical address out of bounds: {a}")
    return RSAddr((region_y - 1) * p.regions_x + region_x,
                  _lin(col, row, p.sectors_y))


def rs_params(p: DeviceParams) -> RSParams:
    d = derive(p)
    # one settle per sector column, folded into the streaming rate
    denominator = d.region_bits / p.tip_rate_bits_s + p.sectors_x * p.settle_time_s
    rate = d.region_bits / denominator
    seek = max(p.move_x_s + p.settle_time_s, p.move_y_s + p.turnaround_time_s)
    return RSParams(transfer_rate_rs_bits_s=rate, seek_time_rs_s=seek)


def rs_scan(start: int, unit_rows: int,
            unit_tips: Sequence[Sequence[int]]) -> Scan:
    """One scan over consecutive units of `unit_rows` rows from `start`.

    Unit i reads `unit_tips[i]`. The first unit's set is the scan's
    default; every row of a unit with another set overrides it.
    """
    default = unit_tips[0]
    prt: Dict[int, Sequence[int]] = {
        s: tips for i, tips in enumerate(unit_tips) if tips != default
        for s in range(start + i * unit_rows, start + (i + 1) * unit_rows)}
    return Scan(tips=default, start=start, length=len(unit_tips) * unit_rows,
                per_row_tips=prt or None)


def layer_scans(start: int, unit_rows: int,
                unit_tips: Sequence[Sequence[int]], p: DeviceParams) -> List[Scan]:
    """Scans reading each unit's tip set at most `n_active_tips` at a time.

    Layer k holds tips [k*n_active_tips, (k+1)*n_active_tips) of each
    unit's set; per layer there is one `rs_scan` per maximal run of
    units whose set reaches that layer.
    """
    napt = p.n_active_tips
    sizes = list(map(len, unit_tips))
    scans: List[Scan] = []
    for lo in range(0, max(sizes, default=0), napt):
        reaches = [size > lo for size in sizes]
        for reached, run in groupby(range(len(sizes)), reaches.__getitem__):
            if reached:
                run = list(run)
                scans.append(rs_scan(start + run[0] * unit_rows, unit_rows,
                                     [unit_tips[i][lo:lo + napt] for i in run]))
    return scans


def rs_read(regions: Iterable[int], s_start: int, s_len: int,
            p: DeviceParams) -> AccessPlan:
    """Read rows [s_start, s_start+s_len-1] of the given regions.

    Regions are assigned to scans in ascending order, at most
    n_active_tips per scan; each scan re-traverses the whole row range.
    """
    tips = tuple(sorted(set(regions)))
    if s_len < 1 or s_start < 1 or s_start + s_len - 1 > p.sectors_per_region:
        raise ValueError("sector range out of bounds")
    if tips and (tips[0] < 1 or tips[-1] > p.n_regions):
        raise ValueError("region index out of bounds")
    return AccessPlan(scans=layer_scans(s_start, s_len, [tips], p))


def write_values(image: MediaImage, mapper: Callable[[int, int], RSAddr],
                 n_a: int, n_b: int, spv: int,
                 value_fn: Callable[[int, int], bytes]) -> None:
    """Store `value_fn(a, b)` for every a in 1..n_a and b in 1..n_b as
    `spv` whole sectors, from `mapper(a, b)` on along the sector axis."""
    cell = image.sector_bytes
    size = spv * cell
    for a in range(1, n_a + 1):
        for b in range(1, n_b + 1):
            payload = value_fn(a, b)
            if len(payload) != size:
                raise ValueError(f"payload of ({a}, {b}) must be {size} "
                                 f"bytes, got {len(payload)}")
            region, sector = mapper(a, b)
            for i in range(spv):
                image.write_cell(region, sector + i,
                                 payload[i * cell:(i + 1) * cell])
