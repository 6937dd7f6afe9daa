"""The two-axis logical view of the device: Region x Sector.

A linearized region lays its tip sectors along the Sector axis in
column-prime (serpentine) order: down the first column, up the second,
and so on. That makes consecutive sector indices physically adjacent,
so a whole linearized region streams at an averaged rate that folds the
per-column settle into the transfer rate; that rate and the averaged seek
are `DeviceParams` properties. Addresses are 1-based on both axes.

The model's two facilities build every placement's scans: any tip set
can be used for each sector row (`rs_scan`, whose first set may hold for
a lead run of units, so a long run costs no step per unit), and at most
`n_active_tips` tips run at once, so wider sets are read in layers
(`layer_cuts` walks them, cutting each distinct set once per layer with
`layer_tips`; `layer_scans` makes one `rs_scan` per run a layer reaches).
Scans built once are placed elsewhere on the sector axis by
`shift_scans`, which shares their tip sets and the summary of their
override rows (an `emulator.RowTips`, the form every scan here gets).
Every placement that addresses a value by Region-Sector lays its values
in runs of consecutive regions of one sector row, each value's sectors
down the sector axis, so it writes its image as row runs listed by
index arithmetic (`write_values`), with no address made per value.
"""

from __future__ import annotations

from itertools import groupby, product, starmap
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Sequence, Tuple)

from .device import DeviceParams, check_integer
from .emulator import (MediaImage, RowTips, Scan, SortedTips, _col_row, _lin,
                       check_bytes_like)


class RSAddr(NamedTuple):
    region: int   # linearized-region index, 1..n_regions
    sector: int   # position along the serpentine sector order, 1..sectors_per_region


class PhysAddr(NamedTuple):
    region_x: int
    region_y: int
    col: int   # tip-sector column inside the region
    row: int   # tip-sector position inside the column


def _check_fields(kind: str, a: tuple, fields: Sequence[str]) -> None:
    """Reject a field of the address `a` that is not an int, naming it."""
    for name, value in zip(fields, a):
        check_integer(f"{kind} address {name}", value)


def rs_to_mems(a: RSAddr, p: DeviceParams) -> PhysAddr:
    r, s = a
    if not (type(r) is type(s) is int):
        _check_fields("RS", a, RSAddr._fields)
    if not (1 <= r <= p.n_regions and 1 <= s <= p.sectors_per_region):
        raise ValueError(f"RS address out of bounds: {a}")
    return PhysAddr((r - 1) % p.regions_x + 1, (r - 1) // p.regions_x + 1,
                    *_col_row(s, p.sectors_y))


def mems_to_rs(a: PhysAddr, p: DeviceParams) -> RSAddr:
    region_x, region_y, col, row = a
    if not (type(region_x) is type(region_y) is type(col) is type(row) is int):
        _check_fields("physical", a, PhysAddr._fields)
    if not (1 <= region_x <= p.regions_x and 1 <= region_y <= p.regions_y
            and 1 <= col <= p.sectors_x and 1 <= row <= p.sectors_y):
        raise ValueError(f"physical address out of bounds: {a}")
    return RSAddr((region_y - 1) * p.regions_x + region_x,
                  _lin(col, row, p.sectors_y))


def rs_scan(start: int, unit_rows: int,
            unit_tips: Sequence[Sequence[int]], lead: int = 1) -> Scan:
    """One scan over consecutive units of `unit_rows` rows from `start`.

    The first `lead` units read `unit_tips[0]`, the scan's default, and
    each later unit reads the next set; every row of a unit with another
    set overrides the default, and the overrides are one `RowTips`.  A
    unit that repeats the default object is skipped without comparing
    sets.
    """
    default = unit_tips[0]
    length = (lead + len(unit_tips) - 1) * unit_rows
    # unit_tips[0] from the lead run's last unit on, the next set after it
    other = [(first, tips) for first, tips
             in zip(range(start + (lead - 1) * unit_rows, start + length,
                          unit_rows), unit_tips)
             if tips is not default and tips != default]
    prt: Dict[int, Sequence[int]] = dict(other)
    if other:
        # each overridden unit's later rows, one offset at a time: the
        # sets still first appear in unit order
        for d in range(1, unit_rows):
            prt.update([(first + d, tips) for first, tips in other])
    return Scan(tips=default, start=start, length=length,
                per_row_tips=RowTips(prt) if prt else None)


def shift_scans(scans: Sequence[Scan], rows: int) -> List[Scan]:
    """The scans `rows` rows further along the sector axis, their override
    rows moved with them as a `RowTips`; every tip set is shared, not
    copied."""
    moved = []
    for scan in scans:
        prt = scan.per_row_tips
        if prt and type(prt) is not RowTips:
            prt = RowTips(prt)
        moved.append(Scan(tips=scan.tips, start=scan.start + rows,
                          length=scan.length,
                          per_row_tips=prt and prt.shifted(rows)))
    return moved


def layer_tips(tips: Sequence[int], lo: int, napt: int) -> Sequence[int]:
    """The layer at `lo` (0-based) of a tip set read `napt` tips at a time:
    () when the set has no tip there, the set itself when it fits one
    layer, else tips lo..lo + napt - 1.  A `SortedTips` layer stays one,
    or is a `range` when its tips run on, so equal layers of any two sets
    compare equal, as `rs_scan` needs to leave them out of the overrides."""
    if len(tips) <= lo:
        return ()
    part = tips if len(tips) <= napt else tips[lo:lo + napt]
    if type(tips) is not SortedTips:
        return part
    if part[-1] - part[0] == len(part) - 1:
        return range(part[0], part[-1] + 1)
    return part if part is tips else SortedTips.prechecked(part)


def layer_cuts(unit_tips: Sequence[Sequence[int]],
               napt: int) -> Iterator[List[Sequence[int]]]:
    """Per layer of `napt` tips, from the first to the deepest set's last,
    every unit's `layer_tips`.  Each distinct set object is cut once per
    layer, so the units that share it share its cut."""
    ids = list(map(id, unit_tips))
    distinct = dict(zip(ids, unit_tips))
    for lo in range(0, max(map(len, distinct.values()), default=0), napt):
        cut = {key: layer_tips(tips, lo, napt) for key, tips in distinct.items()}
        yield list(map(cut.__getitem__, ids))


def layer_scans(start: int, unit_rows: int,
                unit_tips: Sequence[Sequence[int]], p: DeviceParams) -> List[Scan]:
    """Per `layer_cuts` layer, one `rs_scan` of `unit_rows`-row units from
    `start` on per maximal run of units whose set reaches the layer."""
    scans: List[Scan] = []
    for cut in layer_cuts(unit_tips, p.n_active_tips):
        first = start
        # a set that does not reach the layer is cut to (), which is false
        for reached, run in groupby(cut, bool):
            run = list(run)
            if reached:
                scans.append(rs_scan(first, unit_rows, run))
            first += len(run) * unit_rows
    return scans


def value_cells(value_fn: Callable[[int, int], bytes], keys: Sequence[tuple],
                spv: int, sector_bytes: int) -> List[bytes]:
    """`value_fn(*key)` for every key, each checked to be bytes-like and
    `spv` sectors long, cut into its sectors in order; a bad payload is
    named by its key."""
    payloads = list(starmap(value_fn, keys))
    name = lambda i: f"payload of {keys[i]}"
    check_bytes_like(payloads, name)
    size = spv * sector_bytes
    if {*map(len, payloads)} - {size}:
        i = next(i for i, data in enumerate(payloads) if len(data) != size)
        raise ValueError(f"{name(i)} must be {size} bytes, "
                         f"got {len(payloads[i])}")
    if spv == 1:
        return payloads
    return [data[d * sector_bytes:(d + 1) * sector_bytes]
            for data in payloads for d in range(spv)]


def write_values(image: MediaImage, n_a: int, n_b: int, spv: int,
                 value_fn: Callable[[int, int], bytes],
                 runs: Iterable[Tuple[int, int, range]]) -> None:
    """Store `value_fn(a, b)` for every a in 1..n_a and b in 1..n_b as
    `spv` whole sectors.  Each run (row, first, keys) places the values
    of `keys`, a range of positions in the (a, b)-ordered list of keys,
    in consecutive regions from `first` on, their d-th sectors in sector
    row `row + d`.  The whole image is checked and written as one batch,
    so a bad payload leaves the image as it was."""
    keys = list(product(range(1, n_a + 1), range(1, n_b + 1)))
    cells = value_cells(value_fn, keys, spv, image.sector_bytes)
    # value i's d-th sector is cells[i * spv + d]
    image.write_rows([(row + d, first, cells[part.start * spv + d:
                                             part.stop * spv:part.step * spv])
                      for row, first, part in runs for d in range(spv)])
