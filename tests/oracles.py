"""Straight-line physical mappings of the tuple-major and column-per-x
layouts.  Each computes a value's tip, column and row without going
through the Region-Sector address, so tests use it as an oracle for
`rs_to_mems(layout.map(...))`."""

from memsrs.relational import RelLayoutRSY, _check_vw
from memsrs.rs import PhysAddr
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


def ssy_map_phys(lay: SSYLayout, x: int, y: int) -> PhysAddr:
    lay.space.check(x, y)
    p = lay.params
    tip = (x - 1) % p.n_tips
    s0 = ((x - 1) // p.n_tips) * lay.component_rows + (y - 1) * lay.spo
    col, off = divmod(s0, p.sectors_y)
    return PhysAddr(tip % p.regions_x + 1, tip // p.regions_x + 1, col + 1,
                    off + 1 if col % 2 == 0 else p.sectors_y - off)
