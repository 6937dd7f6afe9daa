"""Linear block abstraction over the device, with row- and column-store
baselines on top of it.

The device is exposed as a flat array of fixed-size logical blocks. One
block is one parallel transfer: the sector row of one tip group, where
the tips are cut into N_PT/N_APT fixed contiguous groups so a whole
group can be active at once. Block order walks a column through every
group before advancing to the next column, which keeps sequential reads
cheap: group switches reverse the sled (turnaround only) and column
advances land in the adjacent position (settle only).
"""

from __future__ import annotations

from itertools import groupby, product, repeat
from typing import Callable, List, Tuple

from .device import DeviceParams, check_integer
from .emulator import AccessPlan, MediaImage, Scan
from .relational import RangeQuery, RelationSchema, _check_query
from .rs import value_cells


class LinearMap:
    """Logical-block addressing of the whole device."""

    def __init__(self, params: DeviceParams):
        if params.n_tips % params.n_active_tips != 0:
            raise ValueError("tip count must be a multiple of the active-tip limit")
        self.params = params
        self.tip_groups = params.n_tips // params.n_active_tips
        self.lba_count = self.tip_groups * params.sectors_x * params.sectors_y
        # each group's tips, one object that every scan of the group shares
        napt = params.n_active_tips
        self.group_tips = tuple(range(g * napt + 1, (g + 1) * napt + 1)
                                for g in range(self.tip_groups))

    def locate(self, lba: int) -> Tuple[int, int, int]:
        """(column, group, row-in-column) for a 1-based block address."""
        if type(lba) is not int:
            check_integer("block address", lba)
        if not 1 <= lba <= self.lba_count:
            raise ValueError(f"block {lba} out of range 1..{self.lba_count}")
        sy = self.params.sectors_y
        per_col = self.tip_groups * sy
        c, rem = divmod(lba - 1, per_col)
        g, j = divmod(rem, sy)
        return c + 1, g + 1, j + 1

    def block_cells(self, lba: int) -> Tuple[int, int]:
        """(first tip, sector row) of a block; tips run N_APT wide."""
        c, g, j = self.locate(lba)
        s = (c - 1) * self.params.sectors_y + j
        return (g - 1) * self.params.n_active_tips + 1, s


def lba_to_plan(lm: LinearMap, lba_start: int, lba_len: int) -> AccessPlan:
    """One scan per maximal block run inside a single column and group."""
    if type(lba_start) is not int or type(lba_len) is not int:
        check_integer("block address", lba_start)
        check_integer("block run length", lba_len)
    if lba_len == 0:
        return AccessPlan([])
    if lba_len < 0:
        raise ValueError("block run length must be non-negative")
    c, g, j = lm.locate(lba_start)
    lm.locate(lba_start + lba_len - 1)
    sy = lm.params.sectors_y
    groups = lm.group_tips
    scans: List[Scan] = []
    # each scan runs to its column's foot or the run's end; the next one
    # starts at the column's head in the next group, or the next column
    above, g = (c - 1) * sy, g - 1  # rows in the columns before this one
    left = lba_len
    while left:
        span = min(sy - j + 1, left)
        scans.append(Scan(tips=groups[g], start=above + j, length=span))
        left -= span
        j = 1
        g += 1
        if g == len(groups):
            g = 0
            above += sy
    return AccessPlan(scans)


class _PackedLayout:
    """`k // width` sub-relations of `width` attributes each; every
    sub-relation packs its records (one tuple's values of its attributes)
    in tuple order into its own run of `sub_blocks` logical blocks."""

    column_store: bool  # width 1 if set, else all k attributes

    def __init__(self, params: DeviceParams, schema: RelationSchema):
        self.params = params
        self.schema = schema
        self.linear = LinearMap(params)
        self.width = 1 if self.column_store else schema.k
        self.spv = schema.sectors_per_value(params.sector_bits)
        self.records_per_block = params.n_active_tips // (self.width * self.spv)
        if self.records_per_block < 1:
            raise ValueError(f"a record of {self.width} attributes does not "
                             f"fit in one logical block")
        self.sub_blocks = -(-schema.n // self.records_per_block)
        if self.sub_blocks * (schema.k // self.width) > self.linear.lba_count:
            raise ValueError("relation exceeds device capacity")

    def compile(self, query: RangeQuery) -> AccessPlan:
        """Every block of each sub-relation the query projects; adjacent
        sub-relations (equal index minus position) form one block run."""
        _check_query(query, self.schema)
        subs = sorted({(w - 1) // self.width for w in query.projected})
        scans: List[Scan] = []
        for _, run in groupby(enumerate(subs), lambda ig: ig[1] - ig[0]):
            run = [g for _, g in run]
            scans += lba_to_plan(self.linear, run[0] * self.sub_blocks + 1,
                                 len(run) * self.sub_blocks).scans
        return AccessPlan(scans)

    def write_image(self, image: MediaImage,
                    value_bytes: Callable[[int, int], bytes]) -> None:
        """Store `value_bytes(t, w)` in `spv` adjacent tips of its block
        row, the whole image as one checked batch."""
        sch, spv, width = self.schema, self.spv, self.width
        per_block = self.records_per_block
        keys: List[Tuple[int, int]] = []
        regions: List[int] = []
        rows: List[int] = []
        for g in range(sch.k // width):
            attrs = range(g * width + 1, (g + 1) * width + 1)
            for b in range(self.sub_blocks):
                tip0, s = self.linear.block_cells(g * self.sub_blocks + b + 1)
                first = b * per_block + 1
                count = min(per_block, sch.n - first + 1)
                # from tip0 on: each record's attributes, each value's sectors
                keys += product(range(first, first + count), attrs)
                regions += range(tip0, tip0 + count * width * spv)
                rows += repeat(s, count * width * spv)
        cells = value_cells(value_bytes, keys, spv, image.sector_bytes)
        image.write_cells(regions, rows, cells)


class NsmLayout(_PackedLayout):
    """Row store: whole tuples packed sequentially into logical blocks."""
    column_store = False


class DsmLayout(_PackedLayout):
    """Column store: one sub-relation per attribute, each packed sequentially."""
    column_store = True


def compile_nsm(layout: NsmLayout) -> AccessPlan:
    """Row store: every block of the relation, whatever the query asks."""
    return layout.compile(RangeQuery(tuple(range(1, layout.schema.k + 1)),
                                     predicate_attr=1, bound=0, selectivity=1.0))


def compile_dsm(layout: DsmLayout, query: RangeQuery) -> AccessPlan:
    """Column store: every block of each projected sub-relation."""
    return layout.compile(query)


def write_image_nsm(layout: NsmLayout, image: MediaImage,
                    value_bytes: Callable[[int, int], bytes]) -> None:
    layout.write_image(image, value_bytes)


def write_image_dsm(layout: DsmLayout, image: MediaImage,
                    value_bytes: Callable[[int, int], bytes]) -> None:
    layout.write_image(image, value_bytes)
