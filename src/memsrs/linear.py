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

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .device import DeviceParams
from .emulator import AccessPlan, MediaImage, Scan
from .relational import RangeQuery, RelationSchema, _check_query


class LinearMap:
    """Logical-block addressing of the whole device."""

    def __init__(self, params: DeviceParams):
        n_tips = params.regions_x * params.regions_y
        if n_tips % params.n_active_tips != 0:
            raise ValueError("tip count must be a multiple of the active-tip limit")
        self.params = params
        self.tip_groups = n_tips // params.n_active_tips
        self.block_bits = params.n_active_tips * params.sector_bits
        self.lba_count = self.tip_groups * params.sectors_x * params.sectors_y

    def locate(self, lba: int) -> Tuple[int, int, int]:
        """(column, group, row-in-column) for a 1-based block address."""
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
    if lba_len == 0:
        return AccessPlan([])
    if lba_len < 0:
        raise ValueError("block run length must be non-negative")
    lm.locate(lba_start)
    lm.locate(lba_start + lba_len - 1)
    p = lm.params
    sy = p.sectors_y
    napt = p.n_active_tips
    scans: List[Scan] = []
    lba = lba_start
    end = lba_start + lba_len - 1
    while lba <= end:
        c, g, j = lm.locate(lba)
        span = min(sy - j + 1, end - lba + 1)  # stay inside this column/group
        scans.append(Scan(tips=range((g - 1) * napt + 1, g * napt + 1),
                          start=(c - 1) * sy + j, length=span))
        lba += span
    return AccessPlan(scans)


@dataclass(frozen=True)
class NsmLayout:
    """Tuples packed sequentially into logical blocks."""
    params: DeviceParams
    schema: RelationSchema

    def __post_init__(self):
        lm = LinearMap(self.params)
        spv = self.schema.sectors_per_value(self.params.sector_bits)
        tpb = self.params.n_active_tips // (self.schema.k * spv)
        if tpb < 1:
            raise ValueError("tuple does not fit in one logical block")
        n_blocks = -(-self.schema.n // tpb)
        if n_blocks > lm.lba_count:
            raise ValueError("relation exceeds device capacity")
        object.__setattr__(self, "linear", lm)
        object.__setattr__(self, "tuples_per_block", tpb)
        object.__setattr__(self, "n_blocks", n_blocks)


@dataclass(frozen=True)
class DsmLayout:
    """One sub-relation per attribute, each packed sequentially."""
    params: DeviceParams
    schema: RelationSchema

    def __post_init__(self):
        lm = LinearMap(self.params)
        spv = self.schema.sectors_per_value(self.params.sector_bits)
        vpb = self.params.n_active_tips // spv
        if vpb < 1:
            raise ValueError("attribute does not fit in one logical block")
        bpa = -(-self.schema.n // vpb)
        if bpa * self.schema.k > lm.lba_count:
            raise ValueError("relation exceeds device capacity")
        object.__setattr__(self, "linear", lm)
        object.__setattr__(self, "values_per_block", vpb)
        object.__setattr__(self, "blocks_per_attr", bpa)


def compile_nsm(layout: NsmLayout, query: Optional[RangeQuery] = None) -> AccessPlan:
    """Row store: every block of the relation, whatever the query asks."""
    return lba_to_plan(layout.linear, 1, layout.n_blocks)


def compile_dsm(layout: DsmLayout, query: RangeQuery) -> AccessPlan:
    """Column store: every block of each projected sub-relation."""
    _check_query(query, layout.schema)
    bpa = layout.blocks_per_attr
    runs: List[Tuple[int, int]] = []
    for w in query.projected:
        lo = (w - 1) * bpa + 1
        if runs and runs[-1][0] + runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], runs[-1][1] + bpa)
        else:
            runs.append((lo, bpa))
    scans: List[Scan] = []
    for lo, ln in runs:
        scans.extend(lba_to_plan(layout.linear, lo, ln).scans)
    return AccessPlan(scans)


def _write_slots(lm: LinearMap, image: MediaImage, lba: int, slot: int,
                 payload: bytes, spv: int) -> None:
    step = image.sector_bytes
    if len(payload) != spv * step:
        raise ValueError(f"value payload must be {spv * step} bytes, "
                         f"got {len(payload)}")
    tip0, s = lm.block_cells(lba)
    for d in range(spv):
        image.write_cell(tip0 + slot + d, s, payload[d * step:(d + 1) * step])


def write_image_nsm(layout: NsmLayout, image: MediaImage,
                    value_bytes: Callable[[int, int], bytes]) -> None:
    sch = layout.schema
    spv = sch.sectors_per_value(layout.params.sector_bits)
    for t in range(1, sch.n + 1):
        lba, i = divmod(t - 1, layout.tuples_per_block)
        for w in range(1, sch.k + 1):
            slot = (i * sch.k + w - 1) * spv
            _write_slots(layout.linear, image, lba + 1, slot,
                         value_bytes(t, w), spv)


def write_image_dsm(layout: DsmLayout, image: MediaImage,
                    value_bytes: Callable[[int, int], bytes]) -> None:
    sch = layout.schema
    spv = sch.sectors_per_value(layout.params.sector_bits)
    for w in range(1, sch.k + 1):
        base = (w - 1) * layout.blocks_per_attr
        for t in range(1, sch.n + 1):
            b, i = divmod(t - 1, layout.values_per_block)
            _write_slots(layout.linear, image, base + b + 1, i * spv,
                         value_bytes(t, w), spv)
