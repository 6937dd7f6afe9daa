"""Relational attribute-value placements.

Two layouts over the region-sector plane:

* tuple-major (`RelLayoutRSY`): attribute values of one tuple sit in
  consecutive regions of the same sector row, so one row step yields whole
  tuples and every projection reads every tuple.
* attribute-band (`RelLayoutRP`): each attribute fills its own band of
  sector rows across all regions, so selective queries can activate only
  the tips of qualifying tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .cost import CostInput
from .device import DeviceParams
from .emulator import AccessPlan, MediaImage, Scan
from .rs import PhysAddr, RSAddr, layer_scans, write_values


def exact_ceil(fraction: float, n: int) -> int:
    """ceil(fraction * n), the number of tuples a selectivity qualifies."""
    # 0.07 * 100 is 7.000000000000001 in floating point; shave such drift
    return math.ceil(round(fraction * n, 9))


@dataclass(frozen=True)
class RelationSchema:
    k: int
    n: int
    attr_bits: int = 64

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.attr_bits < 1:
            raise ValueError("relation schema fields must be >= 1")

    def sectors_per_value(self, sector_bits: int) -> int:
        # values are padded out to whole sectors
        return -(-self.attr_bits // sector_bits)


@dataclass(frozen=True)
class RangeQuery:
    """Projection plus a one-attribute range predicate."""
    projected: Tuple[int, ...]
    predicate_attr: int
    bound: int
    selectivity: float

    def __post_init__(self):
        proj = tuple(sorted(set(self.projected)))
        object.__setattr__(self, "projected", proj)
        if not proj or any(w < 1 for w in proj):
            raise ValueError("projected attribute set must be non-empty, 1-based")
        if self.predicate_attr not in proj:
            raise ValueError("predicate attribute must be projected")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")

    @property
    def n_projection(self) -> int:
        return len(self.projected)


def _check_vw(v: int, w: int, schema: RelationSchema) -> None:
    if not 1 <= v <= schema.n:
        raise ValueError(f"tuple id {v} out of range 1..{schema.n}")
    if not 1 <= w <= schema.k:
        raise ValueError(f"attribute {w} out of range 1..{schema.k}")


def _check_query(query: RangeQuery, schema: RelationSchema) -> None:
    if query.projected[-1] > schema.k:
        raise ValueError(
            f"projected attribute {query.projected[-1]} exceeds schema k={schema.k}")


class RelLayoutRSY:
    """Tuple-major layout: m tuples share each sector row, k regions apart."""

    def __init__(self, params: DeviceParams, schema: RelationSchema):
        self.params = params
        self.schema = schema
        self.m = params.n_regions // schema.k
        if self.m < 1:
            raise ValueError(
                f"k={schema.k} exceeds the {params.n_regions} available regions")
        self.spv = schema.sectors_per_value(params.sector_bits)
        self.rows_used = -(-schema.n // self.m)
        if self.rows_used * self.spv > params.sectors_per_region:
            raise ValueError("relation does not fit the device under this layout")

    def map(self, v: int, w: int) -> RSAddr:
        _check_vw(v, w, self.schema)
        slot = (v - 1) % self.m
        vrow = (v - 1) // self.m
        return RSAddr(self.schema.k * slot + w, vrow * self.spv + 1)

    def map_phys(self, v: int, w: int) -> PhysAddr:
        """Straight-line physical mapping; oracle for the RS composition."""
        _check_vw(v, w, self.schema)
        p = self.params
        r = self.schema.k * ((v - 1) % self.m) + w
        s = ((v - 1) // self.m) * self.spv + 1
        col = (s - 1) // p.sectors_y + 1
        off = (s - 1) % p.sectors_y
        row = off + 1 if col % 2 == 1 else p.sectors_y - off
        return PhysAddr((r - 1) % p.regions_x + 1, (r - 1) // p.regions_x + 1,
                        col, row)

    def compile(self, query: RangeQuery) -> AccessPlan:
        _check_query(query, self.schema)
        napt = self.params.n_active_tips
        k = self.schema.k
        n_last = self.schema.n - (self.rows_used - 1) * self.m
        occupied_slots = min(self.m, self.schema.n)
        needed = sorted(k * slot + w
                        for slot in range(occupied_slots)
                        for w in query.projected)
        last_rows = range((self.rows_used - 1) * self.spv + 1,
                          self.rows_used * self.spv + 1)
        scans: List[Scan] = []
        for i in range(0, len(needed), napt):
            chunk = tuple(needed[i:i + napt])
            # the final sector row holds only the first n_last slots
            restricted = tuple(t for t in chunk if (t - 1) // k < n_last)
            prt = None
            if len(restricted) != len(chunk):
                prt = {s: restricted for s in last_rows}
            scans.append(Scan(tips=chunk, start=1,
                              length=self.rows_used * self.spv,
                              per_row_tips=prt))
        return AccessPlan(scans)

    def k_values(self, query: RangeQuery) -> CostInput:
        _check_query(query, self.schema)
        nproj = query.n_projection
        return CostInput(bits=self.schema.n * nproj * self.schema.attr_bits,
                         k_parallel=min(self.m * nproj, self.params.n_active_tips),
                         k_random=1)


class RelLayoutRP:
    """Attribute-band layout: attribute w fills rows of its own band."""

    def __init__(self, params: DeviceParams, schema: RelationSchema):
        self.params = params
        self.schema = schema
        self.spv = schema.sectors_per_value(params.sector_bits)
        self.band_rows = -(-schema.n // params.n_tips)
        if schema.k * self.band_rows * self.spv > params.sectors_per_region:
            raise ValueError("relation does not fit the device under this layout")

    def band_start(self, w: int) -> int:
        return (w - 1) * self.band_rows * self.spv + 1

    def map(self, v: int, w: int) -> RSAddr:
        _check_vw(v, w, self.schema)
        vrow = (v - 1) // self.params.n_tips
        return RSAddr((v - 1) % self.params.n_tips + 1,
                      self.band_start(w) + vrow * self.spv)

    def _row_count(self, band_row: int) -> int:
        if band_row < self.band_rows:
            return self.params.n_tips
        return self.schema.n - (self.band_rows - 1) * self.params.n_tips

    def qualifying_rows(self, qualifying: Iterable[int]) -> Dict[int, Tuple[int, ...]]:
        """Bucket qualifying tuple ids by band row; shared by every band."""
        n_pt = self.params.n_tips
        buckets: Dict[int, List[int]] = {}
        for v in qualifying:
            if not 1 <= v <= self.schema.n:
                raise ValueError(f"qualifying tuple id {v} out of range")
            buckets.setdefault((v - 1) // n_pt + 1, []).append((v - 1) % n_pt + 1)
        return {row: tuple(sorted(tips)) for row, tips in buckets.items()}

    def compile(self, query: RangeQuery,
                rows: Mapping[int, Sequence[int]]) -> AccessPlan:
        """Plan: the predicate band in full, other bands only where tuples qualify.

        `rows` maps band rows to their qualifying tips, as `qualifying_rows`
        builds it; the map is the same for every attribute band.
        """
        _check_query(query, self.schema)
        h = self.band_rows
        full = [range(1, self._row_count(j) + 1) for j in range(1, h + 1)]
        scans = layer_scans(self.band_start(query.predicate_attr), self.spv,
                            full, self.params)
        qual = [rows.get(j, ()) for j in range(1, h + 1)]
        for w in query.projected:
            if w != query.predicate_attr:
                scans.extend(layer_scans(self.band_start(w), self.spv, qual,
                                         self.params))
        return AccessPlan(scans)

    def k_values(self, query: RangeQuery) -> CostInput:
        _check_query(query, self.schema)
        nproj = query.n_projection
        qualifying = exact_ceil(query.selectivity, self.schema.n)
        bits = (self.schema.n + (nproj - 1) * qualifying) * self.schema.attr_bits
        return CostInput(bits=bits, k_parallel=self.params.n_active_tips,
                         k_random=nproj)


# -- module-level operation names ----------------------------------------

def compile_rsy(layout: RelLayoutRSY, query: RangeQuery) -> AccessPlan:
    return layout.compile(query)


def compile_rp(layout: RelLayoutRP, query: RangeQuery,
               qualifying: Iterable[int]) -> AccessPlan:
    return layout.compile(query, layout.qualifying_rows(qualifying))


def write_image_rsy(layout: RelLayoutRSY, image: MediaImage, value_fn) -> None:
    write_values(image, layout.map, layout.schema.n, layout.schema.k,
                 layout.spv, value_fn)


def write_image_rp(layout: RelLayoutRP, image: MediaImage, value_fn) -> None:
    write_values(image, layout.map, layout.schema.n, layout.schema.k,
                 layout.spv, value_fn)
