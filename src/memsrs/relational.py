"""Relational attribute-value placements.

Two layouts over the region-sector plane:

* tuple-major (`RelLayoutRSY`): attribute values of one tuple sit in
  consecutive regions of the same sector row, so one row step yields whole
  tuples and every projection reads every tuple.
* attribute-band (`RelLayoutRP`): each attribute fills its own band of
  sector rows across all regions, so selective queries can activate only
  the tips of qualifying tuples.  Its full band is scanned once per
  layout and a draw's rows once per draw (a `QualifyingBand`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from operator import lt, sub
from typing import Dict, Iterable, Mapping, NamedTuple, Sequence, Tuple

from .cost import CostInput
from .device import DeviceParams, check_integer, check_integers, check_real
from .emulator import AccessPlan, MediaImage, SortedTips
from .rs import (RSAddr, layer_cuts, layer_scans, rs_scan, shift_scans,
                 write_values)


def exact_ceil(fraction: float, n: int) -> int:
    """ceil(fraction * n), the number of tuples a selectivity qualifies."""
    product = fraction * n
    # 0.07 * 100 is 7.000000000000001 in floating point; shave such drift,
    # but not down to 0: a positive product qualifies at least one tuple
    return max(math.ceil(round(product, 9)), int(product > 0))


def check_selectivity(selectivity: float) -> None:
    """Reject a selectivity that is not a real number within [0, 1]."""
    check_real("selectivity", selectivity)
    if not 0 <= selectivity <= 1:
        raise ValueError(f"selectivity {selectivity!r} is not within [0, 1]")


@dataclass(frozen=True)
class RelationSchema:
    k: int
    n: int
    attr_bits: int = 64

    def __post_init__(self):
        for field in ("k", "n", "attr_bits"):
            check_integer(f"relation schema {field}", getattr(self, field))
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
        for w in self.projected:
            check_integer("projected attribute", w)
        check_integer("predicate attribute", self.predicate_attr)
        proj = tuple(sorted(set(self.projected)))
        object.__setattr__(self, "projected", proj)
        if not proj or any(w < 1 for w in proj):
            raise ValueError("projected attribute set must be non-empty, 1-based")
        if self.predicate_attr not in proj:
            raise ValueError("predicate attribute must be projected")
        check_selectivity(self.selectivity)

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

    def compile(self, query: RangeQuery) -> AccessPlan:
        _check_query(query, self.schema)
        napt, rows = self.params.n_active_tips, self.rows_used
        # slot by slot, attribute by attribute, so the tips ascend: the
        # i-th projected attribute's tips fill every nproj-th place
        k, nproj = self.schema.k, query.n_projection
        slots = min(self.m, self.schema.n)
        tips = [0] * (slots * nproj)
        for i, w in enumerate(query.projected):
            tips[i::nproj] = range(w, k * slots + w, k)
        needed = SortedTips.prechecked(tips)
        # the final sector row holds only the first n_last slots
        n_last = self.schema.n - (rows - 1) * self.m
        last = SortedTips.prechecked(needed[:n_last * nproj])
        # each layer: the body's rows - 1 units, then the last one, which
        # alone overrides; a single row reads the last set alone
        units, lead = ([needed, last], rows - 1) if rows > 1 else ([last], 1)
        return AccessPlan([rs_scan(1, self.spv, cut, lead)
                           for cut in layer_cuts(units, napt)])

    def k_values(self, query: RangeQuery) -> CostInput:
        _check_query(query, self.schema)
        nproj = query.n_projection
        return CostInput(bits=self.schema.n * nproj * self.schema.attr_bits,
                         k_parallel=min(self.m * nproj, self.params.n_active_tips),
                         k_random=1)


class QualifyingBand(NamedTuple):
    """A draw's qualifying rows, checked and scanned from band row 1 by
    the `RelLayoutRP` that built them."""
    layout: "RelLayoutRP"
    rows: Mapping[int, Sequence[int]]
    scans: list


class RelLayoutRP:
    """Attribute-band layout: attribute w fills rows of its own band."""

    def __init__(self, params: DeviceParams, schema: RelationSchema):
        self.params = params
        self.schema = schema
        self.spv = schema.sectors_per_value(params.sector_bits)
        self.band_rows = h = -(-schema.n // params.n_tips)
        if schema.k * h * self.spv > params.sectors_per_region:
            raise ValueError("relation does not fit the device under this layout")
        # the predicate's full band from row 1: the full rows' one set held
        # for a lead run, then the last row's own, left out of a layer it
        # has no tips in; a single row reads its own set alone
        full, tail = range(1, params.n_tips + 1), range(1, self._row_count(h) + 1)
        units, lead = ([full, tail], h - 1) if h > 1 else ([tail], 1)
        self._full_band = [rs_scan(1, self.spv, cut if cut[-1] else cut[:1], lead)
                           for cut in layer_cuts(units, params.n_active_tips)]

    def band_start(self, w: int) -> int:
        return (w - 1) * self.band_rows * self.spv + 1

    def map(self, v: int, w: int) -> RSAddr:
        _check_vw(v, w, self.schema)
        vrow, tip = divmod(v - 1, self.params.n_tips)
        return RSAddr(tip + 1, self.band_start(w) + vrow * self.spv)

    def _row_count(self, band_row: int) -> int:
        if band_row < self.band_rows:
            return self.params.n_tips
        return self.schema.n - (self.band_rows - 1) * self.params.n_tips

    def _band(self, rows: Mapping[int, Sequence[int]]) -> QualifyingBand:
        """`rows`, checked by the caller, with its scans from band row 1."""
        units = [rows.get(j, ()) for j in range(1, self.band_rows + 1)]
        return QualifyingBand(self, rows,
                              layer_scans(1, self.spv, units, self.params))

    def qualifying_rows(self, qualifying: Iterable[int]) -> QualifyingBand:
        """Qualifying tuple ids bucketed by band row, as one band for all.

        Each row's tips are a `SortedTips`, so the emulator checks them
        at their two ends however many plans share them.  The ids are
        checked and sorted once, as one list, so no row is walked again.
        """
        ids = list(qualifying)
        check_integers("qualifying tuple id", ids)
        ids.sort()
        for v in ids[:1] + ids[-1:]:
            if not 1 <= v <= self.schema.n:
                raise ValueError(f"qualifying tuple id {v} out of range")
        if not all(map(lt, ids, islice(ids, 1, None))):
            # sorted ids ascend strictly unless one is repeated
            v = next(a for a, b in zip(ids, islice(ids, 1, None)) if a == b)
            raise ValueError(f"qualifying tuple id {v} listed twice")
        n_pt = self.params.n_tips
        rows: Dict[int, SortedTips] = {}
        i = 0
        while i < len(ids):
            row = (ids[i] - 1) // n_pt + 1
            j = bisect_right(ids, row * n_pt, i)
            rows[row] = SortedTips.prechecked(map(sub, ids[i:j],
                                                  repeat((row - 1) * n_pt)))
            i = j
        return self._band(rows)

    def counted_rows(self, counts: Sequence[int]) -> QualifyingBand:
        """The band from how many qualifying tuples each row holds: row j
        with `counts[j-1]` > 0 gets the tips 1..counts[j-1], as one
        `range` shared by every row of that count.

        An execute's `Timing` depends only on each row's tip-set size, so
        these rows price a plan as the `qualifying_rows` of any ids with
        those counts do.  Only `Emulator.read`, which returns the tips'
        bytes, needs the real ids.
        """
        check_integers("qualifying count", counts)
        if len(counts) > self.band_rows:
            raise ValueError(f"{len(counts)} qualifying counts for "
                             f"{self.band_rows} band rows")
        # one range per distinct count, shared by every row of that count
        shared = {count: range(1, count + 1) for count in set(counts)}
        rows: Dict[int, range] = {}
        for row, count in enumerate(counts, 1):
            if count:
                if not 0 < count <= self._row_count(row):
                    raise ValueError(f"qualifying count {count} of band row "
                                     f"{row} out of range "
                                     f"0..{self._row_count(row)}")
                rows[row] = shared[count]
        return self._band(rows)

    def compile(self, query: RangeQuery, band: QualifyingBand) -> AccessPlan:
        """Plan: the predicate band in full, other bands only where tuples qualify.

        It only places scans, so `band` must be a `QualifyingBand` of this
        layout; any other, an equal one included, is rejected by name."""
        _check_query(query, self.schema)
        if not isinstance(band, QualifyingBand) or band.layout is not self:
            got = ("a band of another layout" if isinstance(band, QualifyingBand)
                   else type(band).__name__)
            raise ValueError("compile takes a QualifyingBand of this layout, "
                             f"got {got}")
        scans = shift_scans(self._full_band,
                            self.band_start(query.predicate_attr) - 1)
        for w in query.projected:
            if w != query.predicate_attr:
                scans += shift_scans(band.scans, self.band_start(w) - 1)
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
