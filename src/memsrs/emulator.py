"""Event-free timing emulator for the probe-array device.

The media sled serpentines through tip-sector columns: odd columns are
traversed top-to-bottom, even columns bottom-to-top, so consecutive
linear rows are physically adjacent.  All tips share the single sled,
which is why a scan is priced once no matter how many tips it powers.

There is one execution path.  A scan is priced pass by pass: pass 0
walks the scan from its entry row to its exit row, and each later pass
reverses over the rows that still want more than `n_active_tips` tips.
Those rows are the default set's outermost rows when that set is wide,
and the wide overrides, listed only when the widest override is wide.
A pass costs only its row steps, column crossings and one turnaround,
and `Timing` seconds are computed from those integer event counts plus
the seek charges.  `read` walks the same passes and also reads each
pass's cells, so it returns the same `Timing` as `execute`.

Tips are symmetric: `execute`'s `Timing` (and the sled's end state)
depends only on how many tips each row's set holds, never on which
ones.  Replacing any default or override set by another valid set of
the same size prices the plan alike, so a caller that only times a plan
may pass `range(1, count + 1)` for a row of `count` tips.  `read` is
exempt, since it returns the tips' bytes.

A plan is checked scan by scan as it is priced, each scan before its
pricing.  The sled state moves in locals and is written back only after
the last scan, so an invalid plan raises `ValueError` and leaves the
sled state unchanged.  A plan must be an `AccessPlan`.  A scan's start,
length, override rows and tips must be ints (a bool is not one), its
overrides a mapping, and a tip set a sequence, checked by its smallest
and largest tip: a `range` and a `SortedTips` (a tuple whose tips were
checked to be ints that ascend, when it was built or by the caller of
`prechecked`) at their two ends, any other set by a walk over its tips
that also rejects a repeated tip (one tip reads one sector per row).
Each distinct set object is checked once per plan: a scan's override
sets are told apart by `id` at C speed, so rows and scans that share one
set (the linear stores share one `range` per tip group, and counted band
rows one `range` per count) add no check.
A `RowTips` does for a scan's override rows what `SortedTips` does for
tips: built once (by `rs_scan`, `rs.shift_scans` and `plan_from_text`)
and frozen, it has checked that its rows are ints and keeps its first
and last rows, its distinct sets, the sectors its rows read and its
widest set.  A plan checks such rows against their scan at those two
ends and prices them from those sums, without walking them; each of its
sets is still checked once per plan, against the emulator's tips.  Any
other override mapping is made a `RowTips` when its scan runs.
`read` checks before the first scan that its image is a `MediaImage`
that covers the emulator's geometry and holds sectors of its size, so
a bad image is named even when the plan is bad too.  The image
keeps each written sector row as one list of cells indexed by region, so
`read` takes a pass row's cells as one slice of that list when the
row's layer is a step-1 `range`, and by one lookup per tip otherwise; a
scan without overrides cuts its layer once per pass.  Unwritten cells,
and unwritten rows, read as zeros.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import add, itemgetter, lt
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .device import DeviceParams, check_integer, check_integers, named

SEEK_MODELS = ("average", "distance")


def _col_row(s: int, sy: int) -> Tuple[int, int]:
    """Linear RS row -> (column, physical row) under serpentine order:
    odd columns run downward, even columns run back up."""
    col = (s - 1) // sy + 1
    off = (s - 1) % sy
    row = off + 1 if col % 2 == 1 else sy - off
    return col, row


def _lin(col: int, row: int, sy: int) -> int:
    """(column, physical row) -> linear RS row; inverse of `_col_row`."""
    off = row - 1 if col % 2 == 1 else sy - row
    return (col - 1) * sy + off + 1


@dataclass
class SledState:
    col: int = 1
    row: int = 1
    y_dir: int = 1  # +1 toward higher physical rows


@dataclass
class Scan:
    """One contiguous pass request over linear rows [start, start+length).

    `tips` is the default activation set (region numbers).  `per_row_tips`
    replaces that set entirely for the listed rows; an empty override
    means the row is stepped over without reading.
    """
    tips: Sequence[int]
    start: int
    length: int
    per_row_tips: Optional[Dict[int, Sequence[int]]] = None


@dataclass
class AccessPlan:
    scans: List[Scan] = field(default_factory=list)


@dataclass(frozen=True)
class Timing:
    total_s: float
    seek_s: float
    transfer_s: float
    settle_s: float
    turnaround_s: float
    n_seeks: int
    n_turnarounds: int
    n_row_steps: int
    n_sectors: int


def check_bytes_like(payloads: Sequence, name: Callable[[int], str]) -> None:
    """Reject a payload that is not bytes, a bytearray or a memoryview,
    naming the first one by `name(index)`; exact `bytes` pass at C speed."""
    if {*map(type, payloads)} - {bytes}:
        for i, data in enumerate(payloads):
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise ValueError(f"{name(i)} must be bytes, bytearray or "
                                 f"memoryview, got {type(data).__name__}")


class MediaImage:
    """Cell store by sector row: each written row is one list of cells,
    indexed by region (index 0 unused) and filled with one shared zero
    cell, so unwritten cells, and rows, read back as zero bytes."""

    def __init__(self, params: DeviceParams):
        if params.sector_bits % 8 != 0:
            raise ValueError("sector_bits must be a whole number of bytes")
        self.params = params
        self.sector_bytes = params.sector_bits // 8
        self.n_regions = params.n_regions
        self.sectors_per_region = params.sectors_per_region
        # the row every unwritten row reads as, and each written row's start
        self._zero_row = [bytes(self.sector_bytes)] * (self.n_regions + 1)
        self._cells: Dict[int, List[bytes]] = {}

    def write_cell(self, region: int, s: int, data: bytes) -> None:
        self.write_cells((region,), (s,), (data,))

    def write_cells(self, regions: Sequence[int], rows: Sequence[int],
                    cells: Sequence[bytes]) -> None:
        """Store `cells[i]` at (`regions[i]`, `rows[i]`) for every i.  The
        whole batch is checked first, so a bad cell stores nothing."""
        if not len(regions) == len(rows) == len(cells):
            raise ValueError(f"{len(regions)} regions, {len(rows)} rows and "
                             f"{len(cells)} cells do not pair up")
        if not cells:
            return
        # exact ints pass at C speed; the first cell with another type fails
        if {*map(type, regions)} | {*map(type, rows)} != {int}:
            for region, s in zip(regions, rows):
                check_integer("region", region)
                check_integer("row", s)
        low, high = min(regions), max(regions)
        if low < 1 or high > self.n_regions:
            raise ValueError(f"region {low if low < 1 else high} out of range "
                             f"1..{self.n_regions}")
        low, high = min(rows), max(rows)
        if low < 1 or high > self.sectors_per_region:
            raise ValueError(f"row {low if low < 1 else high} out of range "
                             f"1..{self.sectors_per_region}")
        if {*map(type, cells)} != {bytes}:
            check_bytes_like(cells, lambda i: "cell payload")
            cells = list(map(bytes, cells))
        if {*map(len, cells)} != {self.sector_bytes}:
            raise ValueError(f"cell payload must be {self.sector_bytes} bytes")
        store, zero_row = self._cells, self._zero_row
        for region, s, data in zip(regions, rows, cells):
            row = store.get(s)
            if row is None:
                row = store[s] = zero_row.copy()
            row[region] = data


class SortedTips(tuple):
    """A tip set of ints that strictly ascend, checked once when it is
    built, so its smallest and largest tips are its two ends."""

    __slots__ = ()

    def __new__(cls, tips: Iterable[int] = ()):
        self = super().__new__(cls, tips)
        check_integers("tip", self)
        if not all(map(lt, self, islice(self, 1, None))):
            raise ValueError("tips must be strictly ascending")
        return self

    @classmethod
    def prechecked(cls, tips: Iterable[int]) -> "SortedTips":
        """A `SortedTips` of tips the caller has already checked to be
        ints that strictly ascend, built without walking them again."""
        return tuple.__new__(cls, tips)


def _frozen(self, *args, **kwargs):
    raise TypeError("a RowTips cannot be changed; build another one")


class RowTips(dict):
    """A scan's override rows, checked to be ints and summarised once
    when built: `lo` and `hi` are its first and last rows, `sets` its
    distinct tip-set objects in first-use order, `cells` the sectors its
    rows read (the sum of their sets' sizes) and `widest` the largest
    set's size.  Every mutator raises `TypeError`, so the summary cannot
    go stale; it describes the sets as they were built, so they should be
    immutable (a tuple, `range` or `SortedTips`)."""

    __slots__ = ("lo", "hi", "sets", "cells", "widest")

    def __new__(cls, rows=()):
        self = dict.__new__(cls)
        dict.update(self, rows)
        if not self:
            self.lo = self.hi = None
            self.sets, self.cells, self.widest = (), 0, 0
            return self
        # rows that are all exact ints pass at C speed
        if {*map(type, self)} != {int}:
            for s in self:
                check_integer("override row", s)
        vals = self.values()
        self.lo, self.hi = min(self), max(self)
        self.sets = sets = tuple(dict(zip(map(id, vals), vals)).values())
        try:
            self.cells = sum(map(len, vals))
        except TypeError:
            # a set without a size is no sequence: name its type
            for tips in sets:
                _check_sequence(tips)
            raise
        self.widest = max(map(len, sets))
        return self

    def __init__(self, rows=()):
        # built in `__new__`: a second `__init__` call changes nothing
        pass

    __setitem__ = __delitem__ = __ior__ = _frozen
    update = clear = pop = popitem = setdefault = _frozen

    def __reduce__(self):
        # copied and pickled by building anew, not by setting rows
        return RowTips, (dict(self),)

    def shifted(self, rows: int) -> "RowTips":
        """These overrides `rows` rows further on: the keys rebuilt at C
        speed, the ends moved and the rest of the summary shared."""
        if type(rows) is not int:
            check_integer("rows", rows)
        if not self:
            return self
        moved = dict.__new__(RowTips)
        dict.update(moved, zip(map(add, self, repeat(rows)), self.values()))
        moved.lo, moved.hi = self.lo + rows, self.hi + rows
        moved.sets, moved.cells, moved.widest = self.sets, self.cells, self.widest
        return moved


def _check_sequence(tips) -> None:
    if not isinstance(tips, Sequence):
        raise ValueError(f"tip set must be a sequence, got {type(tips).__name__}")


def _check_tips(tips: Sequence[int], n_tips: int) -> None:
    # the exact type: a subclass could be built without the check
    walked = type(tips) is not SortedTips and type(tips) is not range
    # these exact types skip the sequence test, a far slower ABC check
    if walked and type(tips) is not tuple:
        _check_sequence(tips)
    if not tips:
        return
    if walked:
        check_integers("tip", tips)
        low, high = min(tips), max(tips)
    else:
        # a range's extremes are its end points, whatever its step
        low, high = min(tips[0], tips[-1]), max(tips[0], tips[-1])
    if low < 1 or high > n_tips:
        raise ValueError(f"tip {low if low < 1 else high} out of range 1..{n_tips}")
    # only a walked set can repeat a tip
    if walked and len(set(tips)) < len(tips):
        seen = set()
        for tip in tips:
            if tip in seen:
                raise ValueError(f"tip {tip} listed twice")
            seen.add(tip)


def _layer_reader(
        layer: Sequence[int]) -> Callable[[List[bytes]], Iterable[bytes]]:
    """From a stored sector row, the cells of the tips in `layer`: one
    slice for a step-1 `range`, else one lookup per tip, in C when the
    layer has two tips or more (an `itemgetter` of one returns no tuple)."""
    if type(layer) is range and layer.step == 1:
        return itemgetter(slice(layer.start, layer.stop))
    if len(layer) > 1:
        return itemgetter(*layer)
    return lambda row: map(row.__getitem__, layer)


class Emulator:
    """Executes access plans scan by scan, accumulating a timing trace."""

    def __init__(self, params: DeviceParams, seek_model: str = "average"):
        if seek_model not in SEEK_MODELS:
            raise ValueError(f"unknown seek model: {seek_model!r}")
        self.params = params
        self.seek_model = seek_model
        self.state = SledState()

    def execute(self, plan: AccessPlan) -> Timing:
        return self._run(plan, None)[0]

    def read(self, plan: AccessPlan, media: MediaImage) -> Tuple[Timing, bytes]:
        if not isinstance(media, MediaImage):
            raise ValueError(f"media must be a MediaImage, got {type(media).__name__}")
        return self._run(plan, media)

    # -- internals ------------------------------------------------------

    def _run(self, plan: AccessPlan, media: Optional[MediaImage]):
        """Check each scan, then price it.  Plans share tip-set objects
        between rows and scans, so each distinct object is checked once;
        keying on `id()` is safe because the plan holds every tip set for
        the whole call."""
        if not isinstance(plan, AccessPlan):
            raise ValueError(f"plan must be an AccessPlan, got {type(plan).__name__}")
        p = self.params
        n_tips, n_rows = p.n_tips, p.sectors_per_region
        if media is not None:
            # with each scan inside the emulator's geometry, one check here
            # stands in for a bound check per cell
            if media.n_regions < n_tips or media.sectors_per_region < n_rows:
                raise ValueError(
                    f"media image of {media.n_regions} regions x "
                    f"{media.sectors_per_region} rows does not cover the "
                    f"emulator's {n_tips} tips x {n_rows} rows")
            if media.sector_bytes * 8 != p.sector_bits:
                raise ValueError(
                    f"media image of {media.sector_bytes * 8}-bit sectors does "
                    f"not match the emulator's {p.sector_bits}-bit sectors")
            get, zero_row = media._cells.get, media._zero_row
        napt = p.n_active_tips
        sx, sy = p.sectors_x, p.sectors_y
        # repositioning: X and Y moves overlap, so a seek costs the larger
        # of the two, and an adjacent column is reached by a settle alone
        average = self.seek_model == "average"  # else "distance"
        settle, turn_s = p.settle_time_s, p.turnaround_time_s
        far_x, move_y = p.move_x_s + settle, p.move_y_s
        x3, y3 = 3.0 * p.move_x_s, 3.0 * p.move_y_s
        seek_s = 0.0
        n_seeks = n_turnarounds = n_row_steps = n_settles = n_sectors = 0
        out: List[bytes] = []
        no_rows: Dict[int, Sequence[int]] = {}
        checked = set()
        # the sled, in locals until the last scan is priced, so an invalid
        # plan leaves it where it was
        state = self.state
        col, row, y_dir = state.col, state.row, state.y_dir
        cur = _lin(col, row, sy)  # the sled's linear row

        for scan in plan.scans:
            lo, length, tips = scan.start, scan.length, scan.tips
            # the exact type, inline: a valid field costs no extra call
            if type(length) is not int:
                check_integer("scan length", length)
            if length < 1:
                raise ValueError("scan length must be >= 1")
            if type(lo) is not int:
                check_integer("scan start", lo)
            hi = lo + length - 1
            if lo < 1 or hi > n_rows:
                raise ValueError(f"scan rows {lo}..{hi} exceed 1..{n_rows}")
            if id(tips) not in checked:
                _check_tips(tips, n_tips)
                checked.add(id(tips))
            prt = scan.per_row_tips
            if prt:
                # the exact type: any other mapping is made one, which
                # checks its rows; a RowTips's rows are not walked again
                if type(prt) is not RowTips:
                    if not isinstance(prt, Mapping):
                        raise ValueError(f"per_row_tips must be a mapping, "
                                         f"got {type(prt).__name__}")
                    prt = RowTips(prt)
                for s in (prt.lo, prt.hi):
                    if not lo <= s <= hi:
                        raise ValueError(f"override row {s} outside scan {lo}..{hi}")
                # a scan whose sets were all seen costs one subset test
                if not {*map(id, prt.sets)} <= checked:
                    for t in prt.sets:
                        if id(t) not in checked:
                            _check_tips(t, n_tips)
                            checked.add(id(t))
                n_sectors += len(tips) * (length - len(prt)) + prt.cells
                # rows wanting more tips than one pass activates: the wide
                # overrides and the outermost rows left on the default set
                wide = ([(s, len(t)) for s, t in prt.items() if len(t) > napt]
                        if prt.widest > napt else [])
            else:
                prt = no_rows
                n_sectors += len(tips) * length
                wide = []
            if len(tips) > napt and len(prt) < length:
                first, last = lo, hi
                while first in prt:
                    first += 1
                while last in prt:
                    last -= 1
                wide += [(first, len(tips)), (last, len(tips))]

            ascending = abs(cur - lo) <= abs(cur - hi)
            entry = lo if ascending else hi
            # the entry's column and physical row (`_col_row`): odd
            # columns run down, even ones back up
            tcol = (entry - 1) // sy + 1
            off = (entry - 1) % sy
            trow = off + 1 if tcol % 2 == 1 else sy - off

            if trow != row:
                first_dir = 1 if trow > row else -1
            elif length > 1:
                # the physical direction of linear order in this column
                first_dir = 1 if (tcol % 2 == 1) == ascending else -1
            else:
                first_dir = 0
            turn = turn_s if first_dir and first_dir == -y_dir else 0.0
            dcol, drow = abs(tcol - col), abs(trow - row)
            if dcol or drow:
                if average:
                    x = 0.0 if not dcol else settle if dcol == 1 else far_x
                    y = move_y if drow else 0.0
                else:
                    x = x3 * dcol / sx + settle if dcol else 0.0
                    y = y3 * drow / sy
                seek_s += max(x, y + turn)
            elif turn > 0:
                # in place, the only charge is a direction reversal
                n_turnarounds += 1
            n_seeks += 1

            # pass k activates tips [k*napt, (k+1)*napt) of each row.  Pass 0
            # walks entry to exit; each later pass reverses and walks to the
            # far end of the span of rows that still want more tips.  The
            # sled is always at or outside an end of that span.
            pos, span, base, last_dir = entry, (lo, hi), 0, 1
            while True:
                lo_n, hi_n = span
                far, dirn = (hi_n, 1) if pos <= lo_n else (lo_n, -1)
                n_row_steps += abs(far - pos) + (lo_n <= pos <= hi_n)
                n_settles += abs((far - 1) // sy - (pos - 1) // sy)
                if media is not None:
                    rows = (range(lo_n, hi_n + 1) if dirn > 0
                            else range(hi_n, lo_n - 1, -1))
                    if prt:
                        for s in rows:
                            layer = prt.get(s, tips)[base:base + napt]
                            out += _layer_reader(layer)(get(s, zero_row))
                    else:
                        # one layer for every row of the pass
                        out += chain.from_iterable(map(
                            _layer_reader(tips[base:base + napt]),
                            map(get, rows, repeat(zero_row))))
                last_dir = -last_dir if far == pos else dirn
                pos = far
                base += napt
                need = wide and [s for s, c in wide if c > base]
                if not need:
                    break
                span = (min(need), max(need))
                n_turnarounds += 1

            cur = pos
            col = (pos - 1) // sy + 1
            off = (pos - 1) % sy
            row = off + 1 if col % 2 == 1 else sy - off
            if length > 1:
                y_dir = 1 if (col % 2 == 1) == (last_dir == 1) else -1
            elif first_dir:
                y_dir = first_dir

        state.col, state.row, state.y_dir = col, row, y_dir

        # seconds come from event counts, so execute and read agree
        # exactly; total_s adds repositioning and streaming time in the
        # order the bench's seek_s and transfer_s columns sum them
        transfer_s = n_row_steps * p.sector_time_s
        settle_s = n_settles * p.settle_time_s
        turnaround_s = n_turnarounds * p.turnaround_time_s
        timing = Timing(total_s=(seek_s + turnaround_s) + (transfer_s + settle_s),
                        seek_s=seek_s, transfer_s=transfer_s,
                        settle_s=settle_s, turnaround_s=turnaround_s,
                        n_seeks=n_seeks, n_turnarounds=n_turnarounds,
                        n_row_steps=n_row_steps, n_sectors=n_sectors)
        return timing, b"".join(out)


# -- plan text form -----------------------------------------------------

def _run_text(first: int, last: int) -> str:
    return str(first) if first == last else f"{first}-{last}"


def _rle(tips: Iterable[int]) -> str:
    # a step-1 range is one run, and a `SortedTips` already ascends
    if type(tips) is range and tips.step == 1 and tips:
        return _run_text(tips[0], tips[-1])
    vals = tips if type(tips) is SortedTips else sorted(tips)
    if not vals:
        return "-"
    parts: List[str] = []
    run_start = prev = vals[0]
    for v in vals[1:]:
        if v == prev + 1:
            prev = v
            continue
        parts.append(_run_text(run_start, prev))
        run_start = prev = v
    parts.append(_run_text(run_start, prev))
    return ",".join(parts)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None


def _parse_rle(text: str) -> Tuple[int, ...]:
    if text == "-":
        return ()
    vals: List[int] = []
    for part in text.split(","):
        a, dash, b = part.partition("-")
        try:
            first = int(a)
            last = int(b) if dash else first
        except ValueError:
            raise ValueError(f"tip run {part!r} is not 'n' or 'n-m'") from None
        if last < first:
            raise ValueError(f"tip run {part!r} runs backwards")
        vals.extend(range(first, last + 1))
    seen = set()
    for v in vals:
        if v in seen:
            raise ValueError(f"tip {v} listed twice in {text!r}")
        seen.add(v)
    return tuple(vals)


def plan_to_text(plan: AccessPlan) -> str:
    """One scan per line: start, length, then the tip set run-length encoded.

    Per-row overrides follow on `row` continuation lines.
    """
    lines: List[str] = []
    for scan in plan.scans:
        lines.append(f"scan {scan.start} {scan.length} {_rle(scan.tips)}")
        if scan.per_row_tips:
            for s in sorted(scan.per_row_tips):
                lines.append(f"row {s} {_rle(scan.per_row_tips[s])}")
    return "\n".join(lines) + ("\n" if lines else "")


def plan_from_text(text: str) -> AccessPlan:
    """Parse the `plan_to_text` form; a bad record fails naming its line."""
    scans: List[Scan] = []
    # each scan's override rows, made one `RowTips` once all are read
    overrides: List[Dict[int, Tuple[int, ...]]] = []
    # (scan count, row) -> the line of that scan's override of the row
    row_lines: Dict[Tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        with named(f"line {lineno}"):
            _parse_record(line.split(), scans, overrides, row_lines, lineno)
    for scan, rows in zip(scans, overrides):
        if rows:
            scan.per_row_tips = RowTips(rows)
    return AccessPlan(scans)


def _parse_record(fields: List[str], scans: List[Scan],
                  overrides: List[Dict[int, Tuple[int, ...]]],
                  row_lines: Dict[Tuple[int, int], int], lineno: int) -> None:
    if fields[0] == "scan":
        if len(fields) != 4:
            raise ValueError("expected 'scan start length tips'")
        start = _parse_int(fields[1], "start")
        length = _parse_int(fields[2], "length")
        scans.append(Scan(tips=_parse_rle(fields[3]), start=start, length=length))
        overrides.append({})
    elif fields[0] == "row":
        if not scans:
            raise ValueError("row override before any scan")
        if len(fields) != 3:
            raise ValueError("expected 'row s tips'")
        s = _parse_int(fields[1], "row")
        first = row_lines.setdefault((len(scans), s), lineno)
        if first != lineno:
            raise ValueError(f"row {s} of this scan already overridden "
                             f"on line {first}")
        overrides[-1][s] = _parse_rle(fields[2])
    else:
        raise ValueError(f"unknown record {fields[0]!r}")
