"""Event-free timing emulator for the probe-array device.

The media sled serpentines through tip-sector columns: odd columns are
traversed top-to-bottom, even columns bottom-to-top, so consecutive
linear rows are physically adjacent.  All tips share the single sled,
which is why a scan is priced once no matter how many tips it powers.

There is one execution path.  A scan is priced pass by pass: pass 0
walks the scan from its entry row to its exit row, and each later pass
reverses over the rows that still want more than `n_active_tips` tips.
A pass costs only its row steps, column crossings and one turnaround,
and `Timing` seconds are computed from those integer event counts plus
the seek charges.  `read` walks the same passes and also reads each
pass's cells, so it returns the same `Timing` as `execute`.

A plan is validated once, in full, before the sled moves, so an invalid
plan raises `ValueError` and leaves the sled state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .device import DeviceParams


def _col_of(s: int, sy: int) -> int:
    return (s - 1) // sy + 1


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


def _phys_dir(col: int, ascending: bool) -> int:
    """Physical Y direction while moving through `col` in linear order."""
    d = 1 if col % 2 == 1 else -1
    return d if ascending else -d


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


class MediaImage:
    """Sparse cell store; unwritten cells read back as zero bytes."""

    def __init__(self, params: DeviceParams):
        if params.sector_bits % 8 != 0:
            raise ValueError("sector_bits must be a whole number of bytes")
        self.params = params
        self.sector_bytes = params.sector_bits // 8
        self._cells: Dict[Tuple[int, int], bytes] = {}

    def _check(self, region: int, s: int) -> None:
        p = self.params
        if not 1 <= region <= p.n_regions:
            raise ValueError(f"region {region} out of range 1..{p.n_regions}")
        if not 1 <= s <= p.sectors_per_region:
            raise ValueError(f"row {s} out of range 1..{p.sectors_per_region}")

    def write_cell(self, region: int, s: int, data: bytes) -> None:
        self._check(region, s)
        if len(data) != self.sector_bytes:
            raise ValueError(f"cell payload must be {self.sector_bytes} bytes")
        self._cells[(region, s)] = bytes(data)

    def read_cell(self, region: int, s: int) -> bytes:
        self._check(region, s)
        return self._cells.get((region, s), bytes(self.sector_bytes))


def _check_tips(tips: Sequence[int], n_tips: int) -> None:
    if tips:
        if isinstance(tips, range):
            # a range's extremes are its end points, whatever its step
            low, high = min(tips[0], tips[-1]), max(tips[0], tips[-1])
        else:
            low, high = min(tips), max(tips)
        if low < 1 or high > n_tips:
            raise ValueError(f"tip {low if low < 1 else high} out of range 1..{n_tips}")


def _transition_cost(state: SledState, tcol: int, trow: int, first_dir: int,
                     p: DeviceParams, model: str) -> Tuple[float, bool]:
    """Cost of repositioning before a scan; True when the sled moved.

    X and Y repositioning overlap, so the charge is the larger of the two.
    A target in an adjacent column is reachable by a settle alone.
    """
    dcol = abs(tcol - state.col)
    drow = abs(trow - state.row)
    if model == "average":
        if dcol == 0:
            x_comp = 0.0
        elif dcol == 1:
            x_comp = p.settle_time_s
        else:
            x_comp = p.move_x_s + p.settle_time_s
        y_move = p.move_y_s if drow else 0.0
    elif model == "distance":
        x_comp = 0.0 if dcol == 0 else 3.0 * p.move_x_s * dcol / p.sectors_x + p.settle_time_s
        y_move = 3.0 * p.move_y_s * drow / p.sectors_y
    else:
        raise ValueError(f"unknown seek model: {model!r}")
    turn = p.turnaround_time_s if first_dir != 0 and first_dir == -state.y_dir else 0.0
    return max(x_comp, y_move + turn), bool(dcol or drow)


def seek_time(state: SledState, col: int, row: int, p: DeviceParams,
              model: str = "average") -> float:
    """Repositioning time from `state` to physical (col, row)."""
    if not 1 <= col <= p.sectors_x:
        raise ValueError(f"column {col} out of range 1..{p.sectors_x}")
    if not 1 <= row <= p.sectors_y:
        raise ValueError(f"row {row} out of range 1..{p.sectors_y}")
    if row != state.row:
        first_dir = 1 if row > state.row else -1
    else:
        first_dir = 0
    cost, _ = _transition_cost(state, col, row, first_dir, p, model)
    return cost


class Emulator:
    """Executes access plans scan by scan, accumulating a timing trace."""

    def __init__(self, params: DeviceParams, seek_model: str = "average",
                 state: Optional[SledState] = None):
        if seek_model not in ("average", "distance"):
            raise ValueError(f"unknown seek model: {seek_model!r}")
        self.params = params
        self.seek_model = seek_model
        self.state = state if state is not None else SledState()
        self._sector_time = params.sector_bits / params.tip_rate_bits_s

    def execute(self, plan: AccessPlan) -> Timing:
        t, _ = self._run(plan, None)
        return t

    def read(self, plan: AccessPlan, media: MediaImage) -> Tuple[Timing, bytes]:
        t, data = self._run(plan, media)
        return t, data

    # -- internals ------------------------------------------------------

    def _validate(self, plan: AccessPlan) -> None:
        """Check every scan in plan order, before any of them is priced.

        Plans share tip-set objects between rows and scans, so each
        distinct object is checked once.  Keying on `id()` is safe
        because the plan holds every tip set for the whole call.
        """
        p = self.params
        n_tips = p.n_tips
        checked = set()

        def check(tips: Sequence[int]) -> None:
            if id(tips) not in checked:
                _check_tips(tips, n_tips)
                checked.add(id(tips))

        for scan in plan.scans:
            if scan.length < 1:
                raise ValueError("scan length must be >= 1")
            lo, hi = scan.start, scan.start + scan.length - 1
            if lo < 1 or hi > p.sectors_per_region:
                raise ValueError(f"scan rows {lo}..{hi} exceed 1..{p.sectors_per_region}")
            check(scan.tips)
            if scan.per_row_tips:
                for s in (min(scan.per_row_tips), max(scan.per_row_tips)):
                    if not lo <= s <= hi:
                        raise ValueError(f"override row {s} outside scan {lo}..{hi}")
                for tips in scan.per_row_tips.values():
                    check(tips)

    def _run(self, plan: AccessPlan, media: Optional[MediaImage]):
        self._validate(plan)
        p = self.params
        napt = p.n_active_tips
        sy = p.sectors_y
        seek_s = 0.0
        n_seeks = n_turnarounds = n_row_steps = n_settles = n_sectors = 0
        out: List[bytes] = []

        for scan in plan.scans:
            lo = scan.start
            hi = scan.start + scan.length - 1
            cur = _lin(self.state.col, self.state.row, sy)
            ascending = abs(cur - lo) <= abs(cur - hi)
            entry = lo if ascending else hi
            tcol, trow = _col_row(entry, sy)

            if trow != self.state.row:
                first_dir = 1 if trow > self.state.row else -1
            elif scan.length > 1:
                first_dir = _phys_dir(tcol, ascending)
            else:
                first_dir = 0
            cost, moved = _transition_cost(self.state, tcol, trow, first_dir,
                                           p, self.seek_model)
            if moved:
                seek_s += cost
            elif cost > 0:
                # in place, the only charge is a direction reversal
                n_turnarounds += 1
            n_seeks += 1

            tips = scan.tips
            prt = scan.per_row_tips or {}
            n_sectors += (len(tips) * (scan.length - len(prt))
                          + sum(map(len, prt.values())))
            # rows wanting more tips than one pass activates: the wide
            # overrides and the outermost rows left on the default set
            wide = [(s, len(t)) for s, t in prt.items() if len(t) > napt]
            if len(tips) > napt and len(prt) < scan.length:
                first, last = lo, hi
                while first in prt:
                    first += 1
                while last in prt:
                    last -= 1
                wide += [(first, len(tips)), (last, len(tips))]

            # pass k activates tips [k*napt, (k+1)*napt) of each row.  Pass 0
            # walks entry to exit; each later pass reverses and walks to the
            # far end of the span of rows that still want more tips.  The
            # sled is always at or outside an end of that span.
            pos, span, base, last_dir = entry, (lo, hi), 0, 1
            while True:
                lo_n, hi_n = span
                far, dirn = (hi_n, 1) if pos <= lo_n else (lo_n, -1)
                n_row_steps += abs(far - pos) + (lo_n <= pos <= hi_n)
                n_settles += abs(_col_of(far, sy) - _col_of(pos, sy))
                if media is not None:
                    rows = (range(lo_n, hi_n + 1) if dirn > 0
                            else range(hi_n, lo_n - 1, -1))
                    for s in rows:
                        for tip in prt.get(s, tips)[base:base + napt]:
                            out.append(media.read_cell(tip, s))
                last_dir = -last_dir if far == pos else dirn
                pos = far
                base += napt
                need = [s for s, c in wide if c > base]
                if not need:
                    break
                span = (min(need), max(need))
                n_turnarounds += 1

            fcol, frow = _col_row(pos, sy)
            self.state.col, self.state.row = fcol, frow
            if scan.length > 1:
                self.state.y_dir = _phys_dir(fcol, last_dir == 1)
            elif first_dir != 0:
                self.state.y_dir = first_dir

        # seconds come from event counts, so execute and read agree
        # exactly; total_s adds repositioning and streaming time in the
        # order the bench's seek_s and transfer_s columns sum them
        transfer_s = n_row_steps * self._sector_time
        settle_s = n_settles * p.settle_time_s
        turnaround_s = n_turnarounds * p.turnaround_time_s
        timing = Timing(total_s=(seek_s + turnaround_s) + (transfer_s + settle_s),
                        seek_s=seek_s, transfer_s=transfer_s,
                        settle_s=settle_s, turnaround_s=turnaround_s,
                        n_seeks=n_seeks, n_turnarounds=n_turnarounds,
                        n_row_steps=n_row_steps, n_sectors=n_sectors)
        return timing, b"".join(out)


# -- plan text form -----------------------------------------------------

def _rle(tips: Iterable[int]) -> str:
    vals = sorted(tips)
    if not vals:
        return "-"
    parts: List[str] = []
    run_start = prev = vals[0]
    for v in vals[1:]:
        if v == prev + 1:
            prev = v
            continue
        parts.append(str(run_start) if run_start == prev else f"{run_start}-{prev}")
        run_start = prev = v
    parts.append(str(run_start) if run_start == prev else f"{run_start}-{prev}")
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _parse_record(line.split(), scans)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return AccessPlan(scans)


def _parse_record(fields: List[str], scans: List[Scan]) -> None:
    if fields[0] == "scan":
        if len(fields) != 4:
            raise ValueError("expected 'scan start length tips'")
        start = _parse_int(fields[1], "start")
        length = _parse_int(fields[2], "length")
        scans.append(Scan(tips=_parse_rle(fields[3]), start=start, length=length))
    elif fields[0] == "row":
        if not scans:
            raise ValueError("row override before any scan")
        if len(fields) != 3:
            raise ValueError("expected 'row s tips'")
        s = _parse_int(fields[1], "row")
        if scans[-1].per_row_tips is None:
            scans[-1].per_row_tips = {}
        scans[-1].per_row_tips[s] = _parse_rle(fields[2])
    else:
        raise ValueError(f"unknown record {fields[0]!r}")
