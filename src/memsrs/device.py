"""Geometry and timing constants of the probe-storage device.

The device is a movable media sled divided into a grid of regions, one
probe tip per region. Each region holds a grid of 64-bit tip sectors
addressed by (column, in-column row); at most `n_active_tips` tips may
transfer at the same time. Everything downstream (emulator, logical
address model, placement engines) reads its constants from here.

Internal units are seconds and bits. The key/value config format uses
the conventional catalog units instead (ms, Mbit/s) and converts at the
I/O boundary.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal


def check_integer(what: str, value) -> None:
    """Reject a `value` that is not an int (a bool is not one), naming
    it as `what`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def check_real(what: str, value) -> None:
    """Reject a `value` that is not an int or a float (a bool is neither),
    naming it as `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a real number, got {value!r}")


def check_integers(what: str, values) -> None:
    """Reject `values` unless each one is an int (a bool is not one).
    All-int values pass in one C-speed pass over their types; any other
    type walks them, to name the first value that is not an int as a
    `what`."""
    if not {*map(type, values)} <= {int}:
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{what} {value!r} is not an integer")


@contextmanager
def named(prefix: str):
    """Re-raise a `ValueError` from the block as one whose message starts
    with `prefix`, chained from the original."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


@dataclass(frozen=True)
class DeviceParams:
    regions_x: int = 80          # regions per sled row
    regions_y: int = 80          # regions per sled column
    sectors_x: int = 2500        # tip-sector columns per region
    sectors_y: int = 27          # tip sectors per column
    n_active_tips: int = 1280    # concurrent-transfer limit
    sector_bits: int = 64        # payload bits per tip sector
    tip_rate_bits_s: float = 0.7e6   # per-tip media transfer rate, bits/s
    move_x_s: float = 0.52e-3    # average sled move along X, s
    move_y_s: float = 0.35e-3    # average sled move along Y, s
    settle_time_s: float = 0.215e-3  # vibration settle after an X move, s
    turnaround_time_s: float = 0.06e-3  # Y direction-reversal penalty, s

    def __post_init__(self) -> None:
        for name in ("regions_x", "regions_y", "sectors_x", "sectors_y",
                     "n_active_tips", "sector_bits"):
            value = getattr(self, name)
            check_integer(name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("tip_rate_bits_s", "move_x_s", "move_y_s",
                     "settle_time_s", "turnaround_time_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.n_active_tips > self.regions_x * self.regions_y:
            raise ValueError("n_active_tips exceeds the tip count")

    @property
    def n_regions(self) -> int:
        return self.regions_x * self.regions_y

    @property
    def n_tips(self) -> int:
        # one probe tip per region
        return self.n_regions

    @property
    def sectors_per_region(self) -> int:
        return self.sectors_x * self.sectors_y

    @property
    def region_bits(self) -> int:
        """Capacity of one region."""
        return self.sectors_per_region * self.sector_bits

    @property
    def sector_time_s(self) -> float:
        """Per-tip time to transfer one sector."""
        return self.sector_bits / self.tip_rate_bits_s

    @property
    def region_read_time_s(self) -> float:
        """One tip reading a whole region in column-prime order, which
        crosses (sectors_x - 1) column boundaries at one settle each."""
        return (self.region_bits / self.tip_rate_bits_s
                + (self.sectors_x - 1) * self.settle_time_s)

    @property
    def transfer_rate_rs_bits_s(self) -> float:
        """Averaged per-tip rate over a linearized region of the
        Region-Sector model, with one settle per sector column folded in."""
        return self.region_bits / (self.region_bits / self.tip_rate_bits_s
                                   + self.sectors_x * self.settle_time_s)

    @property
    def seek_time_rs_s(self) -> float:
        """Averaged random-position seek of the Region-Sector model."""
        return max(self.move_x_s + self.settle_time_s,
                   self.move_y_s + self.turnaround_time_s)


def cmu_defaults() -> DeviceParams:
    """The published reference device this artifact is calibrated to."""
    return DeviceParams()


# -- key/value config ---------------------------------------------------
#
# Keys follow the device catalog's symbols; values use its units
# (counts, bits, Mbit/s, ms). Decimal-string exponent shifting keeps the
# unit conversion exact, so any DeviceParams round-trips unchanged.

_INT_KEYS = {
    "R_x": "regions_x",
    "R_y": "regions_y",
    "S_x": "sectors_x",
    "S_y": "sectors_y",
    "N_APT": "n_active_tips",
    "SectorSize": "sector_bits",
}
# key -> (field, power of ten between file unit and seconds/bits-per-second)
_SCALED_KEYS = {
    "TransferRate": ("tip_rate_bits_s", 6),   # Mbit/s
    "T_X": ("move_x_s", -3),                  # ms
    "T_Y": ("move_y_s", -3),
    "T_S": ("settle_time_s", -3),
    "T_T": ("turnaround_time_s", -3),
}
# key -> the property a redundant line is checked against
_DERIVED_KEYS = {
    "N_R": "n_regions",
    "N_S": "sectors_per_region",
    "N_PT": "n_tips",
}


def _shift(value: float, k: int) -> str:
    """Exact decimal representation of value * 10**k."""
    return str(Decimal(repr(value)).scaleb(k).normalize())


def to_config_text(p: DeviceParams) -> str:
    lines = ["# device geometry and timing"]
    for key, field in {**_INT_KEYS, **_DERIVED_KEYS}.items():
        lines.append(f"{key} {getattr(p, field)}")
    for key, (field, power) in _SCALED_KEYS.items():
        lines.append(f"{key} {_shift(getattr(p, field), -power)}")
    return "\n".join(lines) + "\n"


def from_config_text(text: str) -> DeviceParams:
    raw: dict[str, str] = {}
    key_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"config line {lineno}: expected 'key value'")
        first = key_line.setdefault(parts[0], lineno)
        if first != lineno:
            raise ValueError(f"config line {lineno}: key {parts[0]} "
                             f"already set on line {first}")
        raw[parts[0]] = parts[1].strip()

    kwargs: dict[str, int | float] = {}
    derived_claims: dict[str, int] = {}
    for key, value in raw.items():
        if key not in (*_INT_KEYS, *_SCALED_KEYS, *_DERIVED_KEYS):
            raise ValueError(f"unknown config key: {key}")
        try:
            if key in _INT_KEYS:
                kwargs[_INT_KEYS[key]] = int(value)
            elif key in _SCALED_KEYS:
                field, power = _SCALED_KEYS[key]
                kwargs[field] = float(str(Decimal(value).scaleb(power).normalize()))
            else:
                derived_claims[key] = int(value)
        except (ValueError, ArithmeticError):
            raise ValueError(f"config key {key}: bad value {value!r}") from None

    p = DeviceParams(**kwargs)
    for key, claimed in derived_claims.items():
        actual = getattr(p, _DERIVED_KEYS[key])
        if claimed != actual:
            raise ValueError(f"{key} {claimed} inconsistent with geometry ({actual})")
    return p


def load_config(path: str) -> DeviceParams:
    with open(path, "r", encoding="utf-8") as fh:
        return from_config_text(fh.read())
