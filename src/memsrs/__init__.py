"""Probe-storage emulator, region-sector layer, and placement engines."""

from .device import DeviceParams, cmu_defaults
from .emulator import AccessPlan, Emulator, MediaImage, Scan, SledState, Timing
from .rs import RSAddr, PhysAddr, mems_to_rs, rs_to_mems

__version__ = "0.1.0"

__all__ = [
    "DeviceParams", "cmu_defaults",
    "AccessPlan", "Emulator", "MediaImage", "Scan", "SledState", "Timing",
    "RSAddr", "PhysAddr", "mems_to_rs", "rs_to_mems",
    "__version__",
]
