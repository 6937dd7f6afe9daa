"""Analytic retrieval-time estimator.

Retrieval time splits into a transfer term (bits moved at the averaged
per-tip rate, divided by the average number of concurrently active
tips) and a seek term (average seek count times the averaged seek
time).

The lower bound is the streaming floor under the emulator's own rules:
every row step costs one sector time at the raw per-tip rate and moves
at most `n_active_tips` sectors, so no plan moves `bits` in less than
`bits / (tip_rate_bits_s * n_active_tips)`. The floor charges no
settle, turnaround or seek. It does not use the averaged Region-Sector
rate, which folds one settle per sector column into streaming: real
plans may pay fewer (a single pass over c columns pays c - 1 settles,
and the logical-block order switches tip groups with a turnaround
alone), and would then beat a floor priced at that rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceParams
from .emulator import Timing


@dataclass(frozen=True)
class CostInput:
    bits: float        # data volume the placement transfers for the query
    k_parallel: float  # average concurrently active tips
    k_random: float    # average seek count


@dataclass(frozen=True)
class CostEstimate:
    total_s: float
    transfer_s: float
    seek_s: float


def estimate(c: CostInput, p: DeviceParams) -> CostEstimate:
    if c.k_parallel <= 0:
        raise ValueError("k_parallel must be positive")
    transfer = c.bits / (p.transfer_rate_rs_bits_s * c.k_parallel)
    seek = p.seek_time_rs_s * c.k_random
    return CostEstimate(total_s=transfer + seek, transfer_s=transfer, seek_s=seek)


def lower_bound(bits: float, p: DeviceParams) -> CostEstimate:
    """Time no plan can beat to move `bits`: full tip parallelism at the
    raw per-tip rate, with no settles, turnarounds or seeks."""
    transfer = bits / (p.tip_rate_bits_s * p.n_active_tips)
    return CostEstimate(total_s=transfer, transfer_s=transfer, seek_s=0.0)


def trace_k_values(t: Timing, p: DeviceParams) -> CostInput:
    """K values realized by an emulated run, from its trace counters.

    Repositioning time of any kind, seeks and direction reversals
    alike, counts as a fraction of the averaged seek time.
    """
    bits = t.n_sectors * p.sector_bits
    k_parallel = (t.n_sectors / t.n_row_steps) if t.n_row_steps else float(p.n_active_tips)
    if k_parallel <= 0:
        k_parallel = 1.0
    k_random = (t.seek_s + t.turnaround_s) / p.seek_time_rs_s
    return CostInput(bits=bits, k_parallel=k_parallel, k_random=k_random)
