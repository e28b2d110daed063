"""Saturation fixed point, run metrics, and cross-seed aggregation.

The oracle solves the classic two-equation saturation model for n
stations with binary exponential backoff (stage i draws from the
simulator's own window W_i = ``MacTiming.windows[i]``, doubled from cw_min
and clamped at cw_max; the stage stops rising at m; retries unlimited):

    tau = 2 / ((1-p) sum_{i<m} p^i (W_i+1) + p^m (W_m+1))
    p   = 1 - (1 - tau)^(n-1)

by bisection on tau, then converts attempt/collision probabilities into
throughput using the same exchange durations the simulator schedules,
so oracle and simulator share one timing source.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from .dcf import MacTiming, exchange_durations


class FixedPointError(RuntimeError):
    """Bisection failed to reach the residual target within the iteration cap."""


def _tau_from_p(p: float, windows: tuple[int, ...]) -> float:
    *lower, top = windows
    den = ((1.0 - p) * sum(p ** i * (w + 1) for i, w in enumerate(lower))
           + p ** len(lower) * (top + 1))
    return 2.0 / den


# bisection stops once the residual and the bracket are below TOL
TOL = 1e-10
MAX_ITER = 200


def solve_fixed_point(n_stations: int,
                      timing: MacTiming | None = None) -> tuple[float, float]:
    """Return (tau, p) with both residuals below TOL.

    tau - tau(p) is strictly increasing in tau, so bisection is safe.
    """
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    timing = timing or MacTiming()
    windows = timing.windows

    def residual(tau: float) -> float:
        p = 1.0 - (1.0 - tau) ** (n_stations - 1)
        return tau - _tau_from_p(p, windows)

    lo, hi = 1e-15, 1.0 - 1e-15
    if residual(lo) > 0 or residual(hi) < 0:
        raise FixedPointError("fixed point not bracketed")
    for _ in range(MAX_ITER):
        tau = 0.5 * (lo + hi)
        r = residual(tau)
        if abs(r) < TOL and hi - lo < TOL:
            break
        if r < 0:
            lo = tau
        else:
            hi = tau
    p = 1.0 - (1.0 - tau) ** (n_stations - 1)
    if abs(tau - _tau_from_p(p, windows)) >= TOL:
        raise FixedPointError(f"residual target {TOL} not reached for n={n_stations}")
    return tau, p


def saturation_throughput(n_stations: int, timing: MacTiming | None = None,
                          access_mode: str = "basic") -> float:
    """Aggregate saturation throughput in bit/s for n stations."""
    timing = timing or MacTiming()
    tau, _ = solve_fixed_point(n_stations, timing)
    dur = exchange_durations(timing, access_mode)
    p_idle = (1.0 - tau) ** n_stations
    p_success = n_stations * tau * (1.0 - tau) ** (n_stations - 1)
    p_collision = 1.0 - p_idle - p_success
    slot_mean_us = (p_idle * timing.slot_us
                    + p_success * float(dur.t_success_us)
                    + p_collision * float(dur.t_collision_us))
    return p_success * timing.payload_bits / slot_mean_us * 1e6


# -- per-run accounting --------------------------------------------------


@dataclass
class MetricsAccumulator:
    """Integer-microsecond airtime ledger plus delivered-bit counters."""

    idle_us: int = 0
    success_us: int = 0
    collision_us: int = 0
    cfp_us: int = 0
    beacon_us: int = 0
    lte_bits: dict[str, float] = field(default_factory=dict)
    lte_airtime_us: dict[str, int] = field(default_factory=dict)
    success_events: int = 0
    collision_events: int = 0

    def add_lte_bits(self, user_id: str, bits: float) -> None:
        self.lte_bits[user_id] = self.lte_bits.get(user_id, 0.0) + bits

    def add_lte_airtime(self, user_id: str, us: int) -> None:
        self.lte_airtime_us[user_id] = self.lte_airtime_us.get(user_id, 0) + us

    @property
    def accounted_us(self) -> int:
        return (self.idle_us + self.success_us + self.collision_us
                + self.cfp_us + self.beacon_us)

    def assert_ledger(self, duration_us: int) -> None:
        """Every microsecond of the run must land in exactly one bucket."""
        if self.accounted_us != duration_us:
            raise AssertionError(
                f"airtime ledger off: idle={self.idle_us} success={self.success_us} "
                f"collision={self.collision_us} cfp={self.cfp_us} beacon={self.beacon_us} "
                f"sum={self.accounted_us} != duration={duration_us}")


# -- cross-seed aggregation ----------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    scheme: str
    n_wifi: int
    m_lte: int
    n_seeds: int
    means: dict[str, float]
    ci95: dict[str, float]


AGG_METRICS = ("per_user_wifi_throughput_bps", "wifi_aggregate_bps",
               "lte_aggregate_bps", "total_bps", "collision_rate")


def aggregate(rows: Sequence[dict]) -> list[AggregateRow]:
    """Mean and 95% normal-approximation CI per ``AGG_METRICS`` name,
    grouped by scenario.

    Rows are dicts keyed by ResultRow field names. A single seed yields a
    zero-width interval.
    """
    groups: dict[tuple[str, int, int], list] = {}
    for row in rows:
        key = (row["scheme"], row["n_wifi"], row["m_lte"])
        groups.setdefault(key, []).append(row)

    out = []
    for key in sorted(groups):
        members = groups[key]
        means, ci = {}, {}
        for name in AGG_METRICS:
            values = [r[name] for r in members]
            mu = statistics.fmean(values)
            if len(values) > 1:
                half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
            else:
                half = 0.0
            means[name] = mu
            ci[name] = half
        out.append(AggregateRow(key[0], key[1], key[2], len(members), means, ci))
    return out
