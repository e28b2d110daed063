"""802.11 DCF timing and per-station backoff state.

Exchange durations are kept exact as rationals and rounded up to whole
microseconds only where they enter the event timeline, so the airtime
ledger stays integer-exact while the analytical oracle can use the same
unrounded figures.  Each exchange duration carries its leading DIFS, so
on the timeline idle time is purely backoff slots: busy-end -> slots ->
exchange(DIFS + frames).

Wi-Fi stations draw their backoffs through ``BackoffReplay``, which
replays ``Generator.integers(0, W)`` from the stream's raw 64-bit words
in plain Python. For 1 <= W <= 2^32 numpy's draw is a buffered 32-bit
Lemire rejection over the halves of each raw word, low half first: W=1
consumes nothing, and a draw whose low product word falls below
(2^32 - W) mod W is rejected and takes the next half. The replay runs the
same arithmetic on the same halves, so every draw, and every trace hash,
is the one numpy would give; it only skips numpy's per-call overhead.
``MacTiming`` caps ``cw_max`` at 2^32, the largest window this covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Largest contention window BackoffReplay draws exactly (see module doc).
MAX_WINDOW = 1 << 32
_HALF_MASK = 0xFFFFFFFF
_REFILL_WORDS = 16


@dataclass(frozen=True)
class MacTiming:
    slot_us: int = 9
    sifs_us: int = 16
    difs_us: int = 50
    prop_delay_us: int = 20
    phy_header_bits: int = 192
    mac_header_bits: int = 224
    ack_bits: int = 112      # before the PHY header is prepended
    cts_bits: int = 112
    rts_bits: int = 160
    payload_bytes: int = 1500
    bit_rate_mbps: float = 130.0
    cw_min: int = 16
    cw_max: int = 1024
    max_backoff_stage: int = 6

    def __post_init__(self):
        if self.slot_us < 1:
            raise ValueError("slot_us must be >= 1")
        if not self.bit_rate_mbps > 0:
            raise ValueError("bit_rate_mbps must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        for name in ("sifs_us", "difs_us", "prop_delay_us", "phy_header_bits",
                     "mac_header_bits", "ack_bits", "cts_bits", "rts_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("need 1 <= cw_min <= cw_max")
        if self.cw_max > MAX_WINDOW:
            raise ValueError("cw_max must be <= 2**32")
        if self.max_backoff_stage < 0:
            raise ValueError("max_backoff_stage must be non-negative")

    @property
    def payload_bits(self) -> int:
        return 8 * self.payload_bytes

    def airtime_us(self, bits: int) -> Fraction:
        """Exact transmission time of `bits` at the MAC bit rate."""
        return Fraction(bits) / Fraction(self.bit_rate_mbps)


ACCESS_MODES = ("basic", "rts-cts")


@dataclass(frozen=True)
class ExchangeDurations:
    """Channel occupancy of one exchange, exact and as scheduled ticks."""

    t_success_us: Fraction
    t_collision_us: Fraction
    t_success_ticks: int
    t_collision_ticks: int


def exchange_durations(timing: MacTiming, access_mode: str = "basic") -> ExchangeDurations:
    """Success and collision durations, DIFS included at the front.

    basic:   DIFS + DATA + d + SIFS + ACK + d         (collision: DIFS + DATA + d)
    rts-cts: DIFS + RTS + d + SIFS + CTS + d + SIFS
             + DATA + d + SIFS + ACK + d              (collision: DIFS + RTS + d)
    where DATA = PHY + MAC + payload and every control frame carries the
    PHY header.
    """
    t = timing
    data = t.airtime_us(t.phy_header_bits + t.mac_header_bits + t.payload_bits)
    ack = t.airtime_us(t.phy_header_bits + t.ack_bits)
    if access_mode == "basic":
        t_s = t.difs_us + data + t.prop_delay_us + t.sifs_us + ack + t.prop_delay_us
        t_c = t.difs_us + data + t.prop_delay_us
    elif access_mode == "rts-cts":
        rts = t.airtime_us(t.phy_header_bits + t.rts_bits)
        cts = t.airtime_us(t.phy_header_bits + t.cts_bits)
        t_s = (t.difs_us + rts + t.prop_delay_us + t.sifs_us
               + cts + t.prop_delay_us + t.sifs_us
               + data + t.prop_delay_us + t.sifs_us
               + ack + t.prop_delay_us)
        t_c = t.difs_us + rts + t.prop_delay_us
    else:
        raise ValueError(f"unknown access mode {access_mode!r}")
    return ExchangeDurations(t_s, t_c, math.ceil(t_s), math.ceil(t_c))


def contention_window(stage: int, timing: MacTiming) -> int:
    """CW doubles per stage from cw_min and clamps at cw_max."""
    if stage < 0:
        raise ValueError("stage must be non-negative")
    return min(timing.cw_min << stage, timing.cw_max)


def draw_backoff(rng: np.random.Generator | BackoffReplay, stage: int,
                 timing: MacTiming) -> int:
    """Uniform draw over [0, CW(stage) - 1] slots.

    Computes ``contention_window`` itself, one call fewer per draw.
    """
    return int(rng.integers(0, min(timing.cw_min << stage, timing.cw_max)))


class BackoffReplay:
    """``integers(low, high)`` of a fresh PCG64 ``Generator``, replayed.

    Owns every draw of the stream it wraps: the generator itself must not
    be drawn from again, since numpy keeps the unused high half of a raw
    word inside the bit generator, where the replay cannot see it. Raw
    words are fetched 16 at a time and held as a stack of 32-bit halves,
    next half last.
    """

    __slots__ = ("_raw", "halves")

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self.halves: list[int] = []

    def _refill(self) -> None:
        words = self._raw(_REFILL_WORDS).tolist()
        words.reverse()
        push = self.halves.append
        for word in words:   # low half on top
            push(word >> 32)
            push(word & _HALF_MASK)

    def integers(self, low: int, high: int) -> int:
        """Uniform draw over [low, high - 1], as numpy draws it."""
        w = high - low
        if w == 1:
            return low
        halves = self.halves
        if not halves:
            self._refill()
        m = halves.pop() * w
        if m & _HALF_MASK < w:
            threshold = (MAX_WINDOW - w) % w
            while m & _HALF_MASK < threshold:
                if not halves:
                    self._refill()
                m = halves.pop() * w
        return low + (m >> 32)


class WifiStation:
    """Saturated DCF station: always has a frame queued.

    ``counter`` is the backoff in slots as last drawn. The contention
    driver files the station at the slot where that backoff expires and
    runs it down on its virtual slot clock, so the attribute itself does
    not count down. Every draw, the first included, goes through a
    ``BackoffReplay`` of the fresh stream ``rng``.
    """

    __slots__ = ("station_id", "timing", "rng", "stage", "counter",
                 "success_count", "collision_count")

    def __init__(self, station_id: str, timing: MacTiming, rng: np.random.Generator):
        self.station_id = station_id
        self.timing = timing
        self.rng = BackoffReplay(rng)
        self.stage = 0
        self.counter = draw_backoff(self.rng, 0, timing)
        self.success_count = 0
        self.collision_count = 0

    def on_success(self) -> None:
        self.success_count += 1
        self.stage = 0
        self.counter = draw_backoff(self.rng, self.stage, self.timing)

    def on_collision(self) -> None:
        self.collision_count += 1
        self.stage = min(self.stage + 1, self.timing.max_backoff_stage)
        self.counter = draw_backoff(self.rng, self.stage, self.timing)
