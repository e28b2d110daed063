"""Superframe planning for the coordinated coexistence scheme.

One access point owns the channel and splits each repetition interval
into beacon + contention-free period (CFP) + contention period (CP).
The CFP carries centrally scheduled LTE-U transmission opportunities,
sized on a 32 µs grid and capped at 8160 µs; the CP runs plain DCF.

Two user classes:

* standalone: whole shortened LTE frames ride the CFP, each TXOP being
  header + n subframes + ack with n in [6, 8] so the sync subframes
  (0 and 5) stay active. Users rotate across superframes and honour the
  n active / 10-n sleep duty cycle between grants.
* uca (carrier aggregation): control stays licensed, so the CFP budget
  is split evenly across all users with no header, ack, or sync cost.

This module is pure planning and payload arithmetic; event wiring lives
in the run loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .radio import (FRAME_ACK_US, FRAME_HEADER_US, FRAME_SUBFRAMES,
                    SUBFRAME_US, ChannelParams, LinkBudget, fading_gains,
                    lte_rate)

TXOP_QUANTUM_US = 32
TXOP_MAX_US = 8160
SA_N_CHOICES = (8, 7, 6)    # largest first: fewer headers per subframe

DEFAULT_INTERVAL_US = 100_000
DEFAULT_BEACON_US = 500

MODES = ("standalone", "uca")


def round_txop(requested_us: int) -> int:
    """Smallest 32 µs multiple covering the request; capped at 8160."""
    if requested_us <= 0:
        raise ValueError("TXOP request must be positive")
    if requested_us > TXOP_MAX_US:
        raise ValueError(
            f"TXOP request {requested_us} µs exceeds {TXOP_MAX_US} µs cap")
    return -(-requested_us // TXOP_QUANTUM_US) * TXOP_QUANTUM_US


def sa_txop_duration(n_subframes: int) -> int:
    return round_txop(FRAME_HEADER_US + n_subframes * SUBFRAME_US + FRAME_ACK_US)


@dataclass(frozen=True)
class ShortenedFrame:
    """LTE frame truncated to its first n subframes."""

    n_active: int
    mask: tuple[bool, ...]
    header_us: int = FRAME_HEADER_US
    ack_us: int = FRAME_ACK_US

    def __post_init__(self):
        if len(self.mask) != FRAME_SUBFRAMES:
            raise ValueError("mask must cover 10 subframes")
        if sum(self.mask) != self.n_active:
            raise ValueError("mask population differs from n_active")

    @property
    def airtime_us(self) -> int:
        return self.header_us + self.n_active * SUBFRAME_US + self.ack_us


def shorten_frame(n: int, mode: str = "standalone") -> ShortenedFrame:
    """Build the frame mask for an n-subframe grant.

    Standalone mode needs 6 <= n <= 8: at least 6 so subframes 0 and 5
    (sync positions) stay active, at most 8 so header + data + ack fits
    under the TXOP cap. Aggregation mode allows any 1 <= n <= 10 and
    carries no header or ack on this band.
    """
    if mode == "standalone":
        if not 6 <= n <= 8:
            raise ValueError(f"standalone frame needs 6 <= n <= 8, got {n}")
        header, ack = FRAME_HEADER_US, FRAME_ACK_US
    elif mode == "uca":
        if not 1 <= n <= FRAME_SUBFRAMES:
            raise ValueError(f"uca frame needs 1 <= n <= 10, got {n}")
        header, ack = 0, 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    mask = tuple(i < n for i in range(FRAME_SUBFRAMES))
    return ShortenedFrame(n, mask, header_us=header, ack_us=ack)


@dataclass(frozen=True)
class DtxDrxCycle:
    """n active subframes then 10-n asleep, one LTE frame per cycle."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= FRAME_SUBFRAMES:
            raise ValueError("cycle needs 1 <= n <= 10")

    @property
    def sleep(self) -> int:
        return FRAME_SUBFRAMES - self.n

    @property
    def sleep_us(self) -> int:
        return self.sleep * SUBFRAME_US


@dataclass(frozen=True)
class TxopGrant:
    user_id: str
    start_us: int
    duration_us: int
    n_subframes: int | None = None   # set for standalone grants

    def __post_init__(self):
        if self.duration_us % TXOP_QUANTUM_US:
            raise ValueError("grant duration off the 32 µs grid")
        if not TXOP_QUANTUM_US <= self.duration_us <= TXOP_MAX_US:
            raise ValueError("grant duration outside [32, 8160] µs")

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class Superframe:
    interval_us: int = DEFAULT_INTERVAL_US
    beacon_us: int = DEFAULT_BEACON_US
    cfp_us: int = 0
    cp_us: int = 0

    def __post_init__(self):
        if self.beacon_us + self.cfp_us + self.cp_us != self.interval_us:
            raise ValueError("beacon + CFP + CP must equal the interval")


@dataclass(frozen=True)
class Beacon:
    time_stamp_us: int
    cfp_length_us: int
    txop_schedule: tuple[tuple[int, int], ...]   # (start, max-length)


@dataclass(frozen=True)
class SuperframePlan:
    superframe: Superframe
    beacon: Beacon
    grants: tuple[TxopGrant, ...]
    remainder_us: int        # unused budget handed back to the CP
    next_rotation: int       # round-robin cursor for the next interval


def cfp_budget_us(m_lte: int, n_wifi: int, interval_us: int,
                  beacon_us: int) -> int:
    if m_lte < 0 or n_wifi < 0 or m_lte + n_wifi == 0:
        raise ValueError("need M >= 0, N >= 0, M + N > 0")
    return (interval_us - beacon_us) * m_lte // (m_lte + n_wifi)


def _pack_standalone(budget: int, user_ids: list[str], cfp_start: int,
                     rotation: int, eligible_at: dict[str, int] | None
                     ) -> tuple[list[TxopGrant], int]:
    grants: list[TxopGrant] = []
    m = len(user_ids)
    offset = cfp_start
    attempts = 0
    for k in range(m):
        uid = user_ids[(rotation + k) % m]
        if eligible_at is not None and eligible_at.get(uid, 0) > offset:
            attempts = k + 1
            continue
        placed = False
        for n in SA_N_CHOICES:
            dur = sa_txop_duration(n)
            if offset + dur - cfp_start <= budget:
                grants.append(TxopGrant(uid, offset, dur, n_subframes=n))
                offset += dur
                placed = True
                break
        if not placed:
            # budget exhausted: this user heads the queue next interval
            attempts = k
            break
        attempts = k + 1
    return grants, (rotation + attempts) % m


def _pack_uca(budget: int, user_ids: list[str],
              cfp_start: int) -> list[TxopGrant]:
    m = len(user_ids)
    share = (budget // m) // TXOP_QUANTUM_US * TXOP_QUANTUM_US
    if share < TXOP_QUANTUM_US:
        return []
    grants: list[TxopGrant] = []
    offset = cfp_start
    for uid in user_ids:
        left = share
        while left > 0:
            piece = min(left, TXOP_MAX_US)
            grants.append(TxopGrant(uid, offset, piece))
            offset += piece
            left -= piece
    return grants


def build_superframe(m_lte: int, n_wifi: int,
                     interval_us: int = DEFAULT_INTERVAL_US,
                     mode: str = "standalone", *,
                     beacon_us: int = DEFAULT_BEACON_US,
                     start_us: int = 0, rotation: int = 0,
                     user_ids: list[str] | None = None,
                     eligible_at: dict[str, int] | None = None
                     ) -> SuperframePlan:
    """Plan one repetition interval.

    The CFP budget is (interval - beacon) * M/(M+N). Standalone packing
    lays whole shortened-frame TXOPs round-robin from the rotation
    cursor, preferring 8, then 7, then 6 subframes, skipping users still
    inside their sleep window; whatever budget cannot fit another frame
    is returned to the CP. Aggregation packing splits the budget evenly
    over all users on the 32 µs grid (chunked under the 8160 µs cap).
    M = 0 degenerates to beacon + pure DCF with an empty CFP.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    budget = cfp_budget_us(m_lte, n_wifi, interval_us, beacon_us)
    if user_ids is None:
        user_ids = [f"lte-{i:02d}" for i in range(m_lte)]
    if len(user_ids) != m_lte:
        raise ValueError("user_ids length must equal M")

    cfp_start = start_us + beacon_us
    next_rotation = rotation
    if m_lte == 0 or budget < TXOP_QUANTUM_US:
        grants: list[TxopGrant] = []
    elif mode == "standalone":
        grants, next_rotation = _pack_standalone(
            budget, user_ids, cfp_start, rotation, eligible_at)
    else:
        grants = _pack_uca(budget, user_ids, cfp_start)

    cfp_len = sum(g.duration_us for g in grants)
    frame = Superframe(interval_us, beacon_us, cfp_len,
                       interval_us - beacon_us - cfp_len)
    beacon = Beacon(start_us, cfp_len,
                    tuple((g.start_us, g.duration_us) for g in grants))
    if any(a.end_us > b.start_us for a, b in zip(grants, grants[1:])):
        raise RuntimeError("planner produced overlapping grants")
    return SuperframePlan(frame, beacon, tuple(grants),
                          budget - cfp_len, next_rotation)


def cfp_transmit(grant: TxopGrant, frame: ShortenedFrame, link: LinkBudget,
                 channel: ChannelParams, rng: np.random.Generator) -> float:
    """Delivered bits for one grant: fresh fading per subframe segment.

    The data window is the grant minus header and ack. Standalone grants
    hold exactly n full subframes; aggregation grants may end mid
    subframe, in which case the tail segment delivers pro rata.
    """
    data_us = grant.duration_us - frame.header_us - frame.ack_us
    if data_us < 0:
        raise ValueError("grant shorter than header + ack")
    full, tail = divmod(data_us, SUBFRAME_US)
    segments = [SUBFRAME_US] * full + ([tail] if tail else [])
    gains = fading_gains(rng, len(segments), channel)
    return sum(lte_rate(link.mean_snr * float(g), channel) * (seg * 1e-6)
               for seg, g in zip(segments, gains))
