"""Superframe planning for the coordinated coexistence scheme.

One access point owns the channel and splits each repetition interval
into beacon + contention-free period (CFP) + contention period (CP).
The CFP carries centrally scheduled LTE-U transmission opportunities,
sized on a 32 µs grid and capped at 8160 µs; the CP runs plain DCF.

Two user classes:

* standalone: each TXOP carries one shortened LTE frame, header +
  n subframes + ack with n in [6, 8] so the sync subframes (0 and 5)
  stay active. Users rotate across superframes and honour the n active
  / 10-n sleep duty cycle between grants.
* uca (carrier aggregation): control stays licensed, so the CFP budget
  is split evenly across all users with no header, ack, or sync cost.

``TxopGrant`` is the one home of this layout: it checks n when built
and reports the data window (``data_us``) that delivery reads.

This module is pure planning and payload arithmetic; event wiring lives
in the run loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radio import (FRAME_ACK_US, FRAME_HEADER_US, SUBFRAME_US, ChannelParams,
                    LinkBudget, fading_gains, lte_rate)

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
class TxopGrant:
    """One scheduled window of the contention-free period.

    A standalone grant (``n_subframes`` set) carries one shortened LTE
    frame: header, n subframes of data and ack, padded to the 32 µs grid.
    n must be one of ``SA_N_CHOICES``, so the sync subframes 0 and 5 stay
    active. An aggregation grant (``n_subframes`` None) carries data
    over its whole duration.
    """

    user_id: str
    start_us: int
    duration_us: int
    n_subframes: int | None = None   # set for standalone grants

    def __post_init__(self):
        if self.duration_us % TXOP_QUANTUM_US:
            raise ValueError("grant duration off the 32 µs grid")
        if not TXOP_QUANTUM_US <= self.duration_us <= TXOP_MAX_US:
            raise ValueError("grant duration outside [32, 8160] µs")
        n = self.n_subframes
        if n is not None:
            if n not in SA_N_CHOICES:
                raise ValueError(
                    f"standalone grant needs 6 <= n <= 8, got {n}")
            if self.duration_us != sa_txop_duration(n):
                raise ValueError(
                    f"standalone grant of {n} subframes must last "
                    f"{sa_txop_duration(n)} µs, got {self.duration_us}")

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us

    @property
    def data_us(self) -> int:
        """Airtime that carries LTE data: the n subframes of a standalone
        frame, or the whole of an aggregation grant."""
        if self.n_subframes is None:
            return self.duration_us
        return self.n_subframes * SUBFRAME_US


@dataclass(frozen=True)
class SuperframePlan:
    grants: tuple[TxopGrant, ...]
    cfp_us: int              # summed grant airtime, from the beacon's end
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
    if any(a.end_us > b.start_us for a, b in zip(grants, grants[1:])):
        raise RuntimeError("planner produced overlapping grants")
    return SuperframePlan(tuple(grants), cfp_len, budget - cfp_len,
                          next_rotation)


def cfp_transmit(grant: TxopGrant, link: LinkBudget, channel: ChannelParams,
                 rng: np.random.Generator) -> float:
    """Delivered bits for one grant: fresh fading per subframe segment.

    The data window is ``grant.data_us``. A standalone grant delivers
    exactly its n subframes; header, ack and grid padding carry no bits.
    An aggregation grant may end mid subframe, in which case the tail
    segment delivers pro rata.
    """
    full, tail = divmod(grant.data_us, SUBFRAME_US)
    segments = [SUBFRAME_US] * full + ([tail] if tail else [])
    gains = fading_gains(rng, len(segments), channel)
    return sum(lte_rate(link.mean_snr * float(g), channel) * (seg * 1e-6)
               for seg, g in zip(segments, gains))
