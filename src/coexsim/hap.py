"""Superframe planning for the coordinated coexistence scheme.

One access point owns the channel and splits each repetition interval
into beacon + contention-free period (CFP) + contention period (CP).
The CFP carries centrally scheduled LTE-U transmission opportunities,
sized on a 32 µs grid and capped at 8160 µs; the CP runs plain DCF.

Two user classes:

* standalone: each TXOP carries one shortened LTE frame, header +
  n subframes + ack with n in [6, 8] so the sync subframes (0 and 5)
  stay active. Users rotate across superframes; a user still inside the
  n active / 10-n sleep duty cycle of its last grant is skipped.
* uca (carrier aggregation): control stays licensed, so the CFP budget
  is split evenly across all users with no header, ack, or sync cost.

``TxopGrant`` is the one home of this layout: a named tuple that checks
n when built and reports the data window (``data_us``) that delivery
reads. Delivery takes one user's grants of a whole run at once: it draws
the user's fading gains, one per subframe segment, in one call, turns
them into their subframes' bits (``radio.segment_bits``), with a
pro-rata tail segment when an aggregation grant ends mid subframe, and
sums them grant by grant.

This module is pure planning and payload arithmetic; event wiring lives
in the run loop.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

# fading_gains and lte_rate are bound here because coexbench's tracer
# patches them in this module (Tracer.installed reads vars(module)[name]);
# cfp_transmit calls both from here: fading_gains for a user's draw of
# gains, lte_rate for an aggregation grant's tail segment
from .radio import (FRAME_ACK_US, FRAME_HEADER_US, SUBFRAME_US, ChannelParams,
                    fading_gains, lte_rate, segment_bits)

if TYPE_CHECKING:
    import numpy as np

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


# Standalone TXOP length by n, computed once for the planner and grants.
SA_TXOP_US = {n: sa_txop_duration(n) for n in SA_N_CHOICES}


class _GrantFields(NamedTuple):
    user_id: str
    start_us: int
    duration_us: int
    n_subframes: int | None = None   # set for standalone grants


class TxopGrant(_GrantFields):
    """One scheduled window of the contention-free period.

    A standalone grant (``n_subframes`` set) carries one shortened LTE
    frame: header, n subframes of data and ack, padded to the 32 µs grid.
    n must be one of ``SA_N_CHOICES``, so the sync subframes 0 and 5 stay
    active. An aggregation grant (``n_subframes`` None) carries data
    over its whole duration.

    A named tuple, checked in ``__new__``: a run builds thousands, and a
    tuple is built without a field-by-field ``__setattr__`` or a
    ``__post_init__`` frame.
    """

    __slots__ = ()

    def __new__(cls, user_id: str, start_us: int, duration_us: int,
                n_subframes: int | None = None):
        if duration_us % TXOP_QUANTUM_US:
            raise ValueError("grant duration off the 32 µs grid")
        if not TXOP_QUANTUM_US <= duration_us <= TXOP_MAX_US:
            raise ValueError("grant duration outside [32, 8160] µs")
        if n_subframes is not None:
            if n_subframes not in SA_N_CHOICES:
                raise ValueError(
                    f"standalone grant needs 6 <= n <= 8, got {n_subframes}")
            if duration_us != SA_TXOP_US[n_subframes]:
                raise ValueError(
                    f"standalone grant of {n_subframes} subframes must last "
                    f"{SA_TXOP_US[n_subframes]} µs, got {duration_us}")
        return tuple.__new__(cls, (user_id, start_us, duration_us,
                                   n_subframes))

    @classmethod
    def _make(cls, iterable) -> TxopGrant:
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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
                     rotation: int, busy: Collection[str]
                     ) -> tuple[list[TxopGrant], int]:
    grants: list[TxopGrant] = []
    m = len(user_ids)
    offset = cfp_start
    attempts = 0
    for k in range(m):
        uid = user_ids[(rotation + k) % m]
        if uid in busy:
            attempts = k + 1
            continue
        placed = False
        for n, dur in SA_TXOP_US.items():
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
                     busy: Collection[str] = ()) -> SuperframePlan:
    """Plan one repetition interval.

    The CFP budget is (interval - beacon) * M/(M+N). Standalone packing
    lays whole shortened-frame TXOPs round-robin from the rotation
    cursor, preferring 8, then 7, then 6 subframes, skipping the ``busy``
    users, whose machines are still inside a duty cycle when the beacon
    fires; whatever budget cannot fit another frame is returned to the
    CP. Aggregation packing splits the budget evenly over all users on
    the 32 µs grid (chunked under the 8160 µs cap).
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
            budget, user_ids, cfp_start, rotation, busy)
    else:
        grants = _pack_uca(budget, user_ids, cfp_start)

    # one plain pass: no generator or end_us property frame per grant
    cfp_len, end = 0, cfp_start
    for g in grants:
        if g.start_us < end:
            raise RuntimeError("planner produced overlapping grants")
        end = g.start_us + g.duration_us
        cfp_len += g.duration_us
    return SuperframePlan(tuple(grants), cfp_len, budget - cfp_len,
                          next_rotation)


def cfp_transmit(grants: list[TxopGrant], snr: float,
                 rng: np.random.Generator, channel: ChannelParams) -> float:
    """Delivered bits of one user's grants, in order, at mean SNR ``snr``.

    Each grant's data window is ``grant.data_us``. A standalone grant
    delivers exactly its n subframes; header, ack and grid padding carry
    no bits. An aggregation grant may end mid subframe, in which case the
    tail segment delivers pro rata. Every segment gets a fresh fading
    gain, drawn for all the grants in one call, in segment order. A
    grant's bits are summed in segment order, and the grants' sums are
    added up in grant order.
    """
    spans = [divmod(grant.data_us, SUBFRAME_US) for grant in grants]
    gains = fading_gains(rng, sum([full + (tail > 0) for full, tail in spans]),
                         channel).tolist()
    bits = segment_bits(snr, gains, SUBFRAME_US * 1e-6, channel)
    total, at = 0.0, 0
    for full, tail in spans:
        end = at + full
        if tail:
            # one segment: lte_rate takes one frame, segment_bits two
            bits[end] = lte_rate(snr * gains[end], channel) * (tail * 1e-6)
            end += 1
        total += sum(bits[at:end])
        at = end
    return total
