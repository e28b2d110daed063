"""Duty-cycled listen-before-talk LTE-U nodes.

Each node shares the Wi-Fi slot clock: it senses for a CCA period, draws
a uniform backoff from a fixed window (no exponential growth), freezes on
busy slots, and fires a fixed-length burst when its counter hits zero.
After every burst, collided or clean, it defers for a duty-off period
sized so its long-run airtime share approaches 1/(M+N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dcf import MacTiming
# fading_gains and lte_rate are bound here because coexbench's tracer
# patches them in this module (Tracer.installed reads vars(module)[name]);
# a burst calls fading_gains from here. lte_rate is imported only to be
# patched: a burst's rate runs inside radio.segment_bits
from .radio import (FRAME_ACK_US, FRAME_HEADER_US, SUBFRAME_US,
                    ChannelParams, LinkBudget, fading_gains, lte_rate,
                    segment_bits)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LbtParams:
    cca_us: int = MacTiming.difs_us    # sensing period before backoff
    contention_window: int = 16    # fixed; draw is uniform over [0, cw-1]
    burst_us: int = FRAME_HEADER_US + 8 * SUBFRAME_US + FRAME_ACK_US
    duty_off_factor: int | None = None  # None: duty_off_us uses M+N-1

    def __post_init__(self):
        # a backoff is drawn as an int64 below the window
        if not 1 <= self.contention_window <= 2**63:
            raise ValueError("contention_window must be in [1, 2**63]")
        if self.burst_us < FRAME_HEADER_US + FRAME_ACK_US + SUBFRAME_US:
            raise ValueError("burst_us must hold the header, the ack and "
                             "at least one subframe")
        if self.cca_us < 0:
            raise ValueError("cca_us must be non-negative")
        if self.duty_off_factor is not None and self.duty_off_factor < 0:
            raise ValueError("duty_off_factor must be non-negative")

    def duty_off_us(self, m_lte: int, n_wifi: int) -> int:
        factor = self.duty_off_factor
        if factor is None:
            factor = max(m_lte + n_wifi - 1, 0)
        return self.burst_us * factor

    @property
    def data_subframes(self) -> int:
        return (self.burst_us - FRAME_HEADER_US - FRAME_ACK_US) // SUBFRAME_US


class LbtNode:
    """Contention state for one LTE-U node.

    ``counter`` is the backoff in slots as last drawn, like
    ``WifiStation.counter``. Once the node's CCA is over, the contention
    driver files it at the slot where that backoff expires and runs it
    down on its virtual slot clock, so the attribute itself does not
    count down. ``duty_off_us`` is the node's deferral after each burst,
    ``params.duty_off_us`` of the run's population.
    """

    __slots__ = ("node_id", "params", "link", "rng", "duty_off_us",
                 "counter", "wake_at_us")

    def __init__(self, node_id: str, params: LbtParams, link: LinkBudget,
                 rng: np.random.Generator, duty_off_us: int):
        self.node_id = node_id
        self.params = params
        self.link = link
        self.rng = rng
        self.duty_off_us = duty_off_us
        self.wake_at_us = 0          # eligible to start sensing at this time
        self.draw_backoff()

    def draw_backoff(self) -> None:
        self.counter = int(self.rng.integers(0, self.params.contention_window))

    def start_duty_off(self, burst_end_us: int) -> None:
        self.wake_at_us = burst_end_us + self.duty_off_us


def burst_transmit(node: LbtNode, channel: ChannelParams) -> float:
    """Delivered bits of one clean burst: whole 1 ms subframes, each
    with its own fading gain, summed in order."""
    gains = fading_gains(node.rng, node.params.data_subframes,
                         channel).tolist()
    return sum(segment_bits(node.link.mean_snr, gains, SUBFRAME_US * 1e-6,
                            channel))
