"""Channel abstraction for the LTE-U links.

Users sit on a disk around the access point; each link has a log-distance
path loss and block Rayleigh fading (one gain per subframe).  The rate is
Shannon capacity clamped at a spectral-efficiency cap, minus the fixed
control-symbol overhead.  Wi-Fi carries no such model: its stations send
at a fixed MAC rate regardless of position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# LTE frame layout shared by LBT bursts and coordinated grants: 1 ms
# subframes, 10 to a frame, and a standalone burst wraps its data
# subframes in a 32 µs header and a 32 µs acknowledgement.
SUBFRAME_US = 1000
FRAME_SUBFRAMES = 10
FRAME_HEADER_US = 32
FRAME_ACK_US = 32


@dataclass(frozen=True)
class ChannelParams:
    bandwidth_hz: float = 2.0e7
    tx_power_dbm: float = 30.0
    noise_density_dbm_hz: float = -174.0
    pathloss_exponent: float = 5.0
    reference_loss_1m_db: float = 46.4
    spectral_efficiency_cap: float = 6.0   # bit/s/Hz
    control_overhead: float = 2.0 / 14.0   # control symbols per subframe
    fading: str = "rayleigh"               # "rayleigh" or "none"

    def __post_init__(self):
        if self.fading not in ("rayleigh", "none"):
            raise ValueError(f"fading must be 'rayleigh' or 'none', got {self.fading!r}")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.spectral_efficiency_cap > 0:
            raise ValueError("spectral_efficiency_cap must be positive")
        if not 0.0 <= self.control_overhead < 1.0:
            raise ValueError("control_overhead must lie in [0, 1)")
        # in dB the exponent is scaled by 10, which must stay finite
        if not 0.0 <= 10.0 * self.pathloss_exponent < math.inf:
            raise ValueError("pathloss_exponent must be non-negative "
                             "and finite when scaled to dB")
        # the 1 m SNR is the largest any link sees; its linear value
        # must be a float
        try:
            mean_snr(1.0, self)
        except OverflowError:
            snr_db = (self.tx_power_dbm - path_loss_db(1.0, self)
                      - self.noise_power_dbm)
            raise ValueError(
                "tx_power_dbm, reference_loss_1m_db, noise_density_dbm_hz "
                f"and bandwidth_hz give a 1 m SNR of {snr_db:.6g} dB, "
                "past the float range") from None

    @property
    def noise_power_dbm(self) -> float:
        return self.noise_density_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)


@dataclass(frozen=True)
class NodePosition:
    node_id: str
    x_m: float
    y_m: float

    @property
    def distance_m(self) -> float:
        return math.hypot(self.x_m, self.y_m)


@dataclass(frozen=True)
class LinkBudget:
    """Static part of one user's link: geometry and mean SNR (fading excluded)."""

    node_id: str
    distance_m: float
    pathloss_db: float
    mean_snr: float


def place_users(m: int, radius_m: float, rng: np.random.Generator) -> list[NodePosition]:
    """Drop m users uniformly on the disk (sqrt law keeps density flat in area)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    r = radius_m * np.sqrt(rng.random(m))
    theta = 2.0 * math.pi * rng.random(m)
    return [
        NodePosition(f"lte-{i:02d}", float(r[i] * math.cos(theta[i])), float(r[i] * math.sin(theta[i])))
        for i in range(m)
    ]


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    """Log-distance loss; distances under the 1 m reference clamp to 1 m."""
    d = max(distance_m, 1.0)
    return params.reference_loss_1m_db + 10.0 * params.pathloss_exponent * math.log10(d)


def mean_snr(distance_m: float, params: ChannelParams) -> float:
    """Linear SNR of the link before fading."""
    rx_dbm = params.tx_power_dbm - path_loss_db(distance_m, params)
    return 10.0 ** ((rx_dbm - params.noise_power_dbm) / 10.0)


def link_budget(pos: NodePosition, params: ChannelParams) -> LinkBudget:
    d = pos.distance_m
    return LinkBudget(pos.node_id, d, path_loss_db(d, params), mean_snr(d, params))


def fading_gains(rng: np.random.Generator, count: int, params: ChannelParams) -> np.ndarray:
    """One block-fading power gain per subframe: Exp(1) (Rayleigh envelope)."""
    if params.fading == "none":
        return np.ones(count)
    return rng.standard_exponential(count)


def lte_rate(snr: float, params: ChannelParams) -> float:
    """Achievable rate in bit/s at the given instantaneous SNR."""
    if snr < 0:
        raise ValueError("snr must be non-negative")
    eff = min(math.log2(1.0 + snr), params.spectral_efficiency_cap)
    return params.bandwidth_hz * eff * (1.0 - params.control_overhead)
