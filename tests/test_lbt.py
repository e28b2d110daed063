"""Duty-cycle arithmetic and burst delivery for listen-before-talk nodes."""

import numpy as np
import pytest

from coexsim.lbt import LbtNode, LbtParams, burst_transmit
from coexsim.radio import ChannelParams, LinkBudget


def _link(snr=1.0):
    return LinkBudget("lte-00", 10.0, 66.4, snr)


def test_default_duty_off_scales_with_population():
    p = LbtParams()
    assert p.duty_off_us(10, 30) == 8064 * 39
    assert p.duty_off_us(1, 0) == 0
    assert p.duty_off_us(0, 0) == 0


def test_explicit_duty_off_factor_overrides():
    p = LbtParams(duty_off_factor=4)
    assert p.duty_off_us(10, 30) == 8064 * 4


def test_data_subframes_inside_default_burst():
    # 8064 us = 32 header + 8 x 1000 data + 32 ack
    assert LbtParams().data_subframes == 8
    assert LbtParams(burst_us=1064).data_subframes == 1


def test_params_validation():
    with pytest.raises(ValueError):
        LbtParams(contention_window=0)
    # a backoff is an int64 below the window: 2**63 is the widest window
    with pytest.raises(ValueError, match="^contention_window "):
        LbtParams(contention_window=2**63 + 1)
    LbtParams(contention_window=2**63)
    # a burst must carry the header, the ack and at least one subframe
    for burst in (0, 64, 1063):
        with pytest.raises(ValueError, match="burst_us"):
            LbtParams(burst_us=burst)
    with pytest.raises(ValueError):
        LbtParams(cca_us=-500)
    with pytest.raises(ValueError):
        LbtParams(duty_off_factor=-3)
    LbtParams(cca_us=0, duty_off_factor=0)


def _node(seed=0, duty_off_us=0):
    return LbtNode("lte-00", LbtParams(), _link(),
                   np.random.default_rng(seed), duty_off_us)


def test_backoff_draw_range_is_fixed_window():
    node = _node()
    draws = set()
    for _ in range(2000):
        node.draw_backoff()
        draws.add(node.counter)
    assert draws == set(range(16))


def test_duty_off_updates_wake_time():
    node = _node(duty_off_us=LbtParams().duty_off_us(10, 30))
    node.start_duty_off(100_000)
    assert node.wake_at_us == 100_000 + 8064 * 39
    node.start_duty_off(200_000)
    assert node.wake_at_us == 200_000 + 8064 * 39


def test_burst_transmit_without_fading_at_unit_snr():
    channel = ChannelParams(fading="none")
    node = _node()
    bits = burst_transmit(node, channel)
    # 8 subframes x 1 ms at lte_rate(1) = 17142857.14 bit/s
    assert bits == pytest.approx(8 * 17142857.142857143e-3, rel=1e-12)
    assert bits == pytest.approx(137142.85714285713, rel=1e-12)


def test_burst_transmit_fading_changes_but_bounds_hold():
    channel = ChannelParams()
    node = _node(seed=1)
    a = burst_transmit(node, channel)
    b = burst_transmit(node, channel)
    assert a != b  # fresh fading per burst
    cap = ChannelParams().spectral_efficiency_cap * 20e6 * 12 / 14
    assert 0.0 <= a <= 8e-3 * cap
