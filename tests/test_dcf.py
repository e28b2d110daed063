"""MAC timing constants, exchange durations, and the backoff ladder."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coexsim.dcf import (
    ACCESS_MODES,
    MacTiming,
    WifiStation,
    contention_window,
    draw_backoff,
    exchange_durations,
)

T = MacTiming()


def test_basic_exchange_durations_exact_and_ticks():
    d = exchange_durations(T, "basic")
    # DATA = 192 + 224 + 12000 bits at 130 Mb/s, ACK = 192 + 112 bits
    data = Fraction(192 + 224 + 12000, 130)
    ack = Fraction(192 + 112, 130)
    assert d.t_success_us == 50 + data + 20 + 16 + ack + 20
    assert d.t_collision_us == 50 + data + 20
    assert float(d.t_success_us) == pytest.approx(203.84615384615384)
    assert float(d.t_collision_us) == pytest.approx(165.50769230769233)
    assert d.t_success_ticks == 204
    assert d.t_collision_ticks == 166


def test_rts_cts_exchange_durations():
    d = exchange_durations(T, "rts-cts")
    assert float(d.t_success_us) == pytest.approx(280.8923076923077)
    assert float(d.t_collision_us) == pytest.approx(72.70769230769231)
    assert d.t_success_ticks == 281
    assert d.t_collision_ticks == 73
    # RTS collisions are much cheaper than basic-mode ones
    assert d.t_collision_ticks < exchange_durations(T, "basic").t_collision_ticks


def test_unknown_access_mode_rejected():
    assert ACCESS_MODES == ("basic", "rts-cts")
    with pytest.raises(ValueError):
        exchange_durations(T, "pcf")


def test_payload_bits_and_airtime():
    assert T.payload_bits == 12000
    assert T.airtime_us(130) == Fraction(1)
    assert T.airtime_us(12000) == Fraction(12000, 130)


def test_contention_window_ladder():
    assert [contention_window(s, T) for s in range(8)] == [
        16, 32, 64, 128, 256, 512, 1024, 1024]
    with pytest.raises(ValueError):
        contention_window(-1, T)


def test_mac_timing_validation():
    with pytest.raises(ValueError):
        MacTiming(cw_min=0)
    with pytest.raises(ValueError):
        MacTiming(cw_min=32, cw_max=16)
    with pytest.raises(ValueError):
        MacTiming(max_backoff_stage=-1)
    with pytest.raises(ValueError, match="slot_us"):
        MacTiming(slot_us=0)
    for rate in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bit_rate_mbps"):
            MacTiming(bit_rate_mbps=rate)
    for name in ("sifs_us", "difs_us", "prop_delay_us", "phy_header_bits",
                 "mac_header_bits", "ack_bits", "cts_bits", "rts_bits",
                 "payload_bytes"):
        with pytest.raises(ValueError, match=name):
            MacTiming(**{name: -1})
        MacTiming(**{name: 0})


@given(stage=st.integers(min_value=0, max_value=10), seed=st.integers(0, 2**16))
def test_draw_backoff_stays_inside_the_window(stage, seed):
    rng = np.random.default_rng(seed)
    v = draw_backoff(rng, stage, T)
    assert 0 <= v < contention_window(stage, T)


def test_draw_backoff_stage0_mean():
    rng = np.random.default_rng(5)
    draws = [draw_backoff(rng, 0, T) for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(7.5, rel=0.01)
    assert set(draws) == set(range(16))


def test_station_success_resets_stage_and_counts_payload():
    st_ = WifiStation("wifi-00", T, np.random.default_rng(0))
    st_.on_collision()
    st_.on_collision()
    assert st_.stage == 2 and st_.collision_count == 2
    st_.on_success()
    assert st_.stage == 0
    assert st_.success_count == 1
    assert 0 <= st_.counter < 16


def test_station_stage_clamps_at_max():
    st_ = WifiStation("wifi-00", T, np.random.default_rng(0))
    for _ in range(20):
        st_.on_collision()
    assert st_.stage == T.max_backoff_stage == 6
    assert st_.counter < contention_window(6, T) == 1024
