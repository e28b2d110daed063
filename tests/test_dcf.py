"""MAC timing constants, exchange durations, and the backoff ladder."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from coexsim.dcf import (
    ACCESS_MODES,
    BackoffReplay,
    MacTiming,
    WifiStation,
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


def test_the_default_ladder_doubles_to_cw_max_at_the_last_stage():
    assert T.windows == (16, 32, 64, 128, 256, 512, 1024)


@given(cw_min=st.integers(1, 2**12), doublings=st.integers(0, 20),
       extra=st.integers(0, 100), max_stage=st.integers(0, 12))
@example(cw_min=16, doublings=2, extra=0, max_stage=6)    # clamps at 2
@example(cw_min=16, doublings=2, extra=5, max_stage=6)    # clamps at 3
@example(cw_min=16, doublings=6, extra=0, max_stage=0)    # one stage
def test_windows_double_from_cw_min_and_clamp_at_cw_max(cw_min, doublings,
                                                         extra, max_stage):
    # the clamp bites before the last stage when cw_max is reached early
    cw_max = min((cw_min << doublings) + extra, 2**32)
    timing = MacTiming(cw_min=cw_min, cw_max=cw_max,
                       max_backoff_stage=max_stage)
    assert timing.windows == tuple(min(cw_min * 2**s, cw_max)
                                   for s in range(max_stage + 1))


def test_a_long_ladder_repeats_cw_max_after_the_clamp():
    # 10**5 stages from cw_min 1: the window reaches 2**32 at stage 32 and
    # stays there, one entry per stage
    windows = MacTiming(cw_min=1, cw_max=2**32,
                        max_backoff_stage=10**5).windows
    assert len(windows) == 10**5 + 1
    assert windows[:33] == tuple(1 << s for s in range(33))
    assert windows[32:] == (2**32,) * (10**5 - 31)


def test_windows_is_no_field_of_the_timing():
    timing = MacTiming(cw_max=64)
    assert timing.windows[-1] == 64
    assert "windows" not in dataclasses.asdict(timing)
    assert "windows" not in dataclasses.asdict(MacTiming())
    assert dataclasses.replace(timing, cw_max=32).windows[-1] == 32


def test_mac_timing_validation():
    with pytest.raises(ValueError):
        MacTiming(cw_min=0)
    with pytest.raises(ValueError):
        MacTiming(cw_min=32, cw_max=16)
    with pytest.raises(ValueError):
        MacTiming(max_backoff_stage=-1)
    MacTiming(cw_max=2**32)   # the largest window the replay draws
    with pytest.raises(ValueError, match="cw_max"):
        MacTiming(cw_max=2**32 + 1)
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
        if name == "payload_bytes":
            # an exchange without data carries no throughput
            with pytest.raises(ValueError, match=name):
                MacTiming(payload_bytes=0)
        else:
            MacTiming(**{name: 0})


@given(w=st.integers(1, 2**32), seed=st.integers(0, 2**16))
def test_draw_backoff_stays_inside_the_window(w, seed):
    replay = BackoffReplay(np.random.default_rng(seed))
    assert 0 <= draw_backoff(replay, w) < w


def test_draw_backoff_stage0_mean():
    replay = BackoffReplay(np.random.default_rng(5))
    draws = [draw_backoff(replay, 16) for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(7.5, rel=0.01)
    assert set(draws) == set(range(16))


def test_station_success_resets_stage_and_counts_payload():
    st_ = WifiStation(T, np.random.default_rng(0))
    st_.on_collision()
    st_.on_collision()
    assert st_.stage == 2 and st_.collision_count == 2
    st_.on_success()
    assert st_.stage == 0
    assert st_.success_count == 1
    assert 0 <= st_.counter < 16


def test_station_stage_clamps_at_max():
    st_ = WifiStation(T, np.random.default_rng(0))
    for _ in range(20):
        st_.on_collision()
    assert st_.stage == T.max_backoff_stage == 6
    assert st_.counter < T.windows[6] == 1024


# Every window the MAC ladder can produce: cw_min << stage, clamped.
LADDER_WINDOWS = sorted({min(cw_min << stage, cw_min << doublings)
                         for cw_min in range(1, 33)
                         for doublings in range(7)
                         for stage in range(8)})
# 3e9 and 2^32 - 1 reject often; 2^32 takes a whole half per draw
WIDE_WINDOWS = [3 * 10**9, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_draws_what_numpy_draws(seed):
    pick = np.random.default_rng(100 + seed)
    windows = [int(w) for w in pick.choice(LADDER_WINDOWS + WIDE_WINDOWS,
                                           size=20_000)]
    windows += LADDER_WINDOWS + WIDE_WINDOWS
    assert 1 in windows
    numpy_rng = np.random.default_rng(seed)
    replay = BackoffReplay(np.random.default_rng(seed))
    for w in windows:
        assert draw_backoff(replay, w) == int(numpy_rng.integers(0, w)), w
        assert len(replay.halves) <= 32


def test_a_refill_stacks_each_words_halves_low_first():
    # The replay splits its words with a numpy view; split the same words
    # here with a shift and a mask, from a twin of its stream. A window
    # of 2^32 never rejects and draws each half as it is, so the draws
    # read the stack back in order.
    replay = BackoffReplay(np.random.default_rng(9))
    twin = np.random.default_rng(9).bit_generator
    for _ in range(3):
        split = []
        for word in twin.random_raw(16).tolist():
            split += [word & 0xFFFFFFFF, word >> 32]
        assert replay.halves == []
        replay._refill()
        assert replay.halves == split[::-1]
        assert [draw_backoff(replay, 2**32) for _ in split] == split


@pytest.mark.parametrize("timing", [T, MacTiming(cw_min=1, cw_max=4,
                                                 max_backoff_stage=3)])
def test_station_counters_match_a_numpy_reference(timing):
    def window(stage):      # the ladder's rule, written out here
        return min(timing.cw_min << stage, timing.cw_max)

    station = WifiStation(timing, np.random.default_rng(21))
    ref_rng, ref_stage = np.random.default_rng(21), 0
    ref = [int(ref_rng.integers(0, window(0)))]
    got = [station.counter]
    outcomes = np.random.default_rng(22).random(3_000) < 0.4
    for collided in outcomes:
        if collided:
            station.on_collision()
            ref_stage = min(ref_stage + 1, timing.max_backoff_stage)
        else:
            station.on_success()
            ref_stage = 0
        got.append(station.counter)
        ref.append(int(ref_rng.integers(0, window(ref_stage))))
    assert got == ref
