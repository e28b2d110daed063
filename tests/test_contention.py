"""Contention driver: the calendar of Wi-Fi expiries against a full scan.

The driver files each station once per draw at the absolute slot where
its backoff expires. These tests keep the rule the calendar replaces,
every station's counter run down by every consumed slot, beside a real
run, and check that every decision the driver makes is the one a scan
of all counters makes.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from coexsim.analytics import MetricsAccumulator
from coexsim.contention import ContentionDriver
from coexsim.dcf import MacTiming, WifiStation, exchange_durations
from coexsim.engine import Simulator
from coexsim.lbt import LbtNode
from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import run_scenario

NEAR = ChannelParams(pathloss_exponent=2.0)


class _Scan:
    """Brute-force shadow of one run's contention driver."""

    def __init__(self):
        self.live: list[int] = []   # every station's counter, slot by slot
        self.index: dict[int, int] = {}
        self.decisions = 0

    def patches(self, mp: pytest.MonkeyPatch) -> None:
        init = ContentionDriver.__init__
        consume = ContentionDriver._consume
        contenders = ContentionDriver._contenders
        scan = self

        def patched_init(driver, *args, **kwargs):
            init(driver, *args, **kwargs)
            scan.live = [s.counter for s in driver.stations]
            scan.index = {id(s): i for i, s in enumerate(driver.stations)}

        def patched_consume(driver, k):
            consume(driver, k)
            scan.live = [c - k for c in scan.live]

        def patched_contenders(driver):
            got = contenders(driver)
            scan.check(driver, got)
            return got

        def redraw(orig):
            def patched(station):
                orig(station)
                scan.live[scan.index[id(station)]] = station.counter
            return patched

        mp.setattr(ContentionDriver, "__init__", patched_init)
        mp.setattr(ContentionDriver, "_consume", patched_consume)
        mp.setattr(ContentionDriver, "_contenders", patched_contenders)
        for name in ("on_success", "on_collision"):
            mp.setattr(WifiStation, name, redraw(getattr(WifiStation, name)))

    def check(self, driver, got) -> None:
        filed = [(i, slot - driver._vslot)
                 for slot, bucket in driver._calendar.items() for i in bucket]
        assert sorted(filed) == list(enumerate(self.live))
        assert sorted(driver._expiries) == sorted(driver._calendar)
        slot_us = driver.timing.slot_us
        lte_eff = []
        for node in driver.lbt_nodes:
            lead = node.wake_at_us + node.params.cca_us - driver.phase_start
            lte_eff.append(node.counter + max(0, (lead + slot_us - 1)
                                              // slot_us))
        everyone = self.live + lte_eff
        if not everyone:
            assert got is None
            return
        s_min = min(everyone)
        assert s_min >= 0
        assert got == (s_min,
                       [i for i, c in enumerate(self.live) if c == s_min],
                       [j for j, e in enumerate(lte_eff) if e == s_min])
        self.decisions += 1


@given(scheme=st.sampled_from(["wifi-only", "lbt", "hap-sa"]),
       n=st.integers(1, 60), m=st.integers(1, 8),
       slot_us=st.sampled_from([9, 20]), cw_min=st.integers(1, 32),
       cw_doublings=st.integers(0, 6), max_stage=st.integers(0, 7),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_calendar_decides_as_a_scan_of_every_counter(
        scheme, n, m, slot_us, cw_min, cw_doublings, max_stage,
        duty_off_factor, seed):
    timing = MacTiming(slot_us=slot_us, cw_min=cw_min,
                       cw_max=cw_min << cw_doublings,
                       max_backoff_stage=max_stage)
    coordinated = scheme == "hap-sa"
    cfg = ScenarioConfig(
        scheme=scheme, n_wifi=n, m_lte=0 if scheme == "wifi-only" else m,
        duration_s=0.06 if coordinated else 0.1,
        interval_us=20_000 if coordinated else 100_000,
        timing=timing, channel=NEAR,
        lbt=dataclasses.replace(ScenarioConfig().lbt,
                                duty_off_factor=duty_off_factor))
    scan = _Scan()
    with pytest.MonkeyPatch.context() as mp:
        scan.patches(mp)
        res = run_scenario(cfg, seed=seed)
    assert scan.decisions >= res.metrics.success_events \
        + res.metrics.collision_events


@given(n=st.integers(0, 12), m=st.integers(1, 6),
       slot_us=st.sampled_from([9, 20]), lbt_cw=st.integers(1, 32),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_every_lte_counter_loses_the_slots_after_its_lead(
        n, m, slot_us, lbt_cw, duty_off_factor, seed):
    # The driver leaves sleeping nodes off its walk; a shadow of every
    # node's counter, run down by the rule itself, must still agree
    cfg = ScenarioConfig(
        scheme="lbt", n_wifi=n, m_lte=m, duration_s=0.1,
        timing=MacTiming(slot_us=slot_us), channel=NEAR,
        lbt=dataclasses.replace(ScenarioConfig().lbt,
                                contention_window=lbt_cw,
                                duty_off_factor=duty_off_factor))
    shadow: dict[int, int] = {}
    consumes = 0
    consume, draw = ContentionDriver._consume, LbtNode.draw_backoff

    def patched_consume(driver, k):
        nonlocal consumes
        expected = {}
        for node in driver.lbt_nodes:
            lead = max(0, -(-(node.wake_at_us + node.params.cca_us
                              - driver.phase_start) // slot_us))
            expected[id(node)] = shadow[id(node)] - max(0, k - lead)
        consume(driver, k)
        assert {id(nd): nd.counter for nd in driver.lbt_nodes} == expected
        shadow.update(expected)
        consumes += 1

    def patched_draw(node):
        draw(node)
        shadow[id(node)] = node.counter

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContentionDriver, "_consume", patched_consume)
        mp.setattr(LbtNode, "draw_backoff", patched_draw)
        res = run_scenario(cfg, seed=seed)
    assert consumes == res.metrics.success_events + res.metrics.collision_events


def test_a_counter_past_zero_is_an_error():
    timing = MacTiming()
    sim = Simulator(root_seed=1)
    station = WifiStation("wifi-00", timing, sim.fork_rng("wifi-00"))
    driver = ContentionDriver(sim, timing, exchange_durations(timing),
                              [station], MetricsAccumulator(), 1_000)
    driver._consume(station.counter + 1)
    with pytest.raises(RuntimeError, match="past zero"):
        driver.open_window(0, 1_000)


def _one_station_driver(run_end_us=1_000_000):
    timing = MacTiming()
    sim = Simulator(root_seed=1)
    station = WifiStation("wifi-00", timing, sim.fork_rng("wifi-00"))
    driver = ContentionDriver(sim, timing, exchange_durations(timing),
                              [station], MetricsAccumulator(), run_end_us)
    return sim, station, driver


def test_a_window_closes_only_at_its_end():
    sim, station, driver = _one_station_driver()
    counter = station.counter
    end = counter * driver.timing.slot_us   # the first decision falls here
    assert end > 0
    driver.open_window(0, end)
    with pytest.raises(RuntimeError, match="window ends at"):
        driver.close_window(end - 1)
    assert sim.run_until(end).processed == 0
    driver.close_window(end)
    assert driver.phase_start == driver.window_end
    assert driver.metrics.idle_us == end
    assert driver._contenders() == (0, [0], [])   # all idle slots consumed
    driver.close_window(end)   # already closed: nothing happens
    assert driver._vslot == counter


def test_a_window_that_forbids_overrun_ends_with_the_run():
    sim, _, driver = _one_station_driver()
    driver.open_window(0, 1_000_000)
    sim.run_until(1_000_000)
    with pytest.raises(RuntimeError, match="last window ends with the run"):
        driver.close_window(1_000_000)
    driver.finalize(1_000_000)
    assert driver.phase_start == driver.window_end


def test_only_the_runs_last_window_freezes_an_exchange_past_its_end():
    _, station, _ = _one_station_driver()
    tx = station.counter * MacTiming().slot_us   # the first decision
    end = tx + 1                                 # falls inside its exchange

    # a window that ends before the run's end is overrun
    sim, _, driver = _one_station_driver()
    driver.open_window(0, end)
    sim.run_until(end)
    assert driver.tx_intervals == [(tx, driver.busy_until, True, False)]
    assert driver.busy_until > end

    # the window that ends at the run's end leaves the decision frozen
    sim, _, driver = _one_station_driver(run_end_us=end)
    with pytest.raises(ValueError, match="end by the run's end"):
        driver.open_window(0, end + 1)
    driver.open_window(0, end)
    assert sim.run_until(end).processed == 0
    driver.finalize(end)
    assert driver.tx_intervals == [] and driver.busy_until == 0
    assert driver.metrics.idle_us == end
    assert driver.phase_start == driver.window_end
