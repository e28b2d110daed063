"""Contention driver: the calendar of Wi-Fi expiries against a full scan.

The driver files each station once per draw at the absolute slot where
its backoff expires, and decides and consumes in place, in ``_arm`` and
``_tx_end``. These tests keep the rule the calendar replaces beside a
real run: every station's and every LTE-U node's counter run down by
every consumed slot, with the slots worked out by the test itself (an
exchange takes the smallest effective backoff plus one, a window that
closes idle its idle slots). Every decision the driver makes must be the
one a scan of all counters makes, and every counter must agree after
every exchange and every window close.
"""

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from coexsim.analytics import MetricsAccumulator
from coexsim.contention import ContentionDriver
from coexsim.dcf import MacTiming, WifiStation, exchange_durations
from coexsim.engine import Simulator
from coexsim.lbt import LbtNode, LbtParams
from coexsim.radio import ChannelParams, LinkBudget
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import run_scenario

NEAR = ChannelParams(pathloss_exponent=2.0)


class _Scan:
    """Brute-force shadow of one run's contention driver.

    Keeps every station's counter, run down slot by slot by the rule
    itself, with the slots worked out here: an exchange takes the scan's
    own s_min + 1, a window that closes idle its whole idle slots. At
    each decision (every ``_arm`` entry, whether or not the decision
    fires) the calendar must file every station at its counter, and the
    scan of every counter and every node's lead + counter gives the
    minimum set; the decision that starts an exchange must carry exactly
    that set into ``_fire`` (when queued) and ``_tx_end``.
    """

    def __init__(self):
        self.live: list[int] = []   # every station's counter, slot by slot
        self.index: dict[int, int] = {}
        self.expected = None        # (s_min, wifi_w, lte_w) of the decision
        self.decisions = 0
        self.exchanges = 0

    def patches(self, mp: pytest.MonkeyPatch) -> None:
        cls = ContentionDriver
        init, arm, fire = cls.__init__, cls._arm, cls._fire
        tx_end, close = cls._tx_end, cls.close_window
        scan = self

        def patched_init(driver, *args, **kwargs):
            init(driver, *args, **kwargs)
            scan.live = [s.counter for s in driver.stations]
            scan.index = {id(s): i for i, s in enumerate(driver.stations)}

        def patched_arm(driver):
            scan.decide(driver)
            arm(driver)

        def patched_fire(driver, s_min, wifi_w, lte_w, duration):
            scan.check(s_min, wifi_w, lte_w)
            fire(driver, s_min, wifi_w, lte_w, duration)

        def patched_tx_end(driver, s_min, wifi_w, lte_w, duration):
            scan.check(s_min, wifi_w, lte_w)
            scan.run_down(scan.expected[0] + 1)
            scan.expected = None
            scan.exchanges += 1
            tx_end(driver, s_min, wifi_w, lte_w, duration)

        def patched_close(driver, t_us):
            k = 0
            if driver.phase_start < driver.window_end:
                k = (t_us - driver.phase_start) // driver.timing.slot_us
            close(driver, t_us)
            scan.run_down(k)

        def redraw(orig):
            def patched(station):
                orig(station)
                scan.live[scan.index[id(station)]] = station.counter
            return patched

        mp.setattr(cls, "__init__", patched_init)
        mp.setattr(cls, "_arm", patched_arm)
        mp.setattr(cls, "_fire", patched_fire)
        mp.setattr(cls, "_tx_end", patched_tx_end)
        mp.setattr(cls, "close_window", patched_close)
        for name in ("on_success", "on_collision"):
            mp.setattr(WifiStation, name, redraw(getattr(WifiStation, name)))

    def run_down(self, k: int) -> None:
        self.live = [c - k for c in self.live]

    def decide(self, driver) -> None:
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
        self.expected = None
        if not everyone:
            return
        s_min = min(everyone)
        assert s_min >= 0
        self.expected = (s_min,
                         [i for i, c in enumerate(self.live) if c == s_min],
                         [j for j, e in enumerate(lte_eff) if e == s_min])
        self.decisions += 1

    def check(self, s_min, wifi_w, lte_w) -> None:
        assert self.expected == (s_min, list(wifi_w), list(lte_w))


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
    exchanges = res.metrics.success_events + res.metrics.collision_events
    assert scan.exchanges == exchanges
    assert scan.decisions >= exchanges


@given(n=st.integers(0, 12), m=st.integers(1, 6),
       slot_us=st.sampled_from([9, 20]), lbt_cw=st.integers(1, 32),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       window_us=st.one_of(st.none(), st.integers(50, 2_000)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_every_lte_counter_loses_the_slots_after_its_lead(
        n, m, slot_us, lbt_cw, duty_off_factor, window_us, seed):
    # The driver leaves sleeping nodes off its walk; a shadow of every
    # node's counter, run down by the rule itself, must still agree after
    # every exchange and every window close. With window_us the run is
    # cut into windows that close at their end, or after an exchange
    # that overruns one, as beacons cut a coordinated run.
    cfg = ScenarioConfig(
        scheme="lbt", n_wifi=n, m_lte=m, duration_s=0.1,
        timing=MacTiming(slot_us=slot_us), channel=NEAR,
        lbt=dataclasses.replace(ScenarioConfig().lbt,
                                contention_window=lbt_cw,
                                duty_off_factor=duty_off_factor))
    shadow: dict[int, int] = {}
    checked = {"exchanges": 0, "closes": 0}
    cls = ContentionDriver
    tx_end, close, draw = cls._tx_end, cls.close_window, LbtNode.draw_backoff
    open_window = cls.open_window

    def run_down(driver, k):
        # every node loses the slots after its lead at the anchor
        for node in driver.lbt_nodes:
            lead = max(0, -(-(node.wake_at_us + node.params.cca_us
                              - driver.phase_start) // slot_us))
            shadow[id(node)] -= max(0, k - lead)

    def agree(driver, what):
        assert {id(nd): nd.counter for nd in driver.lbt_nodes} == shadow
        checked[what] += 1

    def patched_tx_end(driver, s_min, wifi_w, lte_w, duration):
        run_down(driver, s_min + 1)   # winners then redraw into the shadow
        tx_end(driver, s_min, wifi_w, lte_w, duration)
        agree(driver, "exchanges")

    def patched_close(driver, t_us):
        if driver.phase_start < driver.window_end:
            run_down(driver, (t_us - driver.phase_start) // slot_us)
        close(driver, t_us)
        agree(driver, "closes")

    def patched_draw(node):
        draw(node)
        shadow[id(node)] = node.counter

    # a window ends at least one longest exchange before the run's end,
    # so an exchange that overruns it still ends inside the run
    durations = exchange_durations(cfg.timing)
    longest = max(cfg.lbt.burst_us, durations.t_success_ticks,
                  durations.t_collision_ticks)
    cuts = 0

    def open_next(driver, start_us, end_us):
        next_end = start_us + window_us
        if next_end + longest > end_us:
            open_window(driver, start_us, end_us)
            return
        open_window(driver, start_us, next_end)
        driver.sim.schedule(next_end, "beacon", "cut",
                            partial(cut, driver, end_us))

    def cut(driver, end_us):
        nonlocal cuts
        now = driver.sim.now
        if driver.busy_until > now:   # overrun: close when it ends
            driver.sim.schedule(driver.busy_until, "beacon", "cut",
                                partial(cut, driver, end_us))
            return
        cuts += 1
        patched_close(driver, now)
        open_next(driver, now, end_us)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_tx_end", patched_tx_end)
        mp.setattr(cls, "close_window", patched_close)
        mp.setattr(LbtNode, "draw_backoff", patched_draw)
        if window_us is not None:
            mp.setattr(cls, "open_window", open_next)
        res = run_scenario(cfg, seed=seed)
    assert checked["exchanges"] == (res.metrics.success_events
                                    + res.metrics.collision_events)
    assert checked["closes"] == cuts


@pytest.mark.parametrize("scheme", ["wifi-only", "lbt", "hap-sa", "hap-uca"])
def test_each_count_is_kept_once_and_agrees_with_the_driver(scheme):
    # Stations count their own successes and collisions, and the bits
    # are set from those counts when the run ends; tally what the driver
    # decided at each tx-end beside them
    cfg = ScenarioConfig(scheme=scheme, n_wifi=6,
                         m_lte=0 if scheme == "wifi-only" else 3,
                         duration_s=1.0, channel=NEAR)
    drivers, tally = [], {"success": 0, "collided": 0}
    init, tx_end = ContentionDriver.__init__, ContentionDriver._tx_end

    def patched_init(driver, *args, **kwargs):
        init(driver, *args, **kwargs)
        drivers.append(driver)

    def patched_tx_end(driver, s_min, wifi_w, lte_w, duration):
        if len(wifi_w) + len(lte_w) > 1:
            tally["collided"] += len(wifi_w)
        elif wifi_w:
            tally["success"] += 1
        tx_end(driver, s_min, wifi_w, lte_w, duration)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContentionDriver, "__init__", patched_init)
        mp.setattr(ContentionDriver, "_tx_end", patched_tx_end)
        res = run_scenario(cfg, seed=3)
    (driver,) = drivers
    bits = cfg.timing.payload_bits
    assert res.metrics.wifi_bits == {st.station_id: st.success_count * bits
                                     for st in driver.stations}
    successes = sum(st.success_count for st in driver.stations)
    assert successes == tally["success"] > 0
    assert sum(st.collision_count for st in driver.stations) \
        == tally["collided"] > 0
    if scheme != "lbt":   # no LTE-U burst is a contention success
        assert successes == res.metrics.success_events
    assert res.row.wifi_aggregate_bps == successes * bits / cfg.duration_s


def test_a_counter_past_zero_is_an_error():
    timing = MacTiming()
    for m_lte in (0, 1):   # a decision with LTE-U nodes takes its own path
        sim = Simulator(root_seed=1)
        station = WifiStation("wifi-00", timing, sim.fork_rng("wifi-00"))
        nodes = [LbtNode(f"lte-{j:02d}", LbtParams(),
                         LinkBudget(f"lte-{j:02d}", 10.0, 66.4, 100.0),
                         sim.fork_rng(f"lte-{j:02d}")) for j in range(m_lte)]
        driver = ContentionDriver(sim, timing, exchange_durations(timing),
                                  [station], MetricsAccumulator(), 1_000,
                                  nodes, NEAR)
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
    driver.close_window(end)   # already closed: nothing happens
    assert driver._vslot == counter
    # all idle slots consumed: the next window starts with the exchange
    driver.open_window(end, 2 * end)
    sim.run_until(end)
    assert driver.tx_intervals == [(end, driver.busy_until, True, False)]


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
