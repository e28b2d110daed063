"""Contention driver: the calendar of Wi-Fi expiries against a full scan,
and the whole medium against a slot-stepping reference.

The driver files each station once per draw at the absolute slot where
its backoff expires, and runs the medium as one process that decides and
consumes in place. These tests keep the rule the calendar replaces beside
a real run: every station's and every LTE-U node's counter run down by
every consumed slot, with the slots worked out by the test itself (an
exchange takes the smallest effective backoff plus one, a window that
closes idle its idle slots). They watch the driver at the seams it
offers: where it queues an exchange's ``tx-end`` (the clock is then the
exchange's start, ``phase_start`` its anchor and ``busy_until`` its end),
where the winners redraw, and where a window closes or the run ends.
Every exchange the driver starts must be the one a scan of all counters
makes, every decision that leaves a window idle must fall past its end,
and every counter must agree after every exchange and every window close.

``reference_medium.ReferenceMedium`` steps the medium slot by slot by the
rules alone; patched in for the driver, it must give every scheme the
same busy periods, ledger, per-entity counts and CSV row.
"""

import dataclasses
import gc
import weakref
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from coexsim import simulate
from coexsim.analytics import MetricsAccumulator
from coexsim.contention import ContentionDriver
from coexsim.dcf import MacTiming, WifiStation, exchange_durations
from coexsim.engine import Simulator
from coexsim.lbt import LbtNode, LbtParams
from coexsim.radio import ChannelParams, LinkBudget
from coexsim.scenario import ConfigError, ScenarioConfig
from coexsim.simulate import run_scenario
from reference_medium import ReferenceMedium

NEAR = ChannelParams(pathloss_exponent=2.0)


def _lead(node, anchor_us, slot_us):
    """Whole slots from the anchor until the node's CCA ends."""
    return max(0, -(-(node.wake_at_us + node.params.cca_us - anchor_us)
                    // slot_us))


class _Scan:
    """Brute-force shadow of one run's contention driver.

    Keeps every station's counter, run down slot by slot by the rule
    itself, with the slots worked out here: an exchange takes the scan's
    own s_min + 1, a window that closes idle its whole idle slots. Where
    the driver queues an exchange's ``tx-end``, the calendar must file
    every station at its counter, and the scan of every counter and every
    node's lead + counter gives the minimum set: the exchange must start
    s_min slots after its anchor and last as long as that set makes it,
    and exactly that set must redraw, in index order, through
    ``on_success``/``on_collision`` and ``start_duty_off``. A window that
    closes idle, or the run's last window at the end, must hold no
    decision before its end, or (last window only) a frozen one.
    """

    def __init__(self):
        self.driver = None
        self.live: list[int] = []   # every station's counter, slot by slot
        self.index: dict[int, int] = {}
        self.pending = None         # the last exchange: expected, redrawn
        self.decisions = 0
        self.exchanges = 0
        self.tally = {"success": 0, "collided": 0}

    def patches(self, mp: pytest.MonkeyPatch) -> None:
        init, close = ContentionDriver.__init__, ContentionDriver.close_window
        finalize, schedule = ContentionDriver.finalize, Simulator.schedule
        duty_off = LbtNode.start_duty_off
        scan = self

        def patched_init(driver, *args, **kwargs):
            init(driver, *args, **kwargs)
            scan.driver = driver
            scan.live = [s.counter for s in driver.stations]
            scan.index = {id(s): i for i, s in enumerate(driver.stations)}
            scan.index.update({id(n): j for j, n
                               in enumerate(driver.lbt_nodes)})

        def patched_schedule(sim, time_us, kind, target, fn=None):
            if kind == "tx-end":
                scan.exchange()
            schedule(sim, time_us, kind, target, fn)

        def patched_close(driver, t_us):
            k = 0
            if driver.phase_start < driver.window_end:
                scan.idle(t_us)
                k = (t_us - driver.phase_start) // driver.timing.slot_us
            close(driver, t_us)
            scan.run_down(k)

        def patched_finalize(driver, t_end):
            if driver.phase_start < driver.window_end:
                scan.idle(t_end)
            scan.settle()
            finalize(driver, t_end)

        def redraw(orig, collision):
            def patched(station):
                orig(station)
                i = scan.index[id(station)]
                scan.live[i] = station.counter
                scan.redrew("wifi", i, collision)
            return patched

        def patched_duty_off(node, *args):
            duty_off(node, *args)
            scan.redrew("lte", scan.index[id(node)], None)

        mp.setattr(ContentionDriver, "__init__", patched_init)
        mp.setattr(ContentionDriver, "close_window", patched_close)
        mp.setattr(ContentionDriver, "finalize", patched_finalize)
        mp.setattr(Simulator, "schedule", patched_schedule)
        mp.setattr(WifiStation, "on_success",
                   redraw(WifiStation.on_success, False))
        mp.setattr(WifiStation, "on_collision",
                   redraw(WifiStation.on_collision, True))
        mp.setattr(LbtNode, "start_duty_off", patched_duty_off)

    def run_down(self, k: int) -> None:
        self.live = [c - k for c in self.live]

    def decide(self):
        """The scan's decision at the driver's anchor: (s_min, stations,
        nodes) holding the smallest effective backoff, or None."""
        self.settle()
        driver = self.driver
        filed = [(i, slot - driver._vslot)
                 for slot, bucket in driver._calendar.items() for i in bucket]
        assert sorted(filed) == list(enumerate(self.live))
        assert sorted(driver._expiries) == sorted(driver._calendar)
        slot_us = driver.timing.slot_us
        lte_eff = [node.counter + _lead(node, driver.phase_start, slot_us)
                   for node in driver.lbt_nodes]
        everyone = self.live + lte_eff
        if not everyone:
            return None
        s_min = min(everyone)
        assert s_min >= 0
        self.decisions += 1
        return (s_min, [i for i, c in enumerate(self.live) if c == s_min],
                [j for j, e in enumerate(lte_eff) if e == s_min])

    def duration(self, wifi_w, lte_w) -> int:
        durations = self.driver.durations
        if lte_w:
            burst = max(self.driver.lbt_nodes[j].params.burst_us
                        for j in lte_w)
            if len(wifi_w) + len(lte_w) > 1:
                return max(burst, durations.t_collision_ticks)
            return burst
        if len(wifi_w) > 1:
            return durations.t_collision_ticks
        return durations.t_success_ticks

    def exchange(self) -> None:
        """The driver queues the tx-end of an exchange starting now."""
        driver = self.driver
        s_min, wifi_w, lte_w = self.decide()
        now = driver.sim.now
        assert now == driver.phase_start + s_min * driver.timing.slot_us
        assert driver.busy_until == now + self.duration(wifi_w, lte_w)
        collision = len(wifi_w) + len(lte_w) > 1
        self.pending = ({"wifi": wifi_w, "lte": lte_w},
                        {"wifi": [], "lte": []}, collision)
        self.run_down(s_min + 1)
        self.exchanges += 1
        if collision:
            self.tally["collided"] += len(wifi_w)
        elif wifi_w:
            self.tally["success"] += 1

    def redrew(self, what: str, i: int, collision) -> None:
        assert self.pending is not None, f"{what} {i} redrew unbidden"
        _, redrawn, expected_collision = self.pending
        redrawn[what].append(i)
        if collision is not None:
            assert collision == expected_collision

    def settle(self) -> None:
        """The last exchange's winners, and only they, have redrawn."""
        if self.pending is not None:
            expected, redrawn, _ = self.pending
            assert redrawn == expected
            self.pending = None

    def idle(self, t_us: int) -> None:
        """The open window ends idle at t_us: its decision, if any, falls
        past its end, or is frozen in the run's last window."""
        driver = self.driver
        decision = self.decide()
        if decision is None:
            return
        s_min, wifi_w, lte_w = decision
        tx = driver.phase_start + s_min * driver.timing.slot_us
        if tx < t_us:
            assert t_us == driver.run_end_us
            assert tx + self.duration(wifi_w, lte_w) > t_us


def _scanned_run(cfg, seed):
    scan = _Scan()
    with pytest.MonkeyPatch.context() as mp:
        scan.patches(mp)
        res = run_scenario(cfg, seed=seed)
    exchanges = res.metrics.success_events + res.metrics.collision_events
    assert scan.exchanges == exchanges
    assert scan.decisions >= exchanges
    assert scan.pending is None
    return scan, res


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
    _scanned_run(cfg, seed)


@given(n=st.integers(0, 12), m=st.integers(1, 6),
       slot_us=st.sampled_from([9, 20]), lbt_cw=st.integers(1, 32),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       window_us=st.one_of(st.none(), st.integers(50, 2_000)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_every_lte_counter_loses_the_slots_after_its_lead(
        n, m, slot_us, lbt_cw, duty_off_factor, window_us, seed):
    # The driver leaves sleeping nodes off its walk; a shadow of every
    # node's counter, run down by the rule itself, must still agree at
    # every decision that starts an exchange, after every window close
    # and at the end. With window_us the run is cut into windows that
    # close at their end, or after an exchange that overruns one, as
    # beacons cut a coordinated run.
    cfg = ScenarioConfig(
        scheme="lbt", n_wifi=n, m_lte=m, duration_s=0.1,
        timing=MacTiming(slot_us=slot_us), channel=NEAR,
        lbt=dataclasses.replace(ScenarioConfig().lbt,
                                contention_window=lbt_cw,
                                duty_off_factor=duty_off_factor))
    shadow: dict[int, int] = {}
    checked = {"exchanges": 0, "closes": 0, "end": 0}
    drivers = []
    cls = ContentionDriver
    init, close, open_window = cls.__init__, cls.close_window, cls.open_window
    schedule, draw = Simulator.schedule, LbtNode.draw_backoff

    def run_down(driver, k):
        # every node loses the slots after its lead at the anchor
        for node in driver.lbt_nodes:
            shadow[id(node)] -= max(0, k - _lead(node, driver.phase_start,
                                                 slot_us))

    def agree(driver, what):
        assert {id(nd): nd.counter for nd in driver.lbt_nodes} == shadow
        checked[what] += 1

    def patched_init(driver, *args, **kwargs):
        init(driver, *args, **kwargs)
        drivers.append(driver)

    def patched_schedule(sim, time_us, kind, target, fn=None):
        if kind == "tx-end":
            # an exchange starts now: what came before it must agree,
            # then it takes s_min + 1 (the winners redraw into the shadow)
            (driver,) = drivers
            agree(driver, "exchanges")
            run_down(driver, (sim.now - driver.phase_start) // slot_us + 1)
        schedule(sim, time_us, kind, target, fn)

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
        mp.setattr(cls, "__init__", patched_init)
        mp.setattr(Simulator, "schedule", patched_schedule)
        mp.setattr(cls, "close_window", patched_close)
        mp.setattr(LbtNode, "draw_backoff", patched_draw)
        if window_us is not None:
            mp.setattr(cls, "open_window", open_next)
        res = run_scenario(cfg, seed=seed)
    agree(drivers[0], "end")   # the last exchange, too
    assert checked["exchanges"] == (res.metrics.success_events
                                    + res.metrics.collision_events)
    assert checked["closes"] == cuts


@pytest.mark.parametrize("scheme", ["wifi-only", "lbt", "hap-sa", "hap-uca"])
def test_each_count_is_kept_once_and_agrees_with_the_driver(scheme):
    # Stations count their own successes and collisions, and the bits
    # are set from those counts when the run ends; tally the exchanges
    # the scan saw the driver start beside them
    cfg = ScenarioConfig(scheme=scheme, n_wifi=6,
                         m_lte=0 if scheme == "wifi-only" else 3,
                         duration_s=1.0, channel=NEAR)
    scan, res = _scanned_run(cfg, seed=3)
    stations, tally = scan.driver.stations, scan.tally
    bits = cfg.timing.payload_bits
    assert res.metrics.wifi_bits == {st.station_id: st.success_count * bits
                                     for st in stations}
    successes = sum(st.success_count for st in stations)
    assert successes == tally["success"] > 0
    assert sum(st.collision_count for st in stations) \
        == tally["collided"] > 0
    if scheme != "lbt":   # no LTE-U burst is a contention success
        assert successes == res.metrics.success_events
    assert res.row.wifi_aggregate_bps == successes * bits / cfg.duration_s


@st.composite
def _small_configs(draw):
    scheme = draw(st.sampled_from(["wifi-only", "lbt", "hap-sa", "hap-uca"]))
    n = draw(st.integers(0, 6))
    m = 0 if scheme == "wifi-only" else draw(st.integers(0, 4))
    assume(n + m > 0)
    interval_ms = draw(st.integers(10, 50))
    # a whole number of intervals, 0.05-0.3 s
    intervals = draw(st.integers(-(-50 // interval_ms), 300 // interval_ms))
    try:
        return ScenarioConfig(
            scheme=scheme, n_wifi=n, m_lte=m,
            duration_s=interval_ms * intervals / 1000,
            interval_us=interval_ms * 1000,
            access_mode=draw(st.sampled_from(["basic", "rts-cts"])),
            timing=MacTiming(slot_us=draw(st.sampled_from([9, 20]))),
            channel=NEAR,
            lbt=dataclasses.replace(
                ScenarioConfig().lbt,
                duty_off_factor=draw(st.one_of(st.none(),
                                               st.integers(0, 3)))))
    except ConfigError:   # a Wi-Fi exchange longer than the CP
        assume(False)


def _run_with(medium, cfg, seed):
    made = []

    def build(*args, **kwargs):
        made.append(medium(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "ContentionDriver", build)
        res = run_scenario(cfg, seed)
    (driver,) = made
    return driver, res


@given(cfg=_small_configs(), seed=st.integers(1, 1000))
@settings(max_examples=40, deadline=None)
def test_the_driver_runs_the_medium_as_a_slot_stepping_reference(cfg, seed):
    driver, res = _run_with(ContentionDriver, cfg, seed)
    ref, ref_res = _run_with(ReferenceMedium, cfg, seed)
    assert driver.tx_intervals == ref.tx_intervals
    assert driver.lte_intervals == ref.lte_intervals
    buckets = ("idle_us", "success_us", "collision_us", "cfp_us",
               "beacon_us")
    assert ([getattr(res.metrics, b) for b in buckets]
            == [getattr(ref_res.metrics, b) for b in buckets])
    counts = [(st.success_count, st.collision_count)
              for st in driver.stations]
    assert counts == list(zip(ref.successes, ref.collisions))
    assert counts == [(st.success_count, st.collision_count)
                      for st in ref.stations]
    for name in ("wifi_bits", "lte_bits", "lte_airtime_us",
                 "success_events", "collision_events"):
        assert getattr(res.metrics, name) == getattr(ref_res.metrics, name)
    assert res.row.csv_values() == ref_res.row.csv_values()


def _driver(n_wifi=1, m_lte=0, run_end_us=1_000_000, wakes_us=(), **lbt):
    """A driver on the default timing; node j wakes at wakes_us[j]."""
    timing = MacTiming()
    sim = Simulator(root_seed=1)
    stations = [WifiStation(f"wifi-{i:02d}", timing,
                            sim.fork_rng(f"wifi-{i:02d}"))
                for i in range(n_wifi)]
    nodes = [LbtNode(f"lte-{j:02d}", LbtParams(**lbt),
                     LinkBudget(f"lte-{j:02d}", 10.0, 66.4, 100.0),
                     sim.fork_rng(f"lte-{j:02d}")) for j in range(m_lte)]
    for node, wake_us in zip(nodes, wakes_us):
        node.wake_at_us = wake_us
    driver = ContentionDriver(sim, timing, exchange_durations(timing),
                              stations, MetricsAccumulator(), run_end_us,
                              nodes, NEAR)
    return sim, driver


def _file(driver, **slots):
    """File station i at absolute slot slots[f"s{i}"], in place."""
    driver._calendar.clear()
    for name, slot in slots.items():
        driver._calendar.setdefault(slot, []).append(int(name[1:]))
    driver._expiries[:] = sorted(driver._calendar)


def test_a_counter_past_zero_is_an_error():
    # a station filed below V, without and with an LTE-U node (a decision
    # with a node on the walk takes its own path), and a node whose
    # counter went negative
    for m_lte in (0, 1):
        _, driver = _driver(m_lte=m_lte, cca_us=0)
        _file(driver, s0=-1)
        with pytest.raises(RuntimeError, match="past zero"):
            driver.open_window(0, 1_000)
    _, driver = _driver(m_lte=1, cca_us=0)
    driver.lbt_nodes[0].counter = -1
    with pytest.raises(RuntimeError, match="past zero"):
        driver.open_window(0, 1_000)


def test_an_idle_close_takes_from_a_walked_node_only_the_slots_after_its_lead():
    # Both nodes' CCA ends by the station's expiry at slot 20 (180 us), so
    # both are on the walk; node 0's CCA ends at 50 us (lead 6 slots),
    # node 1's at 150 us (lead 17), still pending when the window closes
    # at 100 us, before node 0's effective backoff of 16 slots. The close
    # takes 11 slots: 5 from node 0, none from node 1.
    sim, driver = _driver(m_lte=2, wakes_us=(0, 100))
    early, late = driver.lbt_nodes
    assert driver.timing.slot_us == 9 and early.params.cca_us == 50
    _file(driver, s0=20)
    early.counter = late.counter = 10
    driver.open_window(0, 100)
    assert sim.run_until(100).processed == 0
    driver.close_window(100)
    assert driver._vslot == 11
    assert (early.counter, late.counter) == (5, 10)


def test_finalize_ends_the_medium_process_and_frees_the_driver():
    # the process's frame holds the driver; finalize closes it, so a run
    # frees its driver and busy-period lists without waiting for a full
    # collection
    sim, driver = _driver(m_lte=1)
    driver.open_window(0, 1_000_000)
    sim.run_until(1_000_000)
    driver.finalize(1_000_000)
    freed = weakref.ref(driver)
    gc.disable()
    try:
        del driver
        assert freed() is None
    finally:
        gc.enable()


def _one_station_driver(run_end_us=1_000_000):
    sim, driver = _driver(run_end_us=run_end_us)
    return sim, driver.stations[0], driver


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
    assert driver.tx_intervals == [(end, driver.busy_until)]


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
    assert driver.tx_intervals == [(tx, driver.busy_until)]
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
