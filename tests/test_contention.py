"""Contention driver: the calendar of Wi-Fi expiries against a full scan,
and the whole medium against a slot-stepping reference.

The driver files each station once per draw, and each LTE-U node once a
decision wakes it, at the absolute slot where its backoff expires, and
runs the medium as one process that decides and consumes in place, and
ends each window itself. These tests keep the rule the calendar
replaces beside a real run: every station's and every LTE-U node's
counter run down by every consumed slot, with the slots worked out by
the test itself (an exchange takes the smallest effective backoff plus
one, a window that ends idle its idle slots, never more than that
backoff). They watch the driver at the seams it offers: where a window
opens, where an exchange starts, as its ``slot-boundary`` fires inline
or from the queue (the clock is then the exchange's start, and the
anchor the scan's), where the winners redraw (the clock and
``busy_until`` are then the exchange's end), where a beacon checks that
a window is over, and where the run ends, before ``finalize`` frees the
medium. V and the anchor are locals of the medium process, read from
its frame. Every exchange the driver starts must be the one a scan of
all counters makes, every window that ends idle must hold no decision
before its end, and every counter must agree before every exchange and
after every window.

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
from coexsim.contention import BusyPeriods, ContentionDriver
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


def _medium(driver, name):
    """A local of the driver's medium process, suspended or running: V
    is ``vslot``, the anchor ``anchor``. ``finalize`` frees them."""
    return driver._process.gi_frame.f_locals[name]


def _left(driver, anchor_us):
    """Every count the driver leaves at the anchor: (stations, nodes).
    A filed entity's is its expiry slot less V, a filed node's less its
    lead at the anchor too; a sleeping node's is its counter, as drawn."""
    n_wifi, slot_us = len(driver.stations), driver.timing.slot_us
    vslot = _medium(driver, "vslot")
    filed = [(e, slot - vslot)
             for slot, bucket in driver._calendar.items() for e in bucket]
    left = dict(filed)
    assert len(left) == len(filed)      # no entity is filed twice
    stations = [left.pop(i) for i in range(n_wifi)]
    nodes = [left.pop(n_wifi + j) - _lead(node, anchor_us, slot_us)
             if n_wifi + j in left else node.counter
             for j, node in enumerate(driver.lbt_nodes)]
    assert not left
    return stations, nodes


class _Scan:
    """Brute-force shadow of one run's contention driver.

    Keeps every station's and every LTE-U node's counter and its own
    window anchor: a window's start, then each exchange's end. Counters
    run down by the rule itself, with the slots worked out here: an
    exchange takes the scan's own s_min + 1 (a node only the slots after
    its lead), a window that ends idle its idle slots, never more than
    s_min. Where an exchange's ``slot-boundary`` fires, inline or
    queued, the driver's counters must be the shadow's, and the scan of
    every counter and every node's lead + counter gives the minimum set:
    the exchange must start s_min slots after the anchor and last as long
    as that set makes it, and exactly that set must redraw, in index
    order, through ``on_success``/``on_collision`` and
    ``start_duty_off``, when the exchange ends. A window that
    ends idle, seen where a beacon checks it or the run ends, must hold
    no decision before its end, or (last window only) a frozen one; then
    the counters must agree again.
    """

    def __init__(self):
        self.driver = None
        self.live: list[int] = []   # every station's counter, slot by slot
        self.lte_live: list[int] = []   # every node's counter
        self.index: dict[int, int] = {}
        self.anchor = self.window_end = 0
        self.pending = None         # the last exchange: expected, redrawn
        self.drawn: dict[int, int] = {}     # node -> its counter as drawn
        self.decisions = 0
        self.exchanges = 0
        self.closes = 0
        self.tally = {"success": 0, "collided": 0}

    def patches(self, mp: pytest.MonkeyPatch) -> None:
        cls = ContentionDriver
        init, open_window = cls.__init__, cls.open_window
        close, finalize = cls.close_window, cls.finalize
        schedule, inline_firer = Simulator.schedule, Simulator.inline_firer
        duty_off, draw = LbtNode.start_duty_off, LbtNode.draw_backoff
        scan = self

        def patched_init(driver, *args, **kwargs):
            init(driver, *args, **kwargs)
            scan.driver = driver
            scan.live = [s.counter for s in driver.stations]
            scan.lte_live = [n.counter for n in driver.lbt_nodes]
            scan.index = {id(s): i for i, s in enumerate(driver.stations)}
            scan.index.update({id(n): j for j, n
                               in enumerate(driver.lbt_nodes)})

        def patched_open(driver, start_us, end_us):
            scan.anchor, scan.window_end = start_us, end_us
            open_window(driver, start_us, end_us)

        def exchange_starts(fn):
            scan.exchange()
            fn()

        def patched_schedule(sim, time_us, kind, target, fn=None):
            if kind == "slot-boundary":
                fn = partial(exchange_starts, fn)
            schedule(sim, time_us, kind, target, fn)

        def patched_inline_firer(sim, kind, target):
            fire = inline_firer(sim, kind, target)
            if kind != "slot-boundary":
                return fire

            def fire_start(time_us):
                fired = fire(time_us)
                if fired:
                    scan.exchange()
                return fired
            return fire_start

        def patched_close(driver, t_us):
            close(driver, t_us)
            scan.window_over()
            scan.closes += 1

        def patched_finalize(driver, t_end):
            scan.window_over()
            finalize(driver, t_end)

        def redraw(orig, collision):
            def patched(station):
                orig(station)
                scan.redrew("wifi", scan.index[id(station)], collision)
            return patched

        def patched_duty_off(node, *args):
            duty_off(node, *args)
            scan.redrew("lte", scan.index[id(node)], None)

        def patched_draw(node):
            draw(node)
            j = scan.index.get(id(node))
            if j is not None:   # a node's first draw comes before the driver
                scan.drawn[j] = node.counter

        mp.setattr(cls, "__init__", patched_init)
        mp.setattr(cls, "open_window", patched_open)
        mp.setattr(cls, "close_window", patched_close)
        mp.setattr(cls, "finalize", patched_finalize)
        mp.setattr(Simulator, "schedule", patched_schedule)
        mp.setattr(Simulator, "inline_firer", patched_inline_firer)
        mp.setattr(WifiStation, "on_success",
                   redraw(WifiStation.on_success, False))
        mp.setattr(WifiStation, "on_collision",
                   redraw(WifiStation.on_collision, True))
        mp.setattr(LbtNode, "start_duty_off", patched_duty_off)
        mp.setattr(LbtNode, "draw_backoff", patched_draw)

    def run_down(self, k: int) -> None:
        """k slots pass from the anchor: a node loses those after its
        lead."""
        slot_us = self.driver.timing.slot_us
        self.live = [c - k for c in self.live]
        for j, node in enumerate(self.driver.lbt_nodes):
            self.lte_live[j] -= max(0, k - _lead(node, self.anchor, slot_us))

    def agree(self) -> None:
        """The counts the driver leaves at the anchor are the shadow's."""
        driver = self.driver
        assert _left(driver, self.anchor) == (self.live, self.lte_live)
        assert sorted(driver._expiries) == sorted(driver._calendar)

    def decide(self):
        """The scan's decision at its anchor: (s_min, stations, nodes)
        holding the smallest effective backoff, or None."""
        self.settle()
        slot_us = self.driver.timing.slot_us
        lte_eff = [c + _lead(node, self.anchor, slot_us)
                   for c, node in zip(self.lte_live, self.driver.lbt_nodes)]
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
        """The driver starts an exchange now; the new anchor is its end."""
        driver = self.driver
        s_min, wifi_w, lte_w = self.decide()
        self.agree()
        now = driver.sim.now
        assert _medium(driver, "anchor") == self.anchor
        assert now == self.anchor + s_min * driver.timing.slot_us
        collision = len(wifi_w) + len(lte_w) > 1
        self.pending = ({"wifi": wifi_w, "lte": lte_w},
                        {"wifi": [], "lte": []}, collision)
        self.run_down(s_min + 1)
        self.anchor = now + self.duration(wifi_w, lte_w)
        self.exchanges += 1
        if collision:
            self.tally["collided"] += len(wifi_w)
        elif wifi_w:
            self.tally["success"] += 1

    def redrew(self, what: str, i: int, collision) -> None:
        """A winner redraws as the exchange ends: the clock and the
        driver's busy_until are the end the scan gave it."""
        assert self.pending is not None, f"{what} {i} redrew unbidden"
        driver = self.driver
        assert driver.sim.now == driver.busy_until == self.anchor
        _, redrawn, expected_collision = self.pending
        redrawn[what].append(i)
        if collision is not None:
            assert collision == expected_collision

    def settle(self) -> None:
        """The last exchange's winners, and only they, have redrawn; the
        shadow takes their fresh counters. A node's is the one it drew,
        seen at the draw, so the shadow never reads back a counter the
        driver holds."""
        if self.pending is not None:
            expected, redrawn, _ = self.pending
            assert redrawn == expected
            for i in expected["wifi"]:
                self.live[i] = self.driver.stations[i].counter
            for j in expected["lte"]:
                self.lte_live[j] = self.drawn.pop(j)
            self.pending = None

    def window_over(self) -> None:
        """The window is over. If no exchange reached its end, it ended
        idle: its decision, if any, falls past its end, or is frozen in
        the run's last window, and it took its idle slots, never more
        than s_min."""
        driver = self.driver
        self.settle()
        end = self.window_end
        if self.anchor < end:
            decision = self.decide()
            slot_us = driver.timing.slot_us
            k = (end - self.anchor) // slot_us
            if decision is not None:
                s_min, wifi_w, lte_w = decision
                tx = self.anchor + s_min * slot_us
                if tx < end:
                    assert end == driver.run_end_us
                    assert tx + self.duration(wifi_w, lte_w) > end
                k = min(k, s_min)
            self.run_down(k)
            self.anchor = end
        assert driver.phase_start == self.anchor
        self.agree()


def _cut_windows(mp, cfg, cut_us, cls=ContentionDriver) -> list[int]:
    """Cut a one-window run of the medium cls into windows of cut_us, as
    beacons cut a coordinated run: a beacon at each window's end,
    deferred to the end of an exchange that overruns it, checks the
    window is over and opens the next. Returns the beacon times, filled
    in as the run goes."""
    open_window = cls.open_window
    # a window ends at least one longest exchange before the run's end,
    # so an exchange that overruns it still ends inside the run
    durations = exchange_durations(cfg.timing, cfg.access_mode)
    longest = max(cfg.lbt.burst_us, durations.t_success_ticks,
                  durations.t_collision_ticks)
    cuts: list[int] = []

    def open_next(driver, start_us, end_us):
        next_end = start_us + cut_us
        if next_end + longest > end_us:
            open_window(driver, start_us, end_us)
            return
        # the beacon is queued first: the window may run inline past it
        driver.sim.schedule(next_end, "beacon", "cut",
                            partial(cut, driver, end_us))
        open_window(driver, start_us, next_end)

    def cut(driver, end_us):
        now = driver.sim.now
        if driver.busy_until > now:   # overrun: check when it ends
            driver.sim.schedule(driver.busy_until, "beacon", "cut",
                                partial(cut, driver, end_us))
            return
        cuts.append(now)
        driver.close_window(now)
        open_next(driver, now, end_us)

    mp.setattr(cls, "open_window", open_next)
    return cuts


def _scanned_run(cfg, seed, cut_us=None):
    scan = _Scan()
    cuts: list[int] = []
    with pytest.MonkeyPatch.context() as mp:
        scan.patches(mp)
        if cut_us is not None:
            cuts = _cut_windows(mp, cfg, cut_us)
        res = run_scenario(cfg, seed=seed)
    exchanges = res.metrics.success_events + res.metrics.collision_events
    assert scan.exchanges == exchanges
    assert scan.decisions >= exchanges
    assert scan.pending is None
    if cut_us is not None:
        assert scan.closes == len(cuts)
    return scan, res


@given(scheme=st.sampled_from(["wifi-only", "lbt", "hap-sa"]),
       n=st.integers(1, 60), m=st.integers(1, 8),
       slot_us=st.sampled_from([9, 20]), cw_min=st.integers(1, 32),
       cw_doublings=st.integers(0, 6), max_stage=st.integers(0, 7),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       window_us=st.one_of(st.none(), st.integers(50, 2_000)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_calendar_decides_as_a_scan_of_every_counter(
        scheme, n, m, slot_us, cw_min, cw_doublings, max_stage,
        duty_off_factor, window_us, seed):
    # With window_us a wifi-only or lbt run is cut into windows as
    # beacons cut a coordinated run, so it, too, ends windows idle and is
    # overrun; hap-sa is cut by its own beacons.
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
    _scanned_run(cfg, seed, cut_us=None if coordinated else window_us)


@given(n=st.integers(0, 12), m=st.integers(1, 6),
       slot_us=st.sampled_from([9, 20]), lbt_cw=st.integers(1, 32),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       window_us=st.one_of(st.none(), st.integers(50, 2_000)),
       seed=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_every_lte_counter_loses_the_slots_after_its_lead(
        n, m, slot_us, lbt_cw, duty_off_factor, window_us, seed):
    # The driver leaves sleeping nodes out of its calendar; the scan's
    # shadow of every node's counter, run down by the rule itself, must
    # still agree before every exchange and after every window. With
    # window_us the run is cut into windows that end at their end, or
    # after an exchange that overruns one, as beacons cut a coordinated
    # run.
    cfg = ScenarioConfig(
        scheme="lbt", n_wifi=n, m_lte=m, duration_s=0.1,
        timing=MacTiming(slot_us=slot_us), channel=NEAR,
        lbt=dataclasses.replace(ScenarioConfig().lbt,
                                contention_window=lbt_cw,
                                duty_off_factor=duty_off_factor))
    _scanned_run(cfg, seed, cut_us=window_us)


@pytest.mark.parametrize("scheme", ["wifi-only", "lbt", "hap-sa", "hap-uca"])
def test_each_count_is_kept_once_and_agrees_with_the_driver(scheme):
    # Stations count their own successes and collisions, and the Wi-Fi
    # bits are read from those counts; tally the exchanges the scan saw
    # the driver start beside them
    cfg = ScenarioConfig(scheme=scheme, n_wifi=6,
                         m_lte=0 if scheme == "wifi-only" else 3,
                         duration_s=1.0, channel=NEAR)
    scan, res = _scanned_run(cfg, seed=3)
    stations, tally = scan.driver.stations, scan.tally
    bits = cfg.timing.payload_bits
    successes = sum(st.success_count for st in stations)
    assert successes == tally["success"] > 0
    assert sum(st.collision_count for st in stations) \
        == tally["collided"] > 0
    if scheme != "lbt":   # no LTE-U burst is a contention success
        assert successes == res.metrics.success_events
    assert res.row.wifi_aggregate_bps == successes * bits / cfg.duration_s


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_every_window_is_booked_by_the_beacon_that_closes_it(scheme):
    # The medium keeps a window's airtime and counts in its own frame and
    # books them when the window ends, idle or overrun; by each beacon
    # the ledger must hold every microsecond before it, not only by the
    # run's end
    cfg = ScenarioConfig(scheme=scheme, n_wifi=5, m_lte=3, duration_s=0.5,
                         interval_us=20_000, channel=NEAR)
    close_window = ContentionDriver.close_window
    ends = {"idle": 0, "overrun": 0}

    def checked(driver, t_us):
        assert driver.metrics.accounted_us == t_us
        if t_us > driver.window_end:
            ends["overrun"] += 1
        elif t_us > 0:
            ends["idle"] += 1
        close_window(driver, t_us)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContentionDriver, "close_window", checked)
        run_scenario(cfg, seed=4)
    # both ways a window ends were checked
    assert ends["idle"] > 0 and ends["overrun"] > 0


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


def _run_with(medium, cfg, seed, cut_us=None):
    made = []

    def build(*args, **kwargs):
        made.append(medium(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "ContentionDriver", build)
        if cut_us is not None:
            _cut_windows(mp, cfg, cut_us, cls=medium)
        res = run_scenario(cfg, seed)
    (driver,) = made
    return driver, res


@given(cfg=_small_configs(), seed=st.integers(1, 1000),
       window_us=st.one_of(st.none(), st.integers(50, 2_000)))
@settings(max_examples=40, deadline=None)
def test_the_driver_runs_the_medium_as_a_slot_stepping_reference(
        cfg, seed, window_us):
    # With window_us a wifi-only or lbt run is cut into windows on both
    # media alike, as beacons cut a coordinated run
    if cfg.scheme in ("hap-sa", "hap-uca"):
        window_us = None
    # the counters left when the run ends, its last idle slots taken,
    # read as finalize begins: it frees the medium's frame, and V in it
    finalize = ContentionDriver.finalize
    left = []

    def keeping(driver, t_end):
        left.append(_left(driver, driver.phase_start))
        finalize(driver, t_end)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContentionDriver, "finalize", keeping)
        driver, res = _run_with(ContentionDriver, cfg, seed, window_us)
    ref, ref_res = _run_with(ReferenceMedium, cfg, seed, window_us)
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
    for name in ("lte_bits", "lte_airtime_us",
                 "success_events", "collision_events"):
        assert getattr(res.metrics, name) == getattr(ref_res.metrics, name)
    assert res.row.csv_values() == ref_res.row.csv_values()
    assert left == [(ref.wifi_left, ref.lte_left)]


def _driver(n_wifi=1, m_lte=0, run_end_us=1_000_000, wakes_us=(),
            counters=(), medium=ContentionDriver, **lbt):
    """A medium on the default timing, the driver unless medium says
    otherwise; node j wakes at wakes_us[j], and the stations and then
    the nodes start at counters, where given."""
    timing = MacTiming()
    sim = Simulator(root_seed=1)
    stations = [WifiStation(timing, sim.fork_rng(f"wifi-{i:02d}"))
                for i in range(n_wifi)]
    params = LbtParams(**lbt)
    nodes = [LbtNode(f"lte-{j:02d}", params,
                     LinkBudget(f"lte-{j:02d}", 10.0, 66.4, 100.0),
                     sim.fork_rng(f"lte-{j:02d}"),
                     params.duty_off_us(m_lte, n_wifi))
             for j in range(m_lte)]
    for node, wake_us in zip(nodes, wakes_us):
        node.wake_at_us = wake_us
    for entity, counter in zip(stations + nodes, counters):
        entity.counter = counter
    driver = medium(sim, timing, exchange_durations(timing), stations,
                    MetricsAccumulator(), run_end_us, nodes, NEAR)
    return sim, driver


def _file(driver, **slots):
    """File station i at absolute slot slots[f"s{i}"], in place."""
    driver._calendar.clear()
    for name, slot in slots.items():
        driver._calendar.setdefault(slot, []).append(int(name[1:]))
    driver._expiries[:] = sorted(driver._calendar)


def test_a_counter_past_zero_is_an_error():
    # a station filed below V, alone and beside an LTE-U node, and a node
    # whose counter went negative
    for m_lte in (0, 1):
        _, driver = _driver(m_lte=m_lte, cca_us=0)
        _file(driver, s0=-1)
        with pytest.raises(RuntimeError, match="past zero"):
            driver.open_window(0, 1_000)
    _, driver = _driver(m_lte=1, cca_us=0)
    driver.lbt_nodes[0].counter = -1
    with pytest.raises(RuntimeError, match="past zero"):
        driver.open_window(0, 1_000)


@pytest.mark.parametrize("other", [{"burst_us": 4_064}, {"cca_us": 34}],
                         ids=["burst", "cca"])
def test_lte_u_nodes_must_share_one_lbt_params(other):
    # the medium reads one burst length and one CCA per run, as
    # run_scenario builds every node from one config.lbt
    _, driver = _driver(m_lte=2)
    nodes = driver.lbt_nodes

    def rebuild():
        ContentionDriver(driver.sim, driver.timing, driver.durations, [],
                         MetricsAccumulator(), driver.run_end_us, nodes, NEAR)

    nodes[1].params = LbtParams()   # equal params built apart are one
    rebuild()
    nodes[1].params = LbtParams(**other)
    with pytest.raises(ValueError, match="share one LbtParams"):
        rebuild()


def test_an_idle_close_takes_from_a_walked_node_only_the_slots_after_its_lead():
    # The window (0, 100) has 11 idle slots, before the station's expiry
    # at slot 20. Node 0's CCA ends at 50 us (lead 6 slots), within them,
    # so it is filed at its effective backoff of 16 slots; node 1's ends
    # at 150 us (lead 17), past them, so it sleeps. The window closes
    # idle at 100 us, taking 11 slots: 5 from node 0, none from node 1.
    sim, driver = _driver(m_lte=2, wakes_us=(0, 100))
    early, late = driver.lbt_nodes
    assert driver.timing.slot_us == 9 and early.params.cca_us == 50
    _file(driver, s0=20)
    early.counter = late.counter = 10
    driver.open_window(0, 100)
    assert sim.run_until(100).processed == 0
    driver.close_window(100)
    assert _medium(driver, "vslot") == 11
    assert _left(driver, 100)[1] == [5, 10]


@pytest.mark.parametrize("medium", [ContentionDriver, ReferenceMedium],
                         ids=["driver", "reference"])
@pytest.mark.parametrize("wake_us,reopen_us", [(60, 1_000), (50, 100)],
                         ids=["past-the-end", "at-the-end"])
def test_a_node_due_past_the_windows_idle_slots_sleeps_through_its_close(
        medium, wake_us, reopen_us):
    # The window (0, 100) has 11 idle slots, the last starting at 99 us,
    # before the station's expiry at slot 20. The node's CCA ends past
    # them, at 110 us (a lead of 13 slots) or at the window's end (12),
    # so the window closes idle with the node asleep, its 3 slots intact.
    # Filed at its lead plus 3, it would keep 2 slots of lead (or 1) from
    # the close on; from the next window's anchor it has none.
    sim, driver = _driver(m_lte=1, wakes_us=(wake_us,), counters=(20, 3),
                          medium=medium)
    node = driver.lbt_nodes[0]
    slot = driver.timing.slot_us
    assert slot == 9 and node.params.cca_us == 50
    driver.open_window(0, 100)
    assert sim.run_until(100).processed == 0
    driver.close_window(100)
    left = (_left(driver, 100) if medium is ContentionDriver
            else (driver.wifi_left, driver.lte_left))
    assert left == ([9], [3])
    driver.open_window(reopen_us, reopen_us + 1_000)
    sim.run_until(reopen_us + 1_000)
    tx = reopen_us + 3 * slot
    assert driver.lte_intervals == [(tx, tx + node.params.burst_us)]
    assert driver.tx_intervals == []


# A node asleep past the run keeps the sleeper heap non-empty at every
# decision and changes no expected value, so the window tests run with
# no LTE-U node and with one asleep.
ASLEEP = {"m_lte": 1, "wakes_us": (10**9,)}
NO_NODE_OR_ASLEEP = pytest.mark.parametrize("lte", [{}, ASLEEP],
                                            ids=["no-node", "node-asleep"])


def test_with_nobody_to_contend_a_window_ends_idle_as_it_opens():
    # no station and no node: the window takes all its idle slots
    sim, driver = _driver(n_wifi=0)
    driver.open_window(0, 1_000)
    assert driver.phase_start == driver.window_end == 1_000
    assert driver.metrics.idle_us == 1_000
    assert _medium(driver, "vslot") == 1_000 // driver.timing.slot_us
    assert sim.run_until(1_000).processed == 0
    driver.close_window(1_000)
    assert driver.tx_intervals == [] and driver.busy_until == 0


@pytest.mark.parametrize("lte", [{}, ASLEEP, {"m_lte": 1}],
                         ids=["no-node", "node-asleep", "node-bursting"])
def test_finalize_ends_the_medium_process_and_frees_the_driver(lte):
    # the process's frame holds the driver; finalize closes it, so a run
    # frees its driver and busy-period lists without waiting for a full
    # collection
    sim, driver = _driver(**lte)
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


def _one_station_driver(lte, run_end_us=1_000_000):
    sim, driver = _driver(run_end_us=run_end_us, **lte)
    return sim, driver.stations[0], driver


@NO_NODE_OR_ASLEEP
def test_a_window_closes_only_at_its_end(lte):
    # the first decision falls at the window's end, so the window ends
    # idle as it opens; a beacon's check passes only from its end on
    sim, station, driver = _one_station_driver(lte)
    counter = station.counter
    end = counter * driver.timing.slot_us
    assert end > 0
    driver.open_window(0, end)
    assert driver.phase_start == driver.window_end == end
    assert driver.metrics.idle_us == end
    assert _medium(driver, "vslot") == counter
    with pytest.raises(RuntimeError, match="not over"):
        driver.close_window(end - 1)
    assert sim.run_until(end).processed == 0
    driver.close_window(end)
    driver.close_window(end)   # a check: it changes nothing
    assert driver.metrics.idle_us == end
    assert _medium(driver, "vslot") == counter
    # all idle slots consumed: the next window starts with the exchange
    driver.open_window(end, 2 * end)
    sim.run_until(end)
    assert driver.tx_intervals == [(end, driver.busy_until)]


@NO_NODE_OR_ASLEEP
def test_a_close_before_a_queued_decision_fires_is_an_error(lte):
    # the decision at tx is queued; a beacon's check at the window's end
    # before the engine reaches tx finds the window open and changes
    # nothing: the decision still starts its exchange when it fires
    sim, station, driver = _one_station_driver(lte)
    tx = station.counter * driver.timing.slot_us
    driver.open_window(0, tx + 100)
    with pytest.raises(RuntimeError, match="not over"):
        driver.close_window(tx + 100)
    assert driver.busy_until == 0 and driver.tx_intervals == []
    assert driver.phase_start == 0 and driver.metrics.idle_us == 0
    sim.run_until(tx + 100)
    assert driver.tx_intervals == [(tx, driver.busy_until)]
    with pytest.raises(RuntimeError, match="busy medium"):
        driver.close_window(tx + 100)


@NO_NODE_OR_ASLEEP
def test_a_window_that_forbids_overrun_ends_with_the_run(lte):
    # the run's last window ends idle at the run's end by itself: a
    # check there passes, and finalize books nothing more
    sim, _, driver = _one_station_driver(lte)
    driver.open_window(0, 1_000_000)
    sim.run_until(1_000_000)
    assert driver.phase_start == driver.window_end == 1_000_000
    idle = driver.metrics.idle_us
    driver.close_window(1_000_000)
    driver.finalize(1_000_000)
    assert driver.metrics.idle_us == idle
    driver.metrics.assert_ledger(1_000_000)


@NO_NODE_OR_ASLEEP
def test_only_the_runs_last_window_freezes_an_exchange_past_its_end(lte):
    _, station, _ = _one_station_driver(lte)
    slot = MacTiming().slot_us
    counter = station.counter
    tx = counter * slot          # the first decision
    end = tx + 3 * slot          # falls inside its exchange

    # a window that ends before the run's end is overrun
    sim, _, driver = _one_station_driver(lte)
    driver.open_window(0, end)
    sim.run_until(end)
    assert driver.tx_intervals == [(tx, driver.busy_until)]
    assert driver.busy_until > end

    # the window that ends at the run's end leaves the decision frozen;
    # it ends idle and takes s_min slots, not all three past it
    sim, _, driver = _one_station_driver(lte, run_end_us=end)
    with pytest.raises(ValueError, match="end by the run's end"):
        driver.open_window(0, end + 1)
    driver.open_window(0, end)
    assert sim.run_until(end).processed == 0
    assert _medium(driver, "vslot") == counter
    driver.finalize(end)
    assert driver.tx_intervals == [] and driver.busy_until == 0
    assert driver.metrics.idle_us == end
    assert driver.phase_start == driver.window_end


def test_busy_periods_read_as_a_list_of_pairs():
    pairs = [(40, 90), (0, 25), (40, 60)]
    periods = BusyPeriods(pairs)
    assert len(periods) == 3 and len(periods.flat) == 6
    assert list(periods.flat) == [40, 90, 0, 25, 40, 60]
    assert list(periods) == pairs
    assert all(type(t) is int for pair in periods for t in pair)
    assert sorted(periods) == sorted(pairs)
    # equal to the same pairs in either operand order, as lists or tuples
    assert periods == pairs and pairs == periods
    assert periods == [list(p) for p in pairs] and tuple(pairs) == periods
    assert periods == BusyPeriods(pairs) and BusyPeriods(periods) == periods
    assert not periods != pairs
    # a pair more, a pair less, another pair or no pairs are unequal
    assert periods != pairs + [(90, 95)] and pairs[:2] != periods
    assert periods != [(40, 90), (0, 25), (40, 61)]
    assert periods != 3 and BusyPeriods() != periods
    assert BusyPeriods() == [] and [] == BusyPeriods()


def test_busy_periods_append_one_pair_at_a_time():
    periods = BusyPeriods()
    assert len(periods) == 0 and list(periods) == []
    periods.append((5, 12))
    assert len(periods) == 1 and periods == [(5, 12)]
    periods.append([12, 20])
    assert periods == [(5, 12), (12, 20)]
    with pytest.raises(ValueError):
        periods.append((1, 2, 3))
    assert periods == [(5, 12), (12, 20)]


@pytest.mark.parametrize("scheme", ["lbt", "hap-sa"])
def test_a_run_keeps_its_busy_periods_flat(scheme):
    res = run_scenario(ScenarioConfig(scheme=scheme, n_wifi=5, m_lte=2,
                                      duration_s=0.1, channel=NEAR), seed=3)
    for periods in (res.wifi_tx_intervals, res.lte_tx_intervals):
        assert type(periods) is BusyPeriods and len(periods) > 0
        assert all(s < e for s, e in periods)
    if res.signalling is not None:      # a hap run's LTE-U periods: grants
        assert res.lte_tx_intervals == [(g.start_us, g.end_us)
                                        for g in res.signalling.grants]
