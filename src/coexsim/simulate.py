"""Scheme wiring: build the entities for one scenario seed and run it.

One call of ``run_scenario`` owns a Simulator, a metrics ledger, the
station/node populations, and (for the coordinated schemes) the beacon
and grant machinery, ``_HapRun``. It returns both the flat result row
used for CSV emission and the raw artifacts (busy intervals, signalling
trace, event trace hash) that the invariant checks inspect.

A coordinated user's LTE data depends only on its grants and its own
fading stream, and nothing in the run reads it, so ``run_scenario``
delivers it after the run: one ``hap.cfp_transmit`` call per user over
that user's grants, which draws all of its gains at once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from operator import itemgetter

from .analytics import MetricsAccumulator
from .contention import BusyPeriods, ContentionDriver
from .dcf import WifiStation, exchange_durations
from .engine import KIND_RANK, Simulator
from .hap import TxopGrant, build_superframe, cfp_transmit
from .lbt import LbtNode
from .radio import (FRAME_HEADER_US, FRAME_SUBFRAMES, SUBFRAME_US,
                    link_budget, place_users)
from .scenario import ScenarioConfig
from .signalling import (GRANTABLE_STATES, ProtocolViolation, SaDrxFsm,
                         SaDtxFsm, SignallingTrace, TransitionRecord,
                         UcaFsm, fsm_step, table_walk)


_TXOP_END = KIND_RANK["txop-end"]
_CFP_END = KIND_RANK["cfp-end"]
_TIMER = KIND_RANK["timer"]
# a duty cycle: its data-request, then one tick per subframe of the frame
_CYCLE_EVENTS = ("data-request",) + ("subframe-tick",) * FRAME_SUBFRAMES


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; the field order is the column order."""

    scheme: str
    n_wifi: int
    m_lte: int
    seed: int
    per_user_wifi_throughput_bps: float
    wifi_aggregate_bps: float
    lte_aggregate_bps: float
    total_bps: float
    collision_rate: float
    airtime_idle_frac: float
    airtime_success_frac: float
    airtime_collision_frac: float
    airtime_cfp_frac: float
    airtime_beacon_frac: float

    def csv_values(self) -> list[str]:
        out = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            out.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        return out


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class RunResult:
    row: ResultRow
    metrics: MetricsAccumulator
    trace_hash: str
    wifi_tx_intervals: BusyPeriods
    lte_tx_intervals: BusyPeriods
    cfp_intervals: list[tuple[int, int]]
    beacon_intervals: list[tuple[int, int]]
    signalling: SignallingTrace | None


class _HapRun:
    """Beacon-anchored coordinator for one run of a hap-* scheme.

    Keeps one beacon queued at a time: beacon 0 at the start, and each
    beacon, once it fires, queues the next at its nominal interval
    boundary, so the event queue never carries the rest of the run's
    beacons. A beacon that lands inside a still-running contention
    exchange is deferred to the busy boundary (the contention period
    shrinks by the same amount, so the interval grid stays fixed); the
    config bounds that deferral below one exchange, so a deferred beacon
    still fires before the next boundary. Each beacon checks that the
    medium is idle and has ended its contention window, walks every
    resting machine through its ``BEACON_PATH``, applying the walk the
    run derived for its state and appending a record per step, plans the
    next contention-free period around the machines still inside a duty
    cycle, and hands the rest of the interval back to the contention
    driver.

    The plan fixes every event of the period at the beacon: each
    standalone grant's ``data-request`` and its ten subframe ticks, each
    grant's ``txop-end`` and the period's ``cfp-end``. Wi-Fi is silent
    until ``cfp-end``, so the beacon fires them itself, in one pass in
    queue order, up to the engine's horizon (``Simulator.lookahead``).
    It queues only what the queue must order: an event at or past the
    horizon, which an event queued earlier (a tick of an earlier period)
    or the end of ``run_until`` cuts off, with everything after it, and
    the sleep ticks that outlast the period, queued before ``cfp-end``
    opens the medium. Fired in the pass or from the queue, an event's
    work is done by one method, ``_do_events``: a tick applies its step
    of the cycle's walk, derived once per run and n from the machine's
    ``TABLE``, and raises ``ProtocolViolation`` if its machine is not in
    the state the step expects; ``cfp-end`` opens the contention period.
    So no tick steps through the table, and the event heap a contention
    exchange pushes into holds about one entry, whatever the run's
    length or the CFP's. It records each grant in the signalling trace,
    from which ``run_scenario`` delivers the grants' data after the run.

    A period depends on the beacon's time only by a shift: the rest of
    its plan is fixed by the busy set and the rotation cursor. So the run
    keeps, in ``periods``, the first period it plans for each (busy set,
    rotation): its beacon time, grants, CFP length, next rotation and
    sorted events. A later beacon with the same key shifts the grants and
    events by the distance between the two beacons and plans nothing;
    every beacon still runs its grants' ``data-request``s, checks its
    ticks, records its grants and checks that its CFP ends before the
    next beacon. ``fsm_step`` and ``build_superframe`` are looked up in
    this module as the run goes, so a name patched here (coexbench's
    tracer patches both) takes effect from the next beacon on for
    ``fsm_step``, and from the next beacon that plans a period, one whose
    key is new to the run, for ``build_superframe``.
    """

    def __init__(self, sim: Simulator, cfg: ScenarioConfig,
                 driver: ContentionDriver, metrics: MetricsAccumulator,
                 user_ids: list[str], trace: SignallingTrace):
        self.sim = sim
        self.cfg = cfg
        self.driver = driver
        self.metrics = metrics
        self.trace = trace
        self.rotation = 0
        self.cfp_intervals: list[tuple[int, int]] = []
        self.beacon_intervals: list[tuple[int, int]] = []

        # aggregation users, or standalone users alternating downlink
        # and uplink
        classes = (UcaFsm,) if cfg.sa_mode == "uca" else (SaDrxFsm, SaDtxFsm)
        self.fsms = {uid: classes[i % len(classes)](uid, trace)
                     for i, uid in enumerate(user_ids)}
        # walks are derived from the tables for each run, so a table
        # entry replaced between runs takes effect from the next one:
        # each class's beacon walks, by resting state
        paths = {cls: {resting: table_walk(cls, resting, events)
                       for resting, events in cls.BEACON_PATH.items()}
                 for cls in classes}
        # each machine with its class's beacon walks
        self.machines = [(uid, fsm, paths[type(fsm)])
                         for uid, fsm in self.fsms.items()]
        self.cycles: dict = {}      # (class, n) -> the cycle's tick steps
        # (busy set, rotation) -> the first period planned for it, as
        # _plan returns it
        self.periods: dict = {}
        if cfg.sa_mode == "uca" and user_ids:
            # licensed-band association settles before the first beacon
            sim.schedule(0, "timer", "hap-assoc", self._associate_uca)
        sim.schedule(0, "beacon", "hap", partial(self._on_beacon, 0))

    def _associate_uca(self) -> None:
        for fsm in self.fsms.values():
            for event in ("assoc-request", "ul-grant", "identity", "rrc"):
                fsm_step(fsm, event, 0)

    def _on_beacon(self, k: int) -> None:
        now = self.sim.now
        if self.driver.busy_until > now:
            self.sim.schedule(self.driver.busy_until, "beacon", "hap",
                              partial(self._on_beacon, k))
            return
        self.driver.close_window(now)
        beacon_end = now + self.cfg.beacon_us
        self.metrics.beacon_us += self.cfg.beacon_us
        self.beacon_intervals.append((now, beacon_end))
        append, new = self.trace.transitions.append, tuple.__new__
        busy = set()
        for uid, fsm, paths in self.machines:
            state = fsm.state
            walk = paths.get(state)
            if walk is not None:
                for before, event, state in walk:
                    append(new(TransitionRecord,
                               (now, uid, before, event, state, None)))
                fsm.state = state
            if state not in GRANTABLE_STATES:
                busy.add(uid)

        key = frozenset(busy), self.rotation
        period = self.periods.get(key)
        if period is None:
            period = self.periods[key] = self._plan(now, busy)
        base, grants, cfp_us, self.rotation, events = period
        shift = now - base
        if shift:
            # the period an earlier beacon planned, moved to this one: a
            # shift moves no duration and no n, so each grant's checks
            # hold and TxopGrant.__new__ need not run them again
            grants = [new(TxopGrant, (uid, start + shift, duration, n))
                      for uid, start, duration, n in grants]
            events = [(time + shift, rank, suffix, item, move)
                      for time, rank, suffix, item, move in events]
        cfp_end = beacon_end + cfp_us
        next_tbtt = (k + 1) * self.cfg.interval_us
        if cfp_end > next_tbtt:
            raise RuntimeError("CFP ran into the next beacon")
        if next_tbtt < self.driver.run_end_us:
            self.sim.schedule(next_tbtt, "beacon", "hap",
                              partial(self._on_beacon, k + 1))
        self.metrics.cfp_us += cfp_us
        if grants:
            self.cfp_intervals.append((beacon_end, cfp_end))
        self._fire_cfp(grants, events, cfp_end, next_tbtt)

    def _plan(self, now: int, busy: set) -> tuple:
        """Plan the period a beacon at ``now`` opens.

        Returns (now, grants, CFP length, next rotation, events). Each
        event is (time, rank, line suffix, machine or user, walk step),
        appended in the order the queue would have been handed them, and
        sorted stably on (time, rank), so ties keep that order as the
        queue's seq would. A tick's walk step is (state before, state
        after).
        """
        cfg, fsms, cycles = self.cfg, self.fsms, self.cycles
        plan = build_superframe(
            len(fsms), cfg.n_wifi, cfg.interval_us, cfg.sa_mode,
            beacon_us=cfg.beacon_us, start_us=now, rotation=self.rotation,
            user_ids=list(fsms), busy=busy)
        events = []
        for uid, start, duration, n in plan.grants:
            if n is not None:       # a standalone grant starts a duty cycle
                fsm = fsms[uid]
                cls = type(fsm)
                walk = cycles.get((cls, n))
                if walk is None:
                    # the ten ticks after the data-request, each as
                    # (state before, state after)
                    walk = cycles[cls, n] = tuple([
                        (before, after) for before, _, after in table_walk(
                            cls, cls.RESUME_STATE, _CYCLE_EVENTS, n)[1:]])
                tick = f" timer {uid}\n"
                tick_us = start + FRAME_HEADER_US
                # n active ticks inside the grant, 10-n sleep ticks after
                for move in walk:
                    tick_us += SUBFRAME_US
                    events.append((tick_us, _TIMER, tick, fsm, move))
            # a marker with no work: it stays in the trace so every hash holds
            events.append((start + duration, _TXOP_END,
                           f" txop-end {uid}\n", uid, None))
        events.append((now + cfg.beacon_us + plan.cfp_us, _CFP_END,
                       " cfp-end hap\n", None, None))
        events.sort(key=itemgetter(0, 1))
        return now, plan.grants, plan.cfp_us, plan.next_rotation, events

    def _fire_cfp(self, grants, events, cfp_end: int,
                  next_tbtt: int) -> None:
        """Start the grants' duty cycles and fire the period's events in
        queue order, queueing the rest.

        The pass fires a prefix of ``events``, those before the horizon
        up to ``cfp-end``. The rest are queued first, in the same order:
        each takes a later engine seq than anything queued before it, so
        the queue orders it as before.
        """
        step, fsms, trace = fsm_step, self.fsms, self.trace
        for uid, start, _, n in grants:
            if n is not None:
                step(fsms[uid], "data-request", start, n=n)
        trace.grants += grants

        horizon, log = self.sim.lookahead()
        # the pass stops at the horizon, and after cfp-end in any case
        fired = bisect_left(events, min(horizon, (cfp_end, _CFP_END + 1)))
        schedule, do = self.sim.schedule, self._do_events
        for event in events[fired:]:
            # the line the pass would log: " kind target\n"
            kind, target = event[2].split()
            schedule(event[0], kind, target,
                     partial(do, (event,), None, next_tbtt))
        if fired:
            do(events[:fired], log, next_tbtt)

    def _do_events(self, events, log, next_tbtt: int) -> None:
        """Do the work of ``events``, period events in queue order, and
        log their lines with ``log``, or with None for a queued event,
        whose line the queue logged. A tick checks that its machine is
        where its walk step expects it and applies the step; ``cfp-end``
        opens the contention period once its line is logged."""
        lines = []
        append, new = self.trace.transitions.append, tuple.__new__
        for time, rank, suffix, fsm, move in events:
            lines.append(f"{time}{suffix}")
            if rank == _TIMER:
                before, after = move
                if fsm.state != before:
                    raise ProtocolViolation(fsm.KIND, fsm.ue_id, fsm.state,
                                            "subframe-tick")
                fsm.state = after
                append(new(TransitionRecord, (time, fsm.ue_id, before,
                                              "subframe-tick", after, None)))
        if log is not None:
            # moves the clock to the last event's time, which open_window
            # schedules from; ticks read no clock
            log(lines, time)
        if rank == _CFP_END and time < next_tbtt:
            self.driver.open_window(time, next_tbtt)


def run_scenario(config: ScenarioConfig, seed: int) -> RunResult:
    """Simulate one seed of one scenario and account every microsecond."""
    sim = Simulator(root_seed=seed, hash_trace=True)
    timing = config.timing
    durations = exchange_durations(timing, config.access_mode)
    metrics = MetricsAccumulator()
    t_end = config.duration_us

    stations = [WifiStation(timing, sim.fork_rng(f"wifi-{i:02d}"))
                for i in range(config.n_wifi)]

    links: dict = {}
    user_ids: list[str] = []
    if config.m_lte > 0:
        placement_rng = sim.fork_rng("placement")
        positions = place_users(config.m_lte, config.radius_m, placement_rng)
        user_ids = [p.node_id for p in positions]
        links = {p.node_id: link_budget(p, config.channel)
                 for p in positions}

    user_rngs = {uid: sim.fork_rng(uid) for uid in user_ids}
    duty_off_us = config.lbt.duty_off_us(config.m_lte, config.n_wifi)
    nodes = ([LbtNode(uid, config.lbt, links[uid], user_rngs[uid],
                      duty_off_us)
              for uid in user_ids] if config.scheme == "lbt" else [])
    driver = ContentionDriver(sim, timing, durations, stations, metrics,
                              t_end, nodes, config.channel)
    hap: _HapRun | None = None
    trace: SignallingTrace | None = None
    if config.scheme in ("hap-sa", "hap-uca"):
        trace = SignallingTrace()
        hap = _HapRun(sim, config, driver, metrics, user_ids, trace)
    else:
        driver.open_window(0, t_end)

    summary = sim.run_until(t_end)
    driver.finalize(t_end)
    metrics.assert_ledger(t_end)
    if trace is not None:
        # every grant ends by t_end: a CFP never overruns its interval,
        # and the run is a whole number of intervals
        by_user: dict[str, list] = {}
        for grant in trace.grants:
            by_user.setdefault(grant.user_id, []).append(grant)
        for uid, grants in by_user.items():
            metrics.add_lte_bits(uid, cfp_transmit(
                grants, links[uid].mean_snr, user_rngs[uid], config.channel))
            metrics.add_lte_airtime(uid, sum([g.duration_us
                                              for g in grants]))

    dur_s = t_end / 1e6
    wifi_agg = (sum(st.success_count for st in stations)
                * timing.payload_bits / dur_s)
    lte_agg = sum(metrics.lte_bits.values()) / dur_s
    events = metrics.success_events + metrics.collision_events
    row = ResultRow(
        scheme=config.scheme, n_wifi=config.n_wifi, m_lte=config.m_lte,
        seed=seed,
        per_user_wifi_throughput_bps=(wifi_agg / config.n_wifi
                                      if config.n_wifi else 0.0),
        wifi_aggregate_bps=wifi_agg,
        lte_aggregate_bps=lte_agg,
        total_bps=wifi_agg + lte_agg,
        collision_rate=(metrics.collision_events / events if events else 0.0),
        airtime_idle_frac=metrics.idle_us / t_end,
        airtime_success_frac=metrics.success_us / t_end,
        airtime_collision_frac=metrics.collision_us / t_end,
        airtime_cfp_frac=metrics.cfp_us / t_end,
        airtime_beacon_frac=metrics.beacon_us / t_end,
    )
    lte_tx = (BusyPeriods([(start, start + duration)
                           for _, start, duration, _ in trace.grants])
              if trace is not None else driver.lte_intervals)
    return RunResult(
        row=row, metrics=metrics, trace_hash=summary.trace_hash,
        wifi_tx_intervals=driver.tx_intervals, lte_tx_intervals=lte_tx,
        cfp_intervals=hap.cfp_intervals if hap else [],
        beacon_intervals=hap.beacon_intervals if hap else [],
        signalling=trace)
