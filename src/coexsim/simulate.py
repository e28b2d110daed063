"""Scheme wiring: build the entities for one scenario seed and run it.

One call of ``run_scenario`` owns a Simulator, a metrics ledger, the
station/node populations, and (for the coordinated schemes) the beacon
and grant machinery. It returns both the flat result row used for CSV
emission and the raw artifacts (busy intervals, signalling trace, event
trace hash) that the invariant checks inspect.

The coordinator queues only the next beacon, never the run's later
ones. A beacon plans its contention-free period (CFP) and, since Wi-Fi
is silent until the CFP ends, fires the period's subframe ticks, TXOP
ends and CFP end itself, in one pass in queue order, up to the engine's
horizon (``Simulator.lookahead``): a tick costs the machine's step and
its tick handler, and no queue entry. It queues, as
``functools.partial`` callbacks, only the sleep ticks that outlast the
period and whatever an earlier queued event or the end of
``run_until`` cuts off. So the event heap a contention exchange pushes
into holds about one entry, whatever the run's length or the CFP's.

A coordinated user's LTE data depends only on its grants and its own
fading stream, and nothing in the run reads it, so ``run_scenario``
delivers it after the run: one ``hap.cfp_transmit`` call per user over
that user's grants, which draws all of its gains at once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial

from .analytics import MetricsAccumulator
from .contention import BusyPeriods, ContentionDriver
from .dcf import WifiStation, exchange_durations
from .engine import KIND_RANK, Simulator
from .hap import build_superframe, cfp_transmit
from .lbt import LbtNode
from .radio import (FRAME_HEADER_US, FRAME_SUBFRAMES, SUBFRAME_US,
                    link_budget, place_users)
from .scenario import ScenarioConfig
from .signalling import (SaDrxFsm, SaDtxFsm, SignallingTrace, UcaFsm,
                         fsm_step)


_TXOP_END = KIND_RANK["txop-end"]
_CFP_END = KIND_RANK["cfp-end"]
_TIMER = KIND_RANK["timer"]


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
    resting machine through its ``BEACON_PATH``, plans the next
    contention-free period around the machines still inside a duty
    cycle, and hands the rest of the interval back to the contention
    driver.

    The plan fixes every event of the period at the beacon: each
    standalone grant's ``data-request`` and its ten subframe ticks, each
    grant's ``txop-end`` and the period's ``cfp-end``. Wi-Fi is silent
    until ``cfp-end``, so the beacon fires them itself, in one pass in
    queue order, up to the engine's horizon (``Simulator.lookahead``):
    every tick steps its machine, and ``cfp-end`` opens the contention
    period last. It queues, as ``functools.partial`` callbacks, only
    what the queue must order: an event at or past the horizon, which an
    event queued earlier (a tick of an earlier period) or the end of
    ``run_until`` cuts off, with everything after it, and the sleep
    ticks that outlast the period, queued before ``cfp-end`` opens the
    medium. It records each grant in
    the signalling trace, from which ``run_scenario`` delivers the
    grants' data after the run. ``fsm_step`` and ``build_superframe``
    are looked up in this module as the run goes, so a name patched here
    (coexbench's tracer patches both) takes effect from the next beacon
    on.
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

        self.fsms = {}
        for i, uid in enumerate(user_ids):
            if cfg.sa_mode == "uca":
                self.fsms[uid] = UcaFsm(uid, trace)
            elif i % 2:
                self.fsms[uid] = SaDtxFsm(uid, trace)
            else:
                self.fsms[uid] = SaDrxFsm(uid, trace)
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
        for fsm in self.fsms.values():
            for event in fsm.BEACON_PATH.get(fsm.state, ()):
                fsm_step(fsm, event, now)

        plan = build_superframe(
            len(self.fsms), self.cfg.n_wifi, self.cfg.interval_us,
            self.cfg.sa_mode, beacon_us=self.cfg.beacon_us, start_us=now,
            rotation=self.rotation, user_ids=list(self.fsms),
            busy={uid for uid, fsm in self.fsms.items()
                  if not fsm.schedulable})
        self.rotation = plan.next_rotation
        cfp_end = beacon_end + plan.cfp_us
        next_tbtt = (k + 1) * self.cfg.interval_us
        if cfp_end > next_tbtt:
            raise RuntimeError("CFP ran into the next beacon")
        if next_tbtt < self.driver.run_end_us:
            self.sim.schedule(next_tbtt, "beacon", "hap",
                              partial(self._on_beacon, k + 1))
        self.metrics.cfp_us += plan.cfp_us
        if plan.grants:
            self.cfp_intervals.append((beacon_end, cfp_end))
        self._fire_cfp(plan.grants, cfp_end, next_tbtt)

    def _fire_cfp(self, grants, cfp_end: int, next_tbtt: int) -> None:
        """Fire the period's events in queue order, queueing the rest.

        Each event is (time, rank, seq, line suffix, machine or user),
        numbered in the order the queue would have been handed them, so
        sorting the tuples sorts them as the queue would: by (time,
        rank), then seq. The pass fires a prefix of that order, the
        events before the horizon up to ``cfp-end``, and queues the rest
        in the same order: each takes a later engine seq than anything
        queued before it, so the queue orders it as before.
        """
        step = fsm_step
        fsms, trace = self.fsms, self.trace
        events = []
        for grant in grants:
            uid = grant.user_id
            n = grant.n_subframes
            if n is not None:       # a standalone grant starts a duty cycle
                fsm = fsms[uid]
                step(fsm, "data-request", grant.start_us, n=n)
                tick = f" timer {uid}\n"
                tick_us = grant.start_us + FRAME_HEADER_US
                for _ in range(FRAME_SUBFRAMES):
                    # n active ticks inside the grant, 10-n sleep ticks after
                    tick_us += SUBFRAME_US
                    events.append((tick_us, _TIMER, len(events), tick, fsm))
            trace.grants.append(grant)
            # a marker with no work: it stays in the trace so every hash holds
            events.append((grant.start_us + grant.duration_us, _TXOP_END,
                           len(events), f" txop-end {uid}\n", uid))
        events.append((cfp_end, _CFP_END, len(events), " cfp-end hap\n",
                       None))
        events.sort()

        horizon, log = self.sim.lookahead()
        # the pass stops at the horizon, and after cfp-end in any case
        fired = bisect_left(events, min(horizon, (cfp_end, _CFP_END + 1)))
        if fired < len(events):
            self._queue(events[fired:], step, next_tbtt)
        if not fired:
            return
        lines = []
        for time, rank, _, suffix, item in events[:fired]:
            lines.append(f"{time}{suffix}")
            if rank == _TIMER:
                step(item, "subframe-tick", time)
        # ticks read no clock; cfp-end reads the logged one
        log(lines, events[fired - 1][0])
        if events[fired - 1][1] == _CFP_END:
            self._open_cp(next_tbtt)

    def _queue(self, events, step, next_tbtt: int) -> None:
        schedule = self.sim.schedule
        for time, rank, _, _, item in events:
            if rank == _TIMER:
                schedule(time, "timer", item.ue_id,
                         partial(step, item, "subframe-tick", time))
            elif rank == _TXOP_END:
                schedule(time, "txop-end", item)
            else:
                schedule(time, "cfp-end", "hap",
                         partial(self._open_cp, next_tbtt))

    def _open_cp(self, next_tbtt: int) -> None:
        now = self.sim.now
        if now < next_tbtt:
            self.driver.open_window(now, next_tbtt)


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
    lte_tx = (BusyPeriods([(g.start_us, g.end_us) for g in trace.grants])
              if trace is not None else driver.lte_intervals)
    return RunResult(
        row=row, metrics=metrics, trace_hash=summary.trace_hash,
        wifi_tx_intervals=driver.tx_intervals, lte_tx_intervals=lte_tx,
        cfp_intervals=hap.cfp_intervals if hap else [],
        beacon_intervals=hap.beacon_intervals if hap else [],
        signalling=trace)
