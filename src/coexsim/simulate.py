"""Scheme wiring: build the entities for one scenario seed and run it.

One call of ``run_scenario`` owns a Simulator, a metrics ledger, the
station/node populations, and (for the coordinated schemes) the beacon
and grant machinery. It returns both the flat result row used for CSV
emission and the raw artifacts (busy intervals, signalling trace, event
trace hash) that the invariant checks inspect.

The coordinator queues its callbacks (beacons, subframe ticks, CFP and
TXOP ends) as ``functools.partial`` objects built during the run; a
subframe tick is ``fsm_step`` bound to its machine and time, so a tick
costs the step and no wrapper frame of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

from .analytics import MetricsAccumulator
from .contention import ContentionDriver
from .dcf import WifiStation, exchange_durations
from .engine import Simulator
from .hap import build_superframe, cfp_transmit
from .lbt import LbtNode
from .radio import (FRAME_HEADER_US, FRAME_SUBFRAMES, SUBFRAME_US,
                    link_budget, place_users)
from .scenario import ScenarioConfig
from .signalling import (SaDrxFsm, SaDtxFsm, SignallingTrace, UcaFsm,
                         fsm_step)


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
    wifi_tx_intervals: list[tuple[int, int]]
    lte_tx_intervals: list[tuple[int, int]]
    cfp_intervals: list[tuple[int, int]]
    beacon_intervals: list[tuple[int, int]]
    signalling: SignallingTrace | None


class _HapRun:
    """Beacon-anchored coordinator for one run of a hap-* scheme.

    Pre-schedules a beacon per nominal interval boundary; a beacon that
    lands inside a still-running contention exchange is deferred to the
    busy boundary (the contention period shrinks by the same amount, so
    the interval grid stays fixed). Each beacon closes the medium, walks
    every resting machine through its ``BEACON_PATH``, plans the next
    contention-free period around the machines still inside a duty
    cycle, and hands the rest of the interval back to the contention
    driver.

    Every callback it queues is a ``functools.partial`` built while the
    run is under way, so it binds the ``fsm_step`` this module holds at
    that moment. A subframe tick is ``fsm_step`` itself, bound to its
    machine, event and time; the time equals the clock when it fires.
    """

    def __init__(self, sim: Simulator, cfg: ScenarioConfig,
                 driver: ContentionDriver, metrics: MetricsAccumulator,
                 user_ids: list[str], links: dict, user_rngs: dict,
                 trace: SignallingTrace):
        self.sim = sim
        self.cfg = cfg
        self.driver = driver
        self.metrics = metrics
        self.links = links
        self.user_rngs = user_rngs
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
        for k in range(cfg.duration_us // cfg.interval_us):
            sim.schedule(k * cfg.interval_us, "beacon", "hap",
                         partial(self._on_beacon, k))

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
        self.metrics.cfp_us += plan.cfp_us
        if plan.grants:
            self.cfp_intervals.append((beacon_end, cfp_end))
        for grant in plan.grants:
            self._issue_grant(grant)
        self.sim.schedule(cfp_end, "cfp-end", "hap",
                          partial(self._open_cp, next_tbtt))

    def _issue_grant(self, grant) -> None:
        uid = grant.user_id
        n = grant.n_subframes
        if n is not None:       # a standalone grant starts a duty cycle
            fsm = self.fsms[uid]
            fsm_step(fsm, "data-request", grant.start_us, n=n)
            schedule = self.sim.schedule
            tick_us = grant.start_us + FRAME_HEADER_US
            for _ in range(FRAME_SUBFRAMES):
                # n active ticks inside the grant, 10-n sleep ticks after
                tick_us += SUBFRAME_US
                schedule(tick_us, "timer", uid,
                         partial(fsm_step, fsm, "subframe-tick", tick_us))
        self.trace.grants.append(grant)
        self.sim.schedule(grant.end_us, "txop-end", uid,
                          partial(self._deliver, grant))

    def _deliver(self, grant) -> None:
        bits = cfp_transmit(grant, self.links[grant.user_id],
                            self.cfg.channel, self.user_rngs[grant.user_id])
        self.metrics.add_lte_bits(grant.user_id, bits)
        self.metrics.add_lte_airtime(grant.user_id, grant.duration_us)

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

    stations = [WifiStation(f"wifi-{i:02d}", timing,
                            sim.fork_rng(f"wifi-{i:02d}"))
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
    nodes = ([LbtNode(uid, config.lbt, links[uid], user_rngs[uid])
              for uid in user_ids] if config.scheme == "lbt" else [])
    driver = ContentionDriver(sim, timing, durations, stations, metrics,
                              t_end, nodes, config.channel)
    hap: _HapRun | None = None
    trace: SignallingTrace | None = None
    if config.scheme in ("hap-sa", "hap-uca"):
        trace = SignallingTrace()
        hap = _HapRun(sim, config, driver, metrics, user_ids, links,
                      user_rngs, trace)
    else:
        driver.open_window(0, t_end)

    summary = sim.run_until(t_end)
    driver.finalize(t_end)
    metrics.assert_ledger(t_end)

    dur_s = t_end / 1e6
    wifi_agg = sum(metrics.wifi_bits.values()) / dur_s
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
    lte_tx = ([(g.start_us, g.end_us) for g in trace.grants]
              if trace is not None else driver.lte_intervals)
    return RunResult(
        row=row, metrics=metrics, trace_hash=summary.trace_hash,
        wifi_tx_intervals=driver.tx_intervals, lte_tx_intervals=lte_tx,
        cfp_intervals=hap.cfp_intervals if hap else [],
        beacon_intervals=hap.beacon_intervals if hap else [],
        signalling=trace)
