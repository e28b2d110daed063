"""Scheme wiring: build the entities for one scenario seed and run it.

One call of ``run_scenario`` owns a Simulator, a metrics ledger, the
station/node populations, and (for the coordinated schemes) the beacon
and grant machinery. It returns both the flat result row used for CSV
emission and the raw artifacts (busy intervals, signalling trace, event
trace hash) that the invariant checks inspect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import MetricsAccumulator
from .contention import ContentionDriver
from .dcf import WifiStation, exchange_durations
from .engine import Simulator
from .hap import build_superframe, cfp_transmit
from .lbt import LbtNode
from .radio import (FRAME_HEADER_US, FRAME_SUBFRAMES, SUBFRAME_US,
                    link_budget, place_users)
from .scenario import ScenarioConfig
from .signalling import (GrantRecord, SaDrxFsm, SaDtxFsm, SignallingTrace,
                         UcaFsm, fsm_step)

CSV_COLUMNS = (
    "scheme", "n_wifi", "m_lte", "seed",
    "per_user_wifi_throughput_bps", "wifi_aggregate_bps",
    "lte_aggregate_bps", "total_bps", "collision_rate",
    "airtime_idle_frac", "airtime_success_frac", "airtime_collision_frac",
    "airtime_cfp_frac", "airtime_beacon_frac",
)


@dataclass(frozen=True)
class ResultRow:
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
    the interval grid stays fixed). Each beacon closes the medium,
    plans the next contention-free period, and hands the rest of the
    interval back to the contention driver.
    """

    def __init__(self, sim: Simulator, cfg: ScenarioConfig,
                 driver: ContentionDriver, metrics: MetricsAccumulator,
                 user_ids: list[str], links: dict, user_rngs: dict,
                 trace: SignallingTrace):
        self.sim = sim
        self.cfg = cfg
        self.driver = driver
        self.metrics = metrics
        self.user_ids = user_ids
        self.links = links
        self.user_rngs = user_rngs
        self.trace = trace
        self.mode = cfg.sa_mode
        self.rotation = 0
        self.eligible_at = {uid: 0 for uid in user_ids}
        self.t_end = cfg.duration_us
        self.cfp_intervals: list[tuple[int, int]] = []
        self.beacon_intervals: list[tuple[int, int]] = []

        self.fsms = {}
        for i, uid in enumerate(user_ids):
            if self.mode == "uca":
                self.fsms[uid] = UcaFsm(uid, trace)
            elif i % 2:
                self.fsms[uid] = SaDtxFsm(uid, trace)
            else:
                self.fsms[uid] = SaDrxFsm(uid, trace)
        if self.mode == "uca" and user_ids:
            # licensed-band association settles before the first beacon
            sim.schedule(0, "timer", "hap-assoc", self._associate_uca)
        for k in range(cfg.duration_us // cfg.interval_us):
            sim.schedule(k * cfg.interval_us, "beacon", "hap",
                         lambda k=k: self._on_beacon(k))

    def _associate_uca(self) -> None:
        for uid in self.user_ids:
            fsm = self.fsms[uid]
            for event in ("assoc-request", "ul-grant", "identity", "rrc"):
                fsm_step(fsm, event, 0)

    def _wake_fsm(self, fsm, now: int) -> None:
        state = fsm.state
        if state == "idle" and isinstance(fsm, SaDtxFsm):
            fsm_step(fsm, "beacon", now)
            fsm_step(fsm, "identity", now)
        elif state == "sleeping":
            fsm_step(fsm, "subframe-tick", now)
            fsm_step(fsm, "pdcch-present", now)
            fsm_step(fsm, "identity", now)
        elif state in ("associated", "configured", "rrc-configured",
                       "aggregating"):
            fsm_step(fsm, "beacon", now)
        else:
            raise AssertionError(f"{fsm.ue_id} heard a beacon in "
                                 f"state {state!r}")

    def _on_beacon(self, k: int) -> None:
        now = self.sim.now
        if self.driver.busy_until > now:
            self.sim.schedule(self.driver.busy_until, "beacon", "hap",
                              lambda: self._on_beacon(k))
            return
        self.driver.close_window(now)
        beacon_end = now + self.cfg.beacon_us
        self.metrics.beacon_us += self.cfg.beacon_us
        self.beacon_intervals.append((now, beacon_end))
        for uid in self.user_ids:
            self._wake_fsm(self.fsms[uid], now)

        plan = build_superframe(
            len(self.user_ids), self.cfg.n_wifi, self.cfg.interval_us,
            self.mode, beacon_us=self.cfg.beacon_us, start_us=now,
            rotation=self.rotation, user_ids=self.user_ids,
            eligible_at=self.eligible_at)
        self.rotation = plan.next_rotation
        cfp_end = beacon_end + plan.cfp_us
        next_tbtt = min((k + 1) * self.cfg.interval_us, self.t_end)
        if cfp_end > next_tbtt:
            raise RuntimeError("CFP ran into the next beacon")
        self.metrics.cfp_us += plan.cfp_us
        if plan.grants:
            self.cfp_intervals.append((beacon_end, cfp_end))
        for grant in plan.grants:
            self._issue_grant(grant)
        self.sim.schedule(cfp_end, "cfp-end", "hap",
                          lambda: self._open_cp(next_tbtt))

    def _issue_grant(self, grant) -> None:
        uid = grant.user_id
        fsm = self.fsms[uid]
        if self.mode == "standalone":
            fsm_step(fsm, "data-request", grant.start_us, n=grant.n_subframes)
            data_start = grant.start_us + FRAME_HEADER_US
            for j in range(1, FRAME_SUBFRAMES + 1):
                # n active ticks inside the grant, 10-n sleep ticks after
                self.sim.schedule(data_start + j * SUBFRAME_US,
                                  "timer", uid,
                                  lambda u=uid: self._tick(u))
            self.eligible_at[uid] = data_start + FRAME_SUBFRAMES * SUBFRAME_US
        self.trace.record_grant(GrantRecord(
            uid, grant.start_us, grant.end_us, grant.n_subframes))
        self.sim.schedule(grant.end_us, "txop-end", uid,
                          lambda g=grant: self._deliver(g))

    def _tick(self, uid: str) -> None:
        fsm_step(self.fsms[uid], "subframe-tick", self.sim.now)

    def _deliver(self, grant) -> None:
        bits = cfp_transmit(grant, self.links[grant.user_id],
                            self.cfg.channel, self.user_rngs[grant.user_id])
        self.metrics.add_lte_bits(grant.user_id, bits)
        self.metrics.add_lte_airtime(grant.user_id, grant.duration_us)

    def _open_cp(self, next_tbtt: int) -> None:
        now = self.sim.now
        if now < next_tbtt:
            self.driver.open_window(now, next_tbtt,
                                    allow_overrun=next_tbtt < self.t_end)


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

    hap: _HapRun | None = None
    trace: SignallingTrace | None = None
    if config.scheme == "lbt":
        nodes = [LbtNode(uid, config.lbt, links[uid], sim.fork_rng(uid))
                 for uid in user_ids]
        for node in nodes:
            node.draw_backoff()
        driver = ContentionDriver(sim, timing, durations, stations, metrics,
                                  lbt_nodes=nodes, channel=config.channel)
        driver.open_window(0, t_end, allow_overrun=False)
    elif config.scheme in ("hap-sa", "hap-uca"):
        driver = ContentionDriver(sim, timing, durations, stations, metrics)
        trace = SignallingTrace()
        user_rngs = {uid: sim.fork_rng(uid) for uid in user_ids}
        hap = _HapRun(sim, config, driver, metrics, user_ids, links,
                      user_rngs, trace)
    else:
        driver = ContentionDriver(sim, timing, durations, stations, metrics)
        driver.open_window(0, t_end, allow_overrun=False)

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
    wifi_tx = [(a, b) for a, b, w, _l in driver.tx_intervals if w]
    if config.scheme == "lbt":
        lte_tx = [(a, b) for a, b, _w, l in driver.tx_intervals if l]
    elif trace is not None:
        lte_tx = [(g.start_us, g.end_us) for g in trace.grants]
    else:
        lte_tx = []
    return RunResult(
        row=row, metrics=metrics, trace_hash=summary.trace_hash,
        wifi_tx_intervals=wifi_tx, lte_tx_intervals=lte_tx,
        cfp_intervals=hap.cfp_intervals if hap else [],
        beacon_intervals=hap.beacon_intervals if hap else [],
        signalling=trace)
