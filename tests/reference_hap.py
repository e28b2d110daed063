"""A queue-everything reference for the coordinator; test code only.

``ReferenceHapRun`` is the hap coordinator as it was before the beacon
fired its contention-free period itself: it queues every beacon,
subframe tick, ``txop-end`` and ``cfp-end`` through
``Simulator.schedule``, and the engine fires each in turn. It has the
coordinator's interface (the constructor, ``cfp_intervals`` and
``beacon_intervals``), so a test can patch it in for
``simulate._HapRun`` and run a scenario unchanged. Each event fires in
the queue's (time, rank, seq) order by construction, so the
coordinator that fires a period in one pass must give the same trace,
transitions, grants, busy periods, ledger and row.

It queues each ``txop-end`` with no callback, as the coordinator does:
a run delivers its grants' data after ``run_until`` returns.
``reference_delivery`` delivers grant by grant, as each ``txop-end``
once did: each grant, in order, draws its own gains, one per subframe
segment, from a fresh stream of its user (``grant_bits``), and delivers
``lte_rate`` at each faded SNR times its segment's length, summed in
segment order; the ledger adds each grant's bits and airtime in grant
order.
"""

from __future__ import annotations

from functools import partial

from coexsim.analytics import MetricsAccumulator
from coexsim.contention import ContentionDriver
from coexsim.engine import Simulator, make_stream
from coexsim.hap import build_superframe
from coexsim.radio import (FRAME_HEADER_US, FRAME_SUBFRAMES, SUBFRAME_US,
                           fading_gains, link_budget, lte_rate, place_users)
from coexsim.scenario import ScenarioConfig
from coexsim.signalling import (SaDrxFsm, SaDtxFsm, SignallingTrace, UcaFsm,
                                fsm_step)


class ReferenceHapRun:
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

    Every callback it queues is a ``functools.partial`` built while the
    run is under way, so it binds the ``fsm_step`` this module holds at
    that moment. A subframe tick is ``fsm_step`` itself, bound to its
    machine, event and time; the time equals the clock when it fires.
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
        self.sim.schedule(grant.end_us, "txop-end", uid)

    def _open_cp(self, next_tbtt: int) -> None:
        now = self.sim.now
        if now < next_tbtt:
            self.driver.open_window(now, next_tbtt)


def grant_bits(grant, snr: float, rng, channel) -> float:
    """One grant's bits at mean SNR ``snr``, from its own draw of gains
    on ``rng``: 1 ms subframe segments, the last one shorter if the data
    window ends mid subframe, each delivering ``lte_rate`` at its faded
    SNR times its length, summed in segment order."""
    full, tail = divmod(grant.data_us, SUBFRAME_US)
    seconds = [SUBFRAME_US * 1e-6] * full + ([tail * 1e-6] if tail else [])
    gains = fading_gains(rng, len(seconds), channel).tolist()
    return sum([lte_rate(snr * g, channel) * s
                for g, s in zip(gains, seconds)])


def reference_delivery(cfg: ScenarioConfig, seed: int, grants
                       ) -> tuple[dict[str, float], dict[str, int]]:
    """Each user's delivered bits and granted airtime, grant by grant."""
    rng = make_stream(seed, "placement")
    snrs = {p.node_id: link_budget(p, cfg.channel).mean_snr
            for p in place_users(cfg.m_lte, cfg.radius_m, rng)}
    streams: dict = {}
    bits: dict[str, float] = {}
    airtime: dict[str, int] = {}
    for grant in grants:
        uid = grant.user_id
        if uid not in streams:
            streams[uid] = make_stream(seed, uid)
        bits[uid] = bits.get(uid, 0.0) + grant_bits(
            grant, snrs[uid], streams[uid], cfg.channel)
        airtime[uid] = airtime.get(uid, 0) + grant.duration_us
    return bits, airtime
