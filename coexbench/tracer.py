"""Per-layer span tracer for the traced benchmark run.

The tracer replaces public functions and methods of the ``coexsim``
modules with wrappers that time each call, at the name the caller looks
up (``coexsim.simulate.build_superframe``, not ``coexsim.hap``'s, since
``simulate`` imported it by name). Event callbacks are attributed by
event kind: ``Simulator.schedule`` wraps the ``fn`` it is given and
passes time, kind and target through unchanged, so the event order and
the trace hash are those of an untraced run.

Spans are aggregated in memory per (parent span, span) edge: calls, total
and self time, where self time is a span's time minus that of its child
spans. Pool workers of the ``sweep`` command inherit the wrappers when
they fork; each writes its edges to a spill file after every simulation
run, and the parent merges those files after the sweep returns.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import coexsim.cli
import coexsim.contention
import coexsim.dcf
import coexsim.engine
import coexsim.hap
import coexsim.lbt
import coexsim.scenario
import coexsim.signalling
import coexsim.simulate

# Span of an event callback, by event kind.
CALLBACK_SPANS = {
    "slot-boundary": "contention.slot",
    "tx-end": "contention.tx_end",
    "beacon": "simulate.coordinator",
    "cfp-end": "simulate.coordinator",
    "txop-end": "simulate.coordinator",
    "timer": "simulate.coordinator",
}
OTHER_CALLBACK = "engine.callback"
RUN_SPAN = "simulate.run"


class Tracer:
    """Span and counter store for one process, plus the patch set."""

    def __init__(self, spill_dir: Path | None = None):
        self.spill_dir = spill_dir
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid       # process whose spans are held
        self.stack: list[list] = []     # [span name, child seconds]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._spills = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (stack[-1][0] if stack else "", name)
                rec = edges.get(key)
                if rec is None:
                    edges[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _schedule(self, orig):
        timed = self.span("engine.schedule", orig)
        span = self.span

        def schedule(sim, time_us, kind, target, fn=None):
            if fn is not None:
                fn = span(CALLBACK_SPANS.get(kind, OTHER_CALLBACK), fn)
            return timed(sim, time_us, kind, target, fn)
        return schedule

    def _plan(self, orig):
        timed = self.span("hap.plan", orig)
        counts = self.counts

        def build_superframe(*args, **kwargs):
            plan = timed(*args, **kwargs)
            counts["hap.grants"] += len(plan.grants)
            return plan
        return build_superframe

    def _finalize(self, orig):
        timed = self.span("contention.window", orig)
        counts = self.counts

        def finalize(driver, t_end):
            timed(driver, t_end)
            counts["contention.intervals_kept"] += len(driver.tx_intervals)
        return finalize

    def _run(self, orig):
        timed = self.span(RUN_SPAN, orig)
        counts = self.counts

        def run_scenario(config, seed):
            if os.getpid() != self.pid:
                self._adopt_fork()
            result = timed(config, seed)
            if result.signalling is not None:
                counts["signalling.records_kept"] += (
                    len(result.signalling.transitions)
                    + len(result.signalling.grants))
            if self.pid != self.owner_pid:
                self._spill()
            return result
        return run_scenario

    def _patches(self):
        span, count = self.span, self.count
        sim_cls = coexsim.engine.Simulator
        driver = coexsim.contention.ContentionDriver
        station = coexsim.dcf.WifiStation
        simulate = coexsim.simulate
        cli = coexsim.cli
        return [
            (sim_cls, "schedule", self._schedule),
            (sim_cls, "run_until", lambda f: span("engine.dispatch", f)),
            (sim_cls, "fork_rng", lambda f: span("engine.fork_rng", f)),
            (driver, "open_window", lambda f: span("contention.window", f)),
            (driver, "close_window", lambda f: span("contention.window", f)),
            (driver, "finalize", self._finalize),
            (station, "on_success", lambda f: span("dcf", f)),
            (station, "on_collision", lambda f: span("dcf", f)),
            (coexsim.dcf, "draw_backoff",
             lambda f: count("dcf.backoff_draws", f)),
            (coexsim.contention, "burst_transmit", lambda f: span("lbt", f)),
            (coexsim.lbt.LbtNode, "start_duty_off",
             lambda f: count("lbt.bursts", f)),
            (coexsim.lbt, "fading_gains", lambda f: span("radio.fading", f)),
            (coexsim.lbt, "lte_rate", lambda f: span("radio.lte_rate", f)),
            (coexsim.hap, "fading_gains", lambda f: span("radio.fading", f)),
            (coexsim.hap, "lte_rate", lambda f: span("radio.lte_rate", f)),
            (simulate, "place_users", lambda f: span("radio.build", f)),
            (simulate, "link_budget", lambda f: span("radio.build", f)),
            (simulate, "build_superframe", self._plan),
            (simulate, "cfp_transmit", lambda f: span("hap.cfp_transmit", f)),
            (simulate, "fsm_step", lambda f: span("signalling.fsm", f)),
            (coexsim.signalling, "conformance_check",
             lambda f: span("signalling.conformance", f)),
            (simulate, "run_scenario", self._run),
            (cli, "run_scenario", self._run),
            (coexsim.scenario, "config_from_dict",
             lambda f: span("scenario", f)),
            (cli, "load_config", lambda f: span("scenario", f)),
            (cli, "expand_sweep", lambda f: span("scenario", f)),
            (cli, "aggregate", lambda f: span("analytics.aggregate", f)),
            (cli, "main", lambda f: span("cli", f)),
        ]

    # -- install ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced call for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, make in self._patches():
                orig = vars(owner)[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    # -- worker processes --------------------------------------------------

    def _adopt_fork(self) -> None:
        """First traced call in a forked worker: drop the parent's state."""
        self.pid = os.getpid()
        self.stack.clear()
        self.edges.clear()
        self.counts.clear()
        self._spills = 0

    def _spill(self) -> None:
        """Write this worker's spans since the last spill, then forget them."""
        if self.spill_dir is None:
            raise RuntimeError("a traced pool worker needs a spill directory")
        self._spills += 1
        path = self.spill_dir / f"spans-{self.pid}-{self._spills}.json"
        path.write_text(json.dumps(self.snapshot()))
        self.edges.clear()
        self.counts.clear()

    def collect_spills(self) -> dict[int, float]:
        """Merge and delete worker spill files; return each worker's
        simulation seconds (the sum of its run spans)."""
        busy: dict[int, float] = defaultdict(float)
        if self.spill_dir is None:
            return busy
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            snap = json.loads(path.read_text())
            path.unlink()
            pid = int(path.name.split("-")[1])
            busy[pid] += sum(total for parent, name, _c, total, _s
                             in snap["edges"] if name == RUN_SPAN)
            self.merge(snap)
        return busy

    # -- data ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"edges": [[p, n, *rec] for (p, n), rec in
                          sorted(self.edges.items())],
                "counts": dict(sorted(self.counts.items()))}

    def merge(self, snap: dict) -> None:
        for parent, name, calls, total, self_s in snap["edges"]:
            rec = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in snap["counts"].items():
            self.counts[name] += value

    def calls(self, *names: str) -> int:
        return sum(rec[0] for (_p, n), rec in self.edges.items()
                   if n in names)

    def total_s(self, *names: str) -> float:
        return sum(rec[1] for (_p, n), rec in self.edges.items()
                   if n in names)

    def self_s(self, *names: str) -> float:
        return sum(rec[2] for (_p, n), rec in self.edges.items()
                   if n in names)
