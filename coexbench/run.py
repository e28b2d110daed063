"""coexsim benchmark: one workload, measured for a fixed wall time.

    python3 coexbench/run.py --workload paper-n30 --seed 1 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from
paired traced and untraced rounds. See README.md in this directory.

Timings are reported in reference-host seconds. The host's speed drifts
(up to twice as slow at times), so slices of fixed reference work
(``reference.py``, independent of the simulator) run after every
measured unit of work, and each unit's wall time is scaled by
``REF_SLICE_S`` over the mean slice time before and after it. The raw
wall-time figures are printed in the context line.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".coexbench"
SETUP_PROBES = 11
CALIBRATION_REPS = 3
# Reference slices after a unit of work take about this share of its
# wall time (at least one slice).
SLICE_SHARE = 0.06
# Median time of one reference slice on the host the benchmark was
# defined on (2 vCPUs of an Intel Xeon, Python 3.11): a timing of T wall
# seconds next to slices of S seconds reads as T * REF_SLICE_S / S.
REF_SLICE_S = 0.075

# Set-up probe: a fresh interpreter imports coexsim (through the
# workloads module) and builds the workload's configs. It then times a
# warm reference slice, which gives the host's speed at that moment.
PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build_configs({workload!r}, {seed!r})
setup = time.perf_counter() - t0
import reference
reference.timed_slice()
print(setup, reference.timed_slice())
"""


@dataclass
class Round:
    """One unit of a workload: its wall time, per-run times (raw and in
    reference-host seconds) and outputs."""

    wall_s: float = 0.0
    run_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


class HostSpeed:
    """Reference slices between units of work, to scale their wall time.

    With ``workers`` > 1, as for work that keeps that many processes
    busy, a slice is that many copies of the reference work at once, one
    per forked process, timed until the last one ends.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.times: list[float] = []
        self.last = self._probe(1)

    def _slice(self) -> float:
        if self.workers == 1:
            return reference.timed_slice()
        t0 = time.perf_counter()
        pids = []
        for _ in range(self.workers):
            pid = os.fork()
            if pid == 0:
                try:
                    reference.slice_work()
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return time.perf_counter() - t0

    def _probe(self, count: int) -> float:
        t = [self._slice() for _ in range(count)]
        self.times += t
        return statistics.fmean(t)

    def scale(self, wall_s: float) -> float:
        """Wall time of the work just done, in reference-host seconds."""
        count = max(1, round(wall_s * SLICE_SHARE / REF_SLICE_S))
        before, self.last = self.last, self._probe(count)
        return wall_s * REF_SLICE_S * 2 / (before + self.last)


def _report(problems: list[str]) -> None:
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)


# -- workloads ------------------------------------------------------------------


class InProcessWorkload:
    """Every point of the workload, serially in this process, per round."""

    def __init__(self, name: str, seed: int):
        import workloads as wl
        self.wl = wl
        self.name = name
        self.seed = seed
        self.points = wl.IN_PROCESS[name]
        self.golden = wl.load_golden()
        self.host = None

    def warm_up(self) -> None:
        from coexsim import scenario, simulate
        for p in self.points:
            simulate.run_scenario(scenario.config_from_dict(p.payload(1.0)), 0)
        self.host = HostSpeed()

    def round(self, index: int, tracer=None) -> Round:
        from coexsim import scenario, simulate
        wl = self.wl
        (sim_seed,) = wl.round_seeds(self.name, self.seed, index, 1)
        out = Round()
        with tracer.installed() if tracer else nullcontext():
            t_round = time.perf_counter()
            for p in self.points:
                key = p.key(sim_seed)
                t0 = time.perf_counter()
                try:
                    cfg = scenario.config_from_dict(p.payload())
                    res = simulate.run_scenario(cfg, sim_seed)
                    problems = wl.audit(cfg, res)
                except Exception:
                    traceback.print_exc()
                    res, problems = None, [f"{key} raised"]
                out.run_s.append(time.perf_counter() - t0)
                t_slice = time.perf_counter()
                out.scaled_s.append(self.host.scale(out.run_s[-1]))
                t_round += time.perf_counter() - t_slice
                if res is not None:
                    row = res.row.csv_values()
                    problems += wl.check_golden_run(self.golden, key,
                                                    res.trace_hash, row)
                    out.outputs.append((key, res.trace_hash, row))
                else:
                    out.outputs.append((key, None, None))
                out.attempted += 1
                if problems:
                    out.failed += 1
                    _report([f"{key}: {p}" for p in problems])
            out.wall_s = time.perf_counter() - t_round
        return out


class SweepWorkload:
    """One ``coexsim sweep`` call per round, through ``coexsim.cli.main``."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        import workloads as wl
        self.wl = wl
        self.name = name
        self.seed = seed
        self.golden = wl.load_golden()
        self.work_dir = work_dir
        self.config_path = work_dir / "sweep-config.json"
        self.out_dir = work_dir / "sweep-out"
        self.runs_per_round = (len(wl.SWEEP_SCHEMES) * len(wl.SWEEP_VALUES)
                               * wl.SWEEP_SEEDS_PER_POINT)
        self.host = None

    def _call(self, payload: dict, tracer=None) -> tuple[object, float]:
        from coexsim import cli
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.config_path.write_text(json.dumps(payload))
        argv = self.wl.sweep_argv(self.config_path, self.out_dir)
        log = io.StringIO()
        with tracer.installed() if tracer else nullcontext(), \
                redirect_stderr(log):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                rc = traceback.format_exc()
            wall = time.perf_counter() - t0
        if rc != 0:
            print(log.getvalue()[-2000:], file=sys.stderr)
        return rc, wall

    def warm_up(self) -> None:
        self._call(self.wl.sweep_payload([1], duration_s=1.0))
        self.host = HostSpeed(workers=self.wl.SWEEP_PARALLEL)

    def round(self, index: int, tracer=None) -> Round:
        from coexsim import simulate
        wl = self.wl
        seeds = wl.round_seeds(self.name, self.seed, index,
                               wl.SWEEP_SEEDS_PER_POINT)
        payload = wl.sweep_payload(seeds)
        rc, wall = self._call(payload, tracer)
        out = Round(wall_s=wall, run_s=[wall], scaled_s=[self.host.scale(wall)],
                    attempted=self.runs_per_round)
        if tracer is not None:
            busy = tracer.collect_spills()
            tracer.counts["cli.worker_critical_s"] += max(busy.values(),
                                                          default=0.0)
        if rc != 0:
            out.failed = self.runs_per_round
            _report([f"sweep round {index} exited with {rc!r}"])
            return out
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += sum(
                (self.out_dir / f).stat().st_size for f in wl.SWEEP_FILES)

        key = ",".join(map(str, seeds))
        digests = wl.file_digests(self.out_dir)
        out.outputs.append(digests)
        problems = wl.check_sweep_files(self.out_dir, seeds)
        want = self.golden["sweeps"].get(key)
        if want is not None and want != digests:
            problems.append(f"sweep {key}: output digests differ from golden")
        if problems:
            out.failed = self.runs_per_round
            _report(problems)
            return out

        # Replay one sweep point in-process and hold it to the full audit
        # and to its CSV row; the point rotates with the round index.
        points = [(cfg, s) for cfg in wl.sweep_configs(payload)
                  for s in cfg.seeds]
        cfg, sim_seed = points[index % len(points)]
        res = simulate.run_scenario(cfg, sim_seed)
        problems = wl.audit(cfg, res)
        _, rows = wl.read_csv(self.out_dir / "sweep_runs.csv")
        ident = [cfg.scheme, str(cfg.n_wifi), str(cfg.m_lte), str(sim_seed)]
        if [r for r in rows if r[:4] == ident] != [res.row.csv_values()]:
            problems.append(f"sweep row {ident} differs from its replay")
        if problems:
            out.failed = 1
            _report(problems)
        return out


# -- context and set-up -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> dict:
    """Workload-independent speed figures, so results compare across
    machines: engine cost per event and contention cost per exchange at
    N=30 and N=120 (Wi-Fi only, 0.5 s simulated, fixed seed)."""
    from coexsim import engine, scenario, simulate
    import workloads as wl

    def engine_us_per_event() -> float:
        sim = engine.Simulator(root_seed=0, hash_trace=True)

        def chain(k):
            def fire():
                sim.schedule(sim.now + 9 + k, "timer", "bench", fire)
            return fire
        for k in range(16):
            sim.schedule(k, "timer", "bench", chain(k))
        t0 = time.perf_counter()
        processed = sim.run_until(20_000).processed
        return (time.perf_counter() - t0) * 1e6 / processed

    def us_per_exchange(n: int) -> float:
        cfg = scenario.config_from_dict(
            wl.Point("wifi-only", n, 0).payload(0.5))
        t0 = time.perf_counter()
        res = simulate.run_scenario(cfg, 1)
        wall = time.perf_counter() - t0
        return wall * 1e6 / (res.metrics.success_events
                             + res.metrics.collision_events)

    reps = range(CALIBRATION_REPS)
    return {
        "engine.us_per_event": statistics.median(
            engine_us_per_event() for _ in reps),
        "contention.us_per_exchange.n30": statistics.median(
            us_per_exchange(30) for _ in reps),
        "contention.us_per_exchange.n120": statistics.median(
            us_per_exchange(120) for _ in reps),
    }


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of import plus config building, in
    reference-host seconds and raw."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                        workload=workload, seed=seed)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        setup, slice_s = map(float, done.stdout.split()[-2:])
        scaled.append(setup * REF_SLICE_S / slice_s)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


# -- metrics ------------------------------------------------------------------------


def timings(rounds: list[Round], times: str) -> tuple[float, float]:
    """``runs_per_s`` and ``run_s_p50`` from the rounds' per-run times
    (``run_s`` raw or ``scaled_s``). ``runs_per_s`` is verified runs over
    the summed run time. ``run_s_p50`` takes the median per position in
    the round (per scheme) and averages those, so that a median over a mix
    of fast and slow schemes cannot jump between them."""
    verified = sum(r.attempted - r.failed for r in rounds)
    total = sum(sum(getattr(r, times)) for r in rounds)
    per_scheme = [statistics.median(t)
                  for t in zip(*(getattr(r, times) for r in rounds))]
    return verified / total, statistics.fmean(per_scheme)


def end_to_end(rounds: list[Round], setup_s: float,
               peak_rss_mb: float) -> dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    runs_per_s, run_s_p50 = timings(rounds, "scaled_s")
    return {
        "runs_per_s": (runs_per_s, "1/s"),
        "run_s_p50": (run_s_p50, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(tracer, n_rounds: int, overhead_s: float) -> dict:
    """Per-round figures from the traced rounds (ratios are not per round)."""
    from tracer import CALLBACK_SPANS, OTHER_CALLBACK
    t = tracer
    c = t.counts
    per = 1.0 / n_rounds
    callbacks = (*set(CALLBACK_SPANS.values()), OTHER_CALLBACK)
    events = t.calls(*callbacks)
    scheduled = t.calls("engine.schedule")
    exchanges = t.calls("contention.tx_end")
    contention_s = t.self_s("contention.slot", "contention.tx_end",
                            "contention.window")
    return {
        "engine.events": (events * per, "count"),
        "engine.scheduled": (scheduled * per, "count"),
        "engine.live_ratio": (events / scheduled, "ratio"),
        "engine.schedule_s": (t.self_s("engine.schedule") * per, "s"),
        "engine.dispatch_s": (t.self_s("engine.dispatch") * per, "s"),
        "engine.us_per_event": (
            t.total_s("engine.dispatch") * 1e6 / events, "us"),
        "engine.fork_rng_s": (t.self_s("engine.fork_rng") * per, "s"),
        "contention.exchanges": (exchanges * per, "count"),
        "contention.self_s": (contention_s * per, "s"),
        "contention.us_per_exchange": (contention_s * 1e6 / exchanges, "us"),
        "contention.intervals_kept": (
            c["contention.intervals_kept"] * per, "count"),
        "dcf.backoff_draws": (c["dcf.backoff_draws"] * per, "count"),
        "dcf.self_s": (t.self_s("dcf") * per, "s"),
        "lbt.bursts": (c["lbt.bursts"] * per, "count"),
        "lbt.self_s": (t.self_s("lbt") * per, "s"),
        "radio.fading_calls": (t.calls("radio.fading") * per, "count"),
        "radio.lte_rate_calls": (t.calls("radio.lte_rate") * per, "count"),
        "radio.self_s": (t.self_s("radio.fading", "radio.lte_rate",
                                  "radio.build") * per, "s"),
        "hap.superframes": (t.calls("hap.plan") * per, "count"),
        "hap.grants": (c["hap.grants"] * per, "count"),
        "hap.plan_s": (t.self_s("hap.plan") * per, "s"),
        "hap.cfp_transmit_s": (t.self_s("hap.cfp_transmit") * per, "s"),
        "simulate.coordinator_s": (
            t.self_s("simulate.coordinator") * per, "s"),
        "simulate.build_s": (t.self_s("simulate.run") * per, "s"),
        "signalling.transitions": (t.calls("signalling.fsm") * per, "count"),
        "signalling.fsm_s": (t.self_s("signalling.fsm") * per, "s"),
        "signalling.conformance_s": (
            t.self_s("signalling.conformance") * per, "s"),
        "signalling.records_kept": (
            c["signalling.records_kept"] * per, "count"),
        "scenario.load_s": (t.self_s("scenario") * per, "s"),
        "analytics.aggregate_s": (
            t.self_s("analytics.aggregate") * per, "s"),
        "cli.self_s": ((t.self_s("cli") - c["cli.worker_critical_s"])
                       * per, "s"),
        "cli.bytes_written": (c["cli.bytes_written"] * per, "count"),
        "bench.trace_overhead_s": (overhead_s, "s"),
    }


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="paper-n30, dense-n120 or sweep-lte")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; simulation seeds derive from it")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="wall time to measure for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from paired traced rounds")
    return ap.parse_args(argv)


def measure(workload, seconds: float, tracer) -> tuple[list, list, float]:
    """Run whole rounds for about ``seconds``. With a tracer, rounds come
    in untraced/traced pairs on the same seeds (order alternating), and a
    traced round must reproduce its partner's outputs exactly."""
    plain: list[Round] = []
    traced: list[Round] = []
    t_start = time.perf_counter()
    index = 0
    while True:
        if tracer is None:
            plain.append(workload.round(index))
        else:
            if index % 2 == 0:
                a = workload.round(index)
                b = workload.round(index, tracer)
            else:
                b = workload.round(index, tracer)
                a = workload.round(index)
            plain.append(a)
            traced.append(b)
            if a.outputs != b.outputs:
                # an output is one run in-process, or a whole sweep call
                runs_each = b.attempted // max(len(b.outputs), 1)
                diff = (sum(x != y for x, y in zip(a.outputs, b.outputs))
                        if len(a.outputs) == len(b.outputs) else b.attempted)
                b.failed = max(b.failed, min(diff * runs_each, b.attempted))
                _report([f"round {index}: traced outputs differ from "
                         f"untraced ones"])
        index += 1
        elapsed = time.perf_counter() - t_start
        # Stop when another round would more likely end after the
        # deadline than before it.
        if elapsed + 0.5 * elapsed / index >= seconds:
            break
    return plain, traced, time.perf_counter() - t_start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coexsim" / "__init__.py").is_file():
        print(f"error: no coexsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    if (args.trace and args.workload == wl.SWEEP
            and multiprocessing.get_start_method() != "fork"):
        print("error: tracing pool workers needs the fork start method",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == wl.SWEEP:
        workload = SweepWorkload(args.workload, args.seed, work_dir)
    else:
        workload = InProcessWorkload(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(spill_dir=work_dir)
    try:
        workload.warm_up()
        context = calibrate()
        plain, traced, elapsed = measure(workload, args.seconds, tracer)
        rounds = plain + traced
        if tracer is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.workload == wl.SWEEP:
                # largest child (a pool worker or a forked reference
                # slice), read before any set-up probe runs
                rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
            metrics = end_to_end(rounds, setup_s, rss / 1024.0)
            raw_rps, raw_p50 = timings(rounds, "run_s")
            context["raw_wall"] = {"runs_per_s": raw_rps,
                                   "run_s_p50": raw_p50,
                                   "setup_s": raw_setup_s}
        else:
            overhead = statistics.fmean(
                b.wall_s - a.wall_s for a, b in zip(plain, traced))
            metrics = per_layer(tracer, len(traced), overhead)
            spans = WORK_ROOT / f"spans-{args.workload}-{args.seed}.json"
            spans.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "traced_rounds": len(traced), **tracer.snapshot()},
                indent=1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    context.update({
        "workload": args.workload, "seed": args.seed,
        "measured_s": elapsed,
        "round_s": [round(r.wall_s, 4) for r in rounds],
        "ref_slice_s_median": statistics.median(workload.host.times),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_1m_before": load_before[0],
        "loadavg_1m_after": os.getloadavg()[0],
    })
    print("context: " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
