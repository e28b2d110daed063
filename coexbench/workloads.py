"""Workload definitions and output checks for the coexsim benchmark.

A workload is a list of rounds. A round is the workload's unit of work:
every scheme of an in-process workload on one simulation seed, or one
``coexsim sweep`` call. Round ``r`` draws its simulation seeds from
(workload, workload seed, r mod CYCLE), so the same workload seed always
gives the same inputs and the golden manifest can cover every round of
the default seed.

Every run is checked, whatever the seed:

* the airtime ledger partitions the run exactly;
* no Wi-Fi transmission overlaps a contention-free period and no LTE
  transmission overlaps a contention period (coordinated schemes);
* ``conformance_check`` passes on the signalling trace (coordinated
  schemes);
* Wi-Fi-only throughput is within 3% of the Bianchi saturation fixed
  point;
* where ``golden.json`` holds the run, its trace hash and CSV row (or the
  sweep's output file digests) match exactly.

Importing this module imports ``coexsim``; the set-up probe times that.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from coexsim import analytics, cli, scenario, signalling, simulate

DEFAULT_SEED = 1
# Period of the per-round seed schedule; more rounds than one measured run
# of an in-process workload holds, so golden.json covers every round.
CYCLE = 16
DURATION_S = 10.0
# dense-n120 runs are shorter. The benchmark scales each run's wall time
# by reference slices timed before and after it (see run.py), and a 10 s
# run at N=120 takes about 5 s of wall time, long enough for the host's
# speed to change in the middle of it. Per-exchange cost, which this
# workload measures, does not depend on run length, and at 5 s Wi-Fi-only
# throughput still sits within about 1% of the Bianchi fixed point.
DENSE_DURATION_S = 5.0
# Acceptance short-range channel: scheduled links sit far above the noise
# floor, as in the paper's comparisons.
CHANNEL = {"pathloss_exponent": 2.0}
ORACLE_TOLERANCE = 0.03

SWEEP_SCHEMES = ("hap-sa", "hap-uca")
SWEEP_VALUES = (10, 20, 30)
SWEEP_SEEDS_PER_POINT = 3
SWEEP_PARALLEL = 2
SWEEP_FILES = ("sweep_runs.csv", "sweep.csv", "sweep_runs.meta.json")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Point:
    scheme: str
    n_wifi: int
    m_lte: int
    duration_s: float = DURATION_S

    def payload(self, duration_s: float | None = None) -> dict:
        """Config of this point; ``duration_s`` overrides its run length."""
        return {"scheme": self.scheme, "n_wifi": self.n_wifi,
                "m_lte": self.m_lte,
                "duration_s": (self.duration_s if duration_s is None
                               else duration_s),
                "channel": dict(CHANNEL)}

    def key(self, seed: int) -> str:
        return f"{self.scheme}/{self.n_wifi}/{self.m_lte}/{seed}"


# In-process workloads: every point runs once per round, serially, on the
# round's simulation seed.
IN_PROCESS = {
    # The paper's headline configuration and the shape of the acceptance
    # matrix; the contention driver does most of the work.
    "paper-n30": (Point("wifi-only", 30, 0), Point("lbt", 30, 10),
                  Point("hap-sa", 30, 10), Point("hap-uca", 30, 10)),
    # Large N: the per-exchange participant walks dominate, and the
    # coordinator, hap and signalling layers never run.
    "dense-n120": (Point("wifi-only", 120, 0, DENSE_DURATION_S),
                   Point("lbt", 120, 10, DENSE_DURATION_S)),
}
# Many short coordinated runs through the CLI, its process pool and its
# file writes; the contention-free period holds most of the airtime.
SWEEP = "sweep-lte"
WORKLOADS = (*IN_PROCESS, SWEEP)


def round_seeds(workload: str, seed: int, round_index: int,
                count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}/{round_index % CYCLE}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def sweep_payload(seeds: list[int], duration_s: float = DURATION_S) -> dict:
    return {"scheme": SWEEP_SCHEMES[0], "n_wifi": 2,
            "m_lte": SWEEP_VALUES[0], "duration_s": duration_s,
            "seeds": list(seeds), "channel": dict(CHANNEL)}


def sweep_argv(config_path: Path, out_dir: Path) -> list[str]:
    return ["sweep", "--config", str(config_path), "--out", str(out_dir),
            "--axis", "m_lte",
            "--values", ",".join(map(str, SWEEP_VALUES)),
            "--schemes", ",".join(SWEEP_SCHEMES),
            "--parallel", str(SWEEP_PARALLEL)]


def sweep_configs(payload: dict) -> list:
    """The configs the sweep command expands its config file into."""
    base = scenario.config_from_dict(payload)
    return cli.expand_sweep(base, "m_lte", list(SWEEP_VALUES),
                            list(SWEEP_SCHEMES))


def build_configs(workload: str, seed: int = DEFAULT_SEED) -> list:
    """Every config the workload's first round runs (the set-up cost)."""
    if workload == SWEEP:
        return sweep_configs(sweep_payload(
            round_seeds(workload, seed, 0, SWEEP_SEEDS_PER_POINT)))
    return [scenario.config_from_dict(p.payload())
            for p in IN_PROCESS[workload]]


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {"runs": {}, "sweeps": {}}
    return json.loads(GOLDEN_PATH.read_text())


# -- checks -------------------------------------------------------------------


def _merge(intervals):
    out: list[list[int]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _complement(zones, t_end):
    out, cursor = [], 0
    for s, e in zones:
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < t_end:
        out.append((cursor, t_end))
    return out


def _overlaps(intervals, zones) -> int:
    """How many of ``intervals`` strictly intersect a (merged) zone."""
    count = zi = 0
    for s, e in sorted(intervals):
        while zi < len(zones) and zones[zi][1] <= s:
            zi += 1
        if zi < len(zones) and zones[zi][0] < e:
            count += 1
    return count


def audit(config, result) -> list[str]:
    """Invariant checks on one run; returns the problems found.

    Calls ``conformance_check`` through its module so a traced run can
    time it.
    """
    problems = []
    if result.metrics.accounted_us != config.duration_us:
        problems.append(f"ledger {result.metrics.accounted_us} != "
                        f"{config.duration_us}")
    if result.signalling is not None:
        report = signalling.conformance_check(result.signalling)
        if not report.passed:
            problems.append(f"conformance: {report.first_violation}")
        cfp = _merge(result.cfp_intervals)
        cp = _complement(_merge(result.cfp_intervals
                                + result.beacon_intervals),
                         config.duration_us)
        wifi_in_cfp = _overlaps(result.wifi_tx_intervals, cfp)
        lte_in_cp = _overlaps(result.lte_tx_intervals, cp)
        if wifi_in_cfp or lte_in_cp:
            problems.append(f"isolation: {wifi_in_cfp} Wi-Fi tx in CFP, "
                            f"{lte_in_cp} LTE tx in CP")
    if config.scheme == "wifi-only":
        oracle = analytics.saturation_throughput(
            config.n_wifi, config.timing, config.access_mode)
        dev = abs(result.row.wifi_aggregate_bps - oracle) / oracle
        if dev > ORACLE_TOLERANCE:
            problems.append(f"oracle deviation {dev:.2%}")
    return problems


def check_golden_run(golden: dict, key: str, trace_hash: str,
                     row: list[str]) -> list[str]:
    want = golden["runs"].get(key)
    if want is None:
        return []
    problems = []
    if want["trace_hash"] != trace_hash:
        problems.append(f"trace hash {trace_hash} != golden")
    if want["row"] != row:
        problems.append("CSV row differs from golden")
    return problems


def file_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in SWEEP_FILES}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_sweep_files(out_dir: Path, seeds: list[int]) -> list[str]:
    """Shape and internal consistency of one sweep's three output files."""
    problems = []
    header, rows = read_csv(out_dir / "sweep_runs.csv")
    expected = len(SWEEP_SCHEMES) * len(SWEEP_VALUES) * len(seeds)
    if header != list(simulate.CSV_COLUMNS):
        problems.append("sweep_runs.csv header differs from CSV_COLUMNS")
        return problems
    if len(rows) != expected:
        problems.append(f"sweep_runs.csv has {len(rows)} rows, "
                        f"expected {expected}")
    col = {name: i for i, name in enumerate(header)}
    frac_cols = [c for c in header if c.startswith("airtime_")]
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        share = sum(float(r[col[c]]) for c in frac_cols)
        if abs(share - 1.0) > 1e-5:
            problems.append(f"airtime fractions of {r[:4]} sum to {share}")
        groups.setdefault((r[0], int(r[1]), int(r[2])), []).append(
            float(r[col["total_bps"]]))
    agg_header, agg_rows = read_csv(out_dir / "sweep.csv")
    if len(agg_rows) != len(groups):
        problems.append(f"sweep.csv has {len(agg_rows)} groups, "
                        f"expected {len(groups)}")
    acol = {name: i for i, name in enumerate(agg_header)}
    for a in agg_rows:
        totals = groups.get((a[0], int(a[1]), int(a[2])))
        if totals is None or int(a[acol["n_seeds"]]) != len(seeds):
            problems.append(f"sweep.csv group {a[:3]} does not match rows")
            continue
        mean = statistics.fmean(totals)
        if abs(float(a[acol["total_bps_mean"]]) - mean) > 1e-6 * mean + 1e-5:
            problems.append(f"sweep.csv group {a[:3]} mean differs")
    meta = json.loads((out_dir / "sweep_runs.meta.json").read_text())
    if meta.get("rows") != len(rows):
        problems.append("sweep_runs.meta.json row count differs")
    return problems
