"""Record golden.json: the outputs of every round of the default seed.

    python3 coexbench/record_golden.py

For each in-process workload it stores the trace hash and CSV row of every
run; for the sweep workload, the sha256 of ``sweep_runs.csv``,
``sweep.csv`` and ``sweep_runs.meta.json``. Every run must pass the
benchmark's audit before it is recorded. Re-record only for a change that
is meant to alter simulation output, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from coexsim import cli, scenario, simulate  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    golden: dict = {"seed": wl.DEFAULT_SEED, "cycle": wl.CYCLE,
                    "runs": {}, "sweeps": {}}
    for name, points in wl.IN_PROCESS.items():
        for r in range(wl.CYCLE):
            (seed,) = wl.round_seeds(name, wl.DEFAULT_SEED, r, 1)
            for p in points:
                cfg = scenario.config_from_dict(p.payload())
                res = simulate.run_scenario(cfg, seed)
                problems = wl.audit(cfg, res)
                if problems:
                    sys.exit(f"{p.key(seed)} fails its audit: {problems}")
                golden["runs"][p.key(seed)] = {
                    "trace_hash": res.trace_hash,
                    "row": res.row.csv_values()}
            print(f"{name} round {r} recorded", file=sys.stderr)

    work = ROOT / ".coexbench" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for r in range(wl.CYCLE):
            seeds = wl.round_seeds(wl.SWEEP, wl.DEFAULT_SEED, r,
                                   wl.SWEEP_SEEDS_PER_POINT)
            config = work / "sweep-config.json"
            config.write_text(json.dumps(wl.sweep_payload(seeds)))
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            if cli.main(wl.sweep_argv(config, out)) != 0:
                sys.exit(f"sweep round {r} failed")
            problems = wl.check_sweep_files(out, seeds)
            _, rows = wl.read_csv(out / "sweep_runs.csv")
            for cfg in wl.sweep_configs(wl.sweep_payload(seeds)):
                for seed in cfg.seeds:
                    res = simulate.run_scenario(cfg, seed)
                    problems += wl.audit(cfg, res)
                    if res.row.csv_values() not in rows:
                        problems.append(f"{cfg.scheme} M={cfg.m_lte} "
                                        f"seed {seed}: row not in the CSV")
            if problems:
                sys.exit(f"sweep round {r} fails its checks: {problems}")
            golden["sweeps"][",".join(map(str, seeds))] = wl.file_digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {wl.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
