"""Run the benchmark over several seeds and report each metric's spread.

    python3 coexbench/spread.py --workloads paper-n30,sweep-lte --seeds 1-10 \
        [--trace 0] [--json results.json]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Runs are sequential. Use it to check
that the benchmark is steady and to record a commit's results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("context: "):
            result["context"] = json.loads(line[len("context: "):])
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, default=None,
                    help="write every value and summary here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        results = [run_once(bench["command"], workload, s, args.seconds,
                            args.trace)
                   for s in args.seeds]
        names = list(results[0]["metrics"])
        report[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {n: summarize([r["metrics"][n]["value"]
                                      for r in results]) for n in names},
            "contexts": [r.get("context") for r in results],
        }
        print(f"{workload}: correct={report[workload]['correct']} "
              f"failed={report[workload]['failed']}")
        for name, s in report[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:28s} median {s['median']:12.6f}  "
                  f"q1 {s['q1']:12.6f}  q3 {s['q3']:12.6f}  "
                  f"spread {s['spread']:.4f}  bound {bound}  {flag}")
        sys.stdout.flush()
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
