"""Command line front end.

Four subcommands:

* ``run``: one scenario config, one result row per seed.
* ``sweep``: cross product of an axis (n_wifi or m_lte), optional scheme
  list, and seeds; emits the raw per-run rows and the cross-seed
  aggregate table.
* ``oracle``: the analytical saturation-throughput table for a list of
  station counts (no simulation), for the default MAC timing or the
  timing and access mode of a scenario config.
* ``report``: re-aggregate an existing raw CSV.

Output is CSV with a fixed column order plus an adjacent ``.meta.json``
recording the resolved config and package version; the same config and
seeds always produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analytics import (AGG_METRICS, aggregate, saturation_throughput,
                        solve_fixed_point)
from .dcf import ACCESS_MODES
from .scenario import (SCHEMES, ConfigError, ScenarioConfig, expand_sweep,
                       load_config)
from .simulate import CSV_COLUMNS, ResultRow, run_scenario


def _name_list(text: str) -> list[str]:
    """A comma-separated list, each entry stripped; blank text is the
    empty list, which each command rejects by name. An empty entry is an
    argument error, so a stray comma cannot drop a value."""
    if not text.strip():
        return []
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return tokens


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, parsed as ``_name_list``."""
    return [int(tok) for tok in _name_list(text)]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_table(out: str | None, name: str, header: list[str],
                body: list[list[str]]) -> None:
    """Write a table to ``<out>/<name>``, or to stdout when out is unset."""
    if out:
        path = Path(out) / name
        _write_csv(path, header, body)
        print(f"wrote {path}", file=sys.stderr)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)


def _write_meta(path: Path, config: ScenarioConfig, extra: dict) -> None:
    payload = {"version": __version__, **extra,
               "config": dataclasses.asdict(config)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_point(point: tuple[ScenarioConfig, int]) -> ResultRow:
    config, seed = point
    return run_scenario(config, seed).row


def _run_all(points: list[tuple[ScenarioConfig, int]],
             parallel: int) -> list[ResultRow]:
    if parallel < 1:
        raise ConfigError("parallel", "must be >= 1")
    workers = min(parallel, len(points))
    rows: list[ResultRow] = []
    if workers > 1:
        # imported only to build a pool: multiprocessing and its imports
        # would add about 20 ms to every start. Each worker imports numpy
        # itself, with the first stream of its first run
        from concurrent.futures import ProcessPoolExecutor
        pool_context = ProcessPoolExecutor(max_workers=workers)
    else:
        pool_context = contextlib.nullcontext()
    with pool_context as pool:
        results = (pool.map if pool else map)(_run_point, points)
        for i, row in enumerate(results, 1):
            print(f"[{i}/{len(points)}] {row.scheme} N={row.n_wifi} "
                  f"M={row.m_lte} seed={row.seed}", file=sys.stderr)
            rows.append(row)
    rows.sort(key=lambda r: (r.scheme, r.n_wifi, r.m_lte, r.seed))
    return rows


def _emit_rows(out_dir: Path, stem: str, rows: list[ResultRow],
               config: ScenarioConfig, extra: dict) -> None:
    _write_csv(out_dir / f"{stem}.csv", list(CSV_COLUMNS),
               [r.csv_values() for r in rows])
    _write_meta(out_dir / f"{stem}.meta.json", config,
                {"rows": len(rows), **extra})


def _agg_table(rows) -> tuple[list[str], list[list[str]]]:
    header = ["scheme", "n_wifi", "m_lte", "n_seeds"]
    for name in AGG_METRICS:
        header += [f"{name}_mean", f"{name}_ci95"]
    body = []
    for agg in aggregate(rows):
        line = [agg.scheme, str(agg.n_wifi), str(agg.m_lte),
                str(agg.n_seeds)]
        for name in AGG_METRICS:
            line += [f"{agg.means[name]:.6f}", f"{agg.ci95[name]:.6f}"]
        body.append(line)
    return header, body


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seeds is not None:
        config = dataclasses.replace(config, seeds=tuple(args.seeds))
    points = [(config, seed) for seed in config.seeds]
    rows = _run_all(points, args.parallel)
    out = Path(args.out)
    _emit_rows(out, "runs", rows, config, {"command": "run"})
    print(f"wrote {out / 'runs.csv'}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.seeds is not None:
        config = dataclasses.replace(config, seeds=tuple(args.seeds))
    configs = expand_sweep(config, args.axis, args.values, args.schemes)
    points = [(cfg, seed) for cfg in configs for seed in cfg.seeds]
    rows = _run_all(points, args.parallel)
    out = Path(args.out)
    _emit_rows(out, "sweep_runs", rows, config, {
        "command": "sweep", "axis": args.axis, "values": args.values,
        "schemes": args.schemes or [config.scheme]})
    header, body = _agg_table([dataclasses.asdict(r) for r in rows])
    _write_csv(out / "sweep.csv", header, body)
    print(f"wrote {out / 'sweep.csv'}", file=sys.stderr)
    return 0


def _cmd_oracle(args) -> int:
    timing, access_mode = None, args.access_mode
    if args.config is not None:
        config = load_config(args.config)
        timing = config.timing
        access_mode = access_mode or config.access_mode
    access_mode = access_mode or "basic"
    if not args.n:
        raise ConfigError("n", "must be non-empty")
    header = ["n", "tau", "p", "throughput_bps"]
    body = []
    for n in args.n:
        if n < 1:
            raise ConfigError("n", "station counts must be >= 1")
        tau, p = solve_fixed_point(n, timing)
        s = saturation_throughput(n, timing, access_mode)
        body.append([str(n), f"{tau:.9f}", f"{p:.9f}", f"{s:.6f}"])
    _emit_table(args.out, "oracle.csv", header, body)
    return 0


def _cmd_report(args) -> int:
    # the columns the report reads, each with its parser, the test a
    # parsed value must pass (a metric must also be finite) and what a
    # value that fails it is
    count = (int, lambda v: v >= 0, "negative")
    metric = (float, lambda v: 0 <= v < math.inf, "negative or not finite")
    columns = {"scheme": (str, SCHEMES.__contains__, f"not one of {SCHEMES}"),
               "n_wifi": count, "m_lte": count,
               **dict.fromkeys(AGG_METRICS, metric),
               "collision_rate": (float, lambda v: 0 <= v <= 1,
                                  "outside [0, 1]")}
    # utf-8-sig drops the byte-order mark spreadsheet tools write
    with open(args.runs, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.DictReader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise ConfigError(
                "runs", f"{args.runs}: not UTF-8: {exc}") from exc
        for key in columns:
            if key not in (reader.fieldnames or ()):
                raise ConfigError(key, f"no such column in {args.runs}")
        raw = []
        for rec in reader:
            row = {}
            for key, (parse, valid, fault) in columns.items():
                cell = rec[key]
                try:
                    value = row[key] = parse(cell)
                    if valid(value):
                        continue
                except (TypeError, ValueError):
                    fault = "not a number"
                raise ConfigError(key, f"{args.runs} line {reader.line_num}: "
                                  + (f"{fault}: {cell!r}" if cell
                                     else "empty cell"))
            raw.append(row)
    header, body = _agg_table(raw)
    _emit_table(args.out, "report.csv", header, body)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexsim",
        description="Wi-Fi / LTE-U coexistence simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", type=_int_list, default=None,
                       help="comma-separated seed override")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes")

    p_run = sub.add_parser("run", help="simulate one scenario")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep an axis and aggregate")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=("n_wifi", "m_lte"),
                         required=True)
    p_sweep.add_argument("--values", type=_int_list, required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--schemes", type=_name_list, default=None,
                         help="comma-separated scheme list")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_oracle = sub.add_parser("oracle",
                              help="analytical saturation throughput table")
    p_oracle.add_argument("--n", type=_int_list, required=True,
                          help="comma-separated station counts")
    p_oracle.add_argument("--config", default=None,
                          help="scenario JSON whose MAC timing to use")
    p_oracle.add_argument("--access-mode", choices=ACCESS_MODES,
                          default=None,
                          help="default: the config's mode, else basic")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_report = sub.add_parser("report", help="re-aggregate a raw runs CSV")
    p_report.add_argument("--runs", required=True, help="raw runs CSV path")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ValueError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
