"""Command line behaviour: files written, determinism, and exit codes."""

import codecs
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coexsim import cli
from coexsim.analytics import saturation_throughput, solve_fixed_point
from coexsim.cli import main
from coexsim.scenario import config_from_dict
from coexsim.simulate import CSV_COLUMNS


@pytest.fixture
def small_config(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "scheme": "lbt", "n_wifi": 3, "m_lte": 2, "duration_s": 0.2,
        "seeds": [1, 2], "channel": {"pathloss_exponent": 2.0},
    }))
    return cfg


def test_run_writes_csv_and_meta(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(small_config), "--out", str(out)])
    assert rc == 0
    csv_text = (out / "runs.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3   # header + one row per seed
    assert lines[1].startswith("lbt,3,2,1,")
    assert lines[2].startswith("lbt,3,2,2,")

    meta = json.loads((out / "runs.meta.json").read_text())
    assert meta["rows"] == 2 and meta["command"] == "run"
    assert "version" in meta
    assert meta["config"]["scheme"] == "lbt"
    assert meta["config"]["seeds"] == [1, 2]
    assert "timestamp" not in meta

    err = capsys.readouterr().err
    assert "[1/2]" in err and "[2/2]" in err


def test_run_completes_when_users_are_mid_cycle_at_a_beacon(tmp_path):
    # at 50 ms a standalone user granted late in the CFP is still asleep
    # when the next beacon fires; the planner must skip it, not fail
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scheme": "hap-sa", "n_wifi": 0, "m_lte": 6,
                               "interval_us": 50000}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "runs.csv").read_text().strip().split("\n")
    assert lines[1].startswith("hap-sa,0,6,1,")


def test_run_is_byte_identical_across_invocations(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(small_config), "--out", str(out_a)])
    main(["run", "--config", str(small_config), "--out", str(out_b)])
    assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()
    assert (out_a / "runs.meta.json").read_bytes() == \
        (out_b / "runs.meta.json").read_bytes()


def test_run_seed_override(tmp_path, small_config):
    out = tmp_path / "out"
    main(["run", "--config", str(small_config), "--out", str(out),
          "--seeds", "9"])
    lines = (out / "runs.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("lbt,3,2,9,")


def test_run_parallel_matches_serial(tmp_path, small_config):
    out_s, out_p = tmp_path / "s", tmp_path / "p"
    main(["run", "--config", str(small_config), "--out", str(out_s)])
    main(["run", "--config", str(small_config), "--out", str(out_p),
          "--parallel", "2"])
    assert (out_s / "runs.csv").read_bytes() == (out_p / "runs.csv").read_bytes()


def test_sweep_emits_raw_and_aggregate(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "scheme": "wifi-only", "n_wifi": 2, "duration_s": 0.2, "seeds": [1, 2],
    }))
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--axis", "n_wifi", "--values", "2,3"])
    assert rc == 0
    raw_lines = (out / "sweep_runs.csv").read_text().strip().split("\n")
    assert len(raw_lines) == 1 + 4   # 2 values x 2 seeds
    agg_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(agg_lines) == 1 + 2   # one aggregate row per value
    assert agg_lines[0].startswith("scheme,n_wifi,m_lte,n_seeds,")
    assert "per_user_wifi_throughput_bps_mean" in agg_lines[0]
    meta = json.loads((out / "sweep_runs.meta.json").read_text())
    assert meta["axis"] == "n_wifi" and meta["values"] == [2, 3]


@pytest.mark.parametrize("seeds,values,schemes,field", [
    ("1,1,2", "3,3", None, "seeds"),
    ("1,2", "3,3", None, "values"),
    ("1,2", "3", "lbt,lbt", "schemes"),
])
def test_sweep_rejects_repeated_points(tmp_path, capsys, seeds, values,
                                       schemes, field):
    # each repeat would count one run twice in n_seeds and the 95% interval
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"scheme": "lbt", "n_wifi": 2, "m_lte": 1, '
                   '"duration_s": 0.1, "seeds": [%s]}' % seeds)
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--axis", "n_wifi", "--values", values]
    rc = main(argv + (["--schemes", schemes] if schemes else []))
    assert rc == 2
    assert f"error: {field}: must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_m_lte_sweep_runs_wifi_only_once(tmp_path):
    # wifi-only pins m_lte to 0, so every value of the axis is one config
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n_wifi": 2, "duration_s": 0.1,
                               "seeds": [1, 2]}))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="ignores"):
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--axis", "m_lte", "--values", "0,1",
                   "--schemes", "wifi-only,lbt"])
    assert rc == 0
    with open(out / "sweep_runs.csv", newline="") as fh:
        runs = list(csv.DictReader(fh))
    assert sorted((r["scheme"], r["m_lte"], r["seed"]) for r in runs) == [
        ("lbt", "0", "1"), ("lbt", "0", "2"), ("lbt", "1", "1"),
        ("lbt", "1", "2"), ("wifi-only", "0", "1"), ("wifi-only", "0", "2")]
    with open(out / "sweep.csv", newline="") as fh:
        points = [(r["scheme"], r["m_lte"], r["n_seeds"])
                  for r in csv.DictReader(fh)]
    assert ("wifi-only", "0", "2") in points and len(points) == 3


def test_sweep_rejects_unknown_scheme(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n_wifi": 2, "duration_s": 0.1}))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--axis", "n_wifi", "--values", "2", "--schemes", "laa"])
    assert rc == 2
    assert "unknown scheme" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", " "])
def test_sweep_rejects_an_empty_scheme_list(tmp_path, small_config, capsys,
                                            text):
    # a blank list must not fall back to the config's own scheme
    rc = main(["sweep", "--config", str(small_config),
               "--out", str(tmp_path / "o"), "--axis", "n_wifi",
               "--values", "2", "--schemes", text])
    assert rc == 2
    assert capsys.readouterr().err == "error: schemes: must be non-empty\n"
    assert not (tmp_path / "o").exists()


def test_sweep_strips_each_scheme(tmp_path, small_config):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(small_config), "--out", str(out),
               "--axis", "n_wifi", "--values", "2", "--seeds", "1",
               "--schemes", " hap-sa , lbt"])
    assert rc == 0
    with open(out / "sweep_runs.csv", newline="") as fh:
        assert [r["scheme"] for r in csv.DictReader(fh)] == ["hap-sa", "lbt"]
    meta = json.loads((out / "sweep_runs.meta.json").read_text())
    assert meta["schemes"] == ["hap-sa", "lbt"]


def test_oracle_table_to_stdout(capsys):
    rc = main(["oracle", "--n", "1,5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "n,tau,p,throughput_bps"
    n1 = out[1].split(",")
    assert n1[0] == "1"
    assert float(n1[1]) == pytest.approx(2.0 / 17.0, abs=1e-9)
    assert float(n1[3]) == pytest.approx(44223954.64, rel=1e-6)
    assert float(out[2].split(",")[3]) == pytest.approx(47001447.82, rel=1e-6)


def test_oracle_rejects_zero_stations(capsys):
    rc = main(["oracle", "--n", "0"])
    assert rc == 2
    assert "station counts" in capsys.readouterr().err


def test_oracle_rejects_an_empty_station_list(capsys):
    assert main(["oracle", "--n", ""]) == 2
    assert capsys.readouterr().err == "error: n: must be non-empty\n"


@pytest.mark.parametrize("command,flag,text", [
    ("oracle", "--n", "1,,5"),
    ("sweep", "--values", "2,,3"),
    ("sweep", "--seeds", "1,2,"),
    ("run", "--seeds", " ,1"),
    ("sweep", "--schemes", ","),
    ("sweep", "--schemes", "lbt,,wifi-only"),
])
def test_an_empty_list_entry_exits_2_naming_its_flag(tmp_path, small_config,
                                                     capsys, command, flag,
                                                     text):
    # a stray comma must not drop a value and run the rest
    argv = {"oracle": ["oracle"],
            "sweep": ["sweep", "--config", str(small_config), "--out",
                      str(tmp_path / "o"), "--axis", "n_wifi",
                      "--values", "2"],
            "run": ["run", "--config", str(small_config), "--out",
                    str(tmp_path / "o")]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, text])
    assert exit_info.value.code == 2
    assert f"argument {flag}: empty entry in {text!r}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,table", [
    (["--n", "1,5,30"],
     "n,tau,p,throughput_bps\n"
     "1,0.117647059,0.000000000,44223954.642279\n"
     "5,0.076148902,0.271536298,47001447.818814\n"
     "30,0.025889989,0.532660813,40265980.161252\n"),
    (["--n", "2,10", "--access-mode", "rts-cts"],
     "n,tau,p,throughput_bps\n"
     "2,0.104620632,0.104620632,37076789.033652\n"
     "10,0.052479894,0.384403833,37710071.164031\n"),
])
def test_oracle_without_a_config_prints_the_default_timing_table(
        capsys, argv, table):
    assert main(["oracle", *argv]) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("mode_flag,config_mode,expected_mode", [
    ([], None, "basic"),
    ([], "rts-cts", "rts-cts"),
    (["--access-mode", "basic"], "rts-cts", "basic"),
])
def test_oracle_reads_timing_and_access_mode_from_a_config(
        tmp_path, capsys, mode_flag, config_mode, expected_mode):
    payload = {"timing": {"cw_min": 32, "payload_bytes": 500}}
    if config_mode is not None:
        payload["access_mode"] = config_mode
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert main(["oracle", "--n", "1,5,30", "--config", str(path),
                 *mode_flag]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    timing = config_from_dict(payload).timing
    for n, row in zip((1, 5, 30), rows, strict=True):
        tau, p = solve_fixed_point(n, timing)
        s = saturation_throughput(n, timing, expected_mode)
        assert row == f"{n},{tau:.9f},{p:.9f},{s:.6f}"
    # the config's timing moves every column off the default table
    assert rows[0].split(",")[1] == f"{2 / 33:.9f}"


def test_oracle_with_a_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"timing": {"cw_min": 0}}))
    assert main(["oracle", "--n", "5", "--config", str(path)]) == 2
    assert "error: timing: need 1 <= cw_min <= cw_max" in (
        capsys.readouterr().err)


def test_report_round_trips_sweep_output(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "scheme": "wifi-only", "n_wifi": 2, "duration_s": 0.2, "seeds": [1, 2],
    }))
    out = tmp_path / "out"
    main(["sweep", "--config", str(cfg), "--out", str(out),
          "--axis", "n_wifi", "--values", "2,3"])
    capsys.readouterr()
    rc = main(["report", "--runs", str(out / "sweep_runs.csv")])
    assert rc == 0
    reported = capsys.readouterr().out.strip().split("\n")
    expected = (out / "sweep.csv").read_text().strip().split("\n")
    # the report is computed from the 6-decimal CSV values, so numeric
    # cells may wobble in the last printed digit
    assert reported[0] == expected[0]
    for got, want in zip(reported[1:], expected[1:]):
        g, w = got.split(","), want.split(",")
        assert g[:4] == w[:4]
        for a, b in zip(g[4:], w[4:]):
            assert float(a) == pytest.approx(float(b), abs=2e-5)



def _runs_csv(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scheme": "wifi-only", "n_wifi": 2,
                               "duration_s": 0.1}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    return out / "runs.csv"


def test_report_names_a_missing_column(tmp_path, capsys):
    runs = _runs_csv(tmp_path, capsys)
    lines = runs.read_text().splitlines()
    drop = lines[0].split(",").index("m_lte")
    runs.write_text("".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != drop) + "\n"
        for line in lines))
    rc = main(["report", "--runs", str(runs)])
    assert rc == 2
    assert "error: m_lte: no such column" in capsys.readouterr().err


def _report_with_cell(tmp_path, capsys, cell, column="total_bps"):
    """Exit code and stderr of `report` over a row whose cell in column
    is cell."""
    runs = _runs_csv(tmp_path, capsys)
    lines = runs.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[col] = cell
    runs.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
    rc = main(["report", "--runs", str(runs)])
    return rc, capsys.readouterr().err


def test_report_names_a_non_numeric_column(tmp_path, capsys):
    rc, err = _report_with_cell(tmp_path, capsys, "fast")
    assert rc == 2
    assert "error: total_bps: " in err
    assert "line 2: not a number: 'fast'" in err


def test_report_rejects_a_runs_file_that_is_not_utf_8(tmp_path, capsys):
    runs = _runs_csv(tmp_path, capsys)
    runs.write_bytes(b"\xff" + runs.read_bytes())
    assert main(["report", "--runs", str(runs)]) == 2
    assert f"error: runs: {runs}: not UTF-8: " in (
        capsys.readouterr().err)


def test_report_rejects_a_row_with_an_empty_scheme(tmp_path, capsys):
    # an empty cell would group the row under a scheme named ""
    runs = _runs_csv(tmp_path, capsys)
    header, row = runs.read_text().splitlines()
    runs.write_text(f"{header}\n{row}\n,{row.split(',', 1)[1]}\n")
    assert main(["report", "--runs", str(runs)]) == 2
    assert f"error: scheme: {runs} line 3: empty cell" in (
        capsys.readouterr().err)


def test_report_reads_a_runs_file_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet tools write UTF-8 with a byte-order mark, which must not
    # become part of the first column's name
    runs = _runs_csv(tmp_path, capsys)
    assert main(["report", "--runs", str(runs)]) == 0
    plain = capsys.readouterr().out
    runs.write_bytes(codecs.BOM_UTF8 + runs.read_bytes())
    assert main(["report", "--runs", str(runs)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_report_rejects_a_non_finite_cell(tmp_path, capsys, cell):
    rc, err = _report_with_cell(tmp_path, capsys, cell)
    assert rc == 2
    assert "error: total_bps: " in err and "line 2: " in err


@pytest.mark.parametrize("column, cell, fault", [
    ("scheme", "hap-zz", "not one of ('wifi-only', 'lbt', 'hap-sa', "
                         "'hap-uca'): 'hap-zz'"),
    ("n_wifi", "-3", "negative: '-3'"),
    ("m_lte", "-1", "negative: '-1'"),
    ("total_bps", "-0.5", "negative or not finite: '-0.5'"),
    ("per_user_wifi_throughput_bps", "-1", "negative or not finite: '-1'"),
    ("collision_rate", "1.000001", "outside [0, 1]: '1.000001'"),
    ("collision_rate", "-0.1", "outside [0, 1]: '-0.1'"),
], ids=["scheme", "n_wifi", "m_lte", "metric", "per-user", "rate-above-1",
        "rate-below-0"])
def test_report_rejects_a_cell_outside_what_a_run_writes(tmp_path, capsys,
                                                         column, cell, fault):
    # a hand-edited runs file must not be reported as if a run wrote it
    rc, err = _report_with_cell(tmp_path, capsys, cell, column)
    assert rc == 2
    assert f"error: {column}: " in err and f"line 2: {fault}" in err


@pytest.mark.parametrize("column, cell", [
    ("n_wifi", "0"), ("collision_rate", "1.0"), ("collision_rate", "0"),
    ("total_bps", "0.0")])
def test_report_reads_a_cell_at_the_edge_of_its_range(tmp_path, capsys,
                                                      column, cell):
    rc, err = _report_with_cell(tmp_path, capsys, cell, column)
    assert rc == 0 and err == ""


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_parallel_below_one_is_a_config_error(tmp_path, small_config, capsys,
                                               parallel):
    rc = main(["run", "--config", str(small_config),
               "--out", str(tmp_path / "o"), "--parallel", parallel])
    assert rc == 2
    assert "error: parallel: must be >= 1" in capsys.readouterr().err


def test_pool_is_no_larger_than_the_points_it_runs(tmp_path, small_config,
                                                   monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size asked for; maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            return map(fn, points)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "o"
    common = ["--config", str(small_config), "--out", str(out)]
    # two seeds: two workers, not 64
    assert main(["run", *common, "--parallel", "64"]) == 0
    # one point: no pool at all
    assert main(["run", *common, "--parallel", "64", "--seeds", "5"]) == 0
    # three points, two workers asked for: two workers
    assert main(["sweep", *common, "--parallel", "2", "--seeds", "1",
                 "--axis", "n_wifi", "--values", "2,3,4"]) == 0
    assert sizes == [2, 2]


# One fresh interpreter serves the tests below: each in-process test runs
# with numpy and multiprocessing already imported by the suite. The probe
# records what each step of set-up loaded, then runs one golden case,
# whose first stream is the one that imports numpy. A step that raises is
# recorded with its traceback, so it fails only the test that reads it.
PROBE = """\
import contextlib, importlib, io, json, sys, traceback
seen = {}
def step(name, fn):
    try:
        result = fn()
    except Exception:
        seen[name] = {"error": traceback.format_exc()}
    else:
        seen[name] = {"result": result, "loaded": [
            m for m in ("numpy", "multiprocessing") if m in sys.modules]}
def quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return importlib.import_module("coexsim.cli").main(list(argv))
def build_configs():
    from coexsim.scenario import config_from_dict
    for scheme in ("wifi-only", "lbt", "hap-sa", "hap-uca"):
        config_from_dict({"scheme": scheme, "n_wifi": 5,
                          "m_lte": 0 if scheme == "wifi-only" else 3})
def golden_run():
    from coexsim.scenario import config_from_dict
    from coexsim.simulate import run_scenario
    res = run_scenario(config_from_dict(json.loads(sys.argv[2])), 1)
    return {"trace_hash": res.trace_hash, "csv": res.row.csv_values()}
step("import coexsim", lambda: importlib.import_module("coexsim").__name__)
step("import coexsim.cli",
     lambda: importlib.import_module("coexsim.cli").__name__)
step("config_from_dict", build_configs)
step("oracle", lambda: quiet_main("oracle", "--n", "5,10"))
step("report", lambda: quiet_main("report", "--runs", sys.argv[1]))
step("run", golden_run)
print(json.dumps(seen))
"""
GOLDEN = Path(__file__).with_name("golden_digests.json")
# the golden case hap-sa-n1-m3-20ms, run with seed 1
GOLDEN_CASE = "hap-sa-n1-m3-20ms"
GOLDEN_CONFIG = {"scheme": "hap-sa", "n_wifi": 1, "m_lte": 3,
                 "duration_s": 1.0, "interval_us": 20_000,
                 "channel": {"pathloss_exponent": 2.0}}


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """What the probe saw, run once per module in a fresh interpreter."""
    golden = json.loads(GOLDEN.read_text())[GOLDEN_CASE]
    runs = tmp_path_factory.mktemp("probe") / "runs.csv"
    runs.write_text(",".join(CSV_COLUMNS) + "\n"
                    + ",".join(golden["csv"]) + "\n")
    src = str(Path(cli.__file__).parents[1])    # the coexsim under test
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(runs), json.dumps(GOLDEN_CONFIG)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def _step(probe: dict, name: str) -> dict:
    """One probe step's record; a step that raised fails with its traceback."""
    record = probe[name]
    assert "error" not in record, record.get("error")
    return record


def test_importing_the_cli_loads_no_multiprocessing(fresh_interpreter):
    # only a sweep or run with --parallel > 1 builds a process pool; every
    # other start must not pay for importing one
    assert "multiprocessing" not in _step(fresh_interpreter,
                                          "import coexsim.cli")["loaded"]


def test_set_up_oracle_and_report_load_no_numpy(fresh_interpreter):
    # numpy is first imported by a run's first stream
    steps = ("import coexsim", "import coexsim.cli", "config_from_dict",
             "oracle", "report")
    records = {step: _step(fresh_interpreter, step) for step in steps}
    assert {step: "numpy" in records[step]["loaded"] for step in steps} == (
        dict.fromkeys(steps, False))
    assert records["oracle"]["result"] == 0
    assert records["report"]["result"] == 0


def test_a_run_that_imports_numpy_itself_matches_its_golden_digest(
        fresh_interpreter):
    # every in-process run finds numpy already loaded by the suite; here
    # the run's first stream imports it
    run = _step(fresh_interpreter, "run")
    assert run["result"] == json.loads(GOLDEN.read_text())[GOLDEN_CASE]
    assert "numpy" in run["loaded"]


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_a_config_that_is_not_utf_8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff{"n_wifi": 2}')
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: $: not valid JSON: 'utf-8' codec can't decode" in (
        capsys.readouterr().err)


def test_over_long_integer_literal_exits_2(tmp_path, capsys):
    # json refuses integers past Python's digit limit with a ValueError
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_wifi": %s}' % ("9" * 5000))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: $: not valid JSON" in capsys.readouterr().err


def test_zero_bit_rate_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"timing": {"bit_rate_mbps": 0}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: timing.bit_rate_mbps: must be positive" in (
        capsys.readouterr().err)


def test_negative_spectral_efficiency_cap_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "scheme": "lbt", "n_wifi": 5, "m_lte": 2, "duration_s": 1,
        "channel": {"spectral_efficiency_cap": -1}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: channel.spectral_efficiency_cap: must be positive" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("field,value,where", [
    # a 1 m SNR past the float range, a check across fields
    ("tx_power_dbm", 4000, "channel: "),
    # gain would grow with distance, a check of the field alone
    ("pathloss_exponent", -1e6, "channel.pathloss_exponent: "),
    # noise power of about -3374 dBm, a check across fields
    ("bandwidth_hz", 1e-320, "channel: "),
])
def test_a_channel_whose_snr_overflows_is_a_config_error(
        tmp_path, capsys, field, value, where):
    # each used to exit 1 with an OverflowError from radio.mean_snr
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "scheme": "lbt", "n_wifi": 2, "m_lte": 1, "duration_s": 0.1,
        "channel": {field: value}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {where}" in err and field in err
    assert "Traceback" not in err


def test_lbt_burst_without_a_data_subframe_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "scheme": "lbt", "n_wifi": 2, "m_lte": 2, "duration_s": 0.2,
        "lbt": {"burst_us": 10}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: lbt.burst_us: must hold" in capsys.readouterr().err


def test_zero_payload_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "scheme": "wifi-only", "n_wifi": 2, "duration_s": 0.2,
        "timing": {"payload_bytes": 0}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: timing.payload_bytes: must be >= 1" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_an_exchange_longer_than_the_contention_period_is_a_config_error(
        tmp_path, capsys, scheme):
    # at 0.1 Mbit/s one exchange outlasts the gap between CFP and beacon
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "scheme": scheme, "n_wifi": 2, "m_lte": 1, "duration_s": 0.2,
        "timing": {"bit_rate_mbps": 0.1}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: timing: a Wi-Fi exchange of 127306 µs" in err
    assert "contention period" in err


@pytest.mark.parametrize("scheme,m_lte,duration_s,message", [
    ("hap-sa", 1, "1e-7", "rounds to 0"),
    ("wifi-only", 0, "1e-7", "rounds to 0"),
    ("wifi-only", 0, "1e400", "finite"),   # JSON reads it as infinity
])
def test_a_duration_of_no_run_is_a_config_error(tmp_path, capsys, scheme,
                                                 m_lte, duration_s, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scheme": "%s", "n_wifi": 2, "m_lte": %d, '
                   '"duration_s": %s}' % (scheme, m_lte, duration_s))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: duration_s: " in err and message in err


@pytest.mark.parametrize("block,field,value", [
    ("timing", "cw_min", "16.5"),
    ("timing", "max_backoff_stage", "2.5"),
    ("lbt", "contention_window", "4.5"),
    ("timing", "slot_us", "9.5"),
    ("lbt", "burst_us", "8064.5"),
    ("channel", "pathloss_exponent", "NaN"),
    ("channel", "bandwidth_hz", "Infinity"),
    ("timing", "bit_rate_mbps", "Infinity"),
])
def test_a_nested_field_of_the_wrong_kind_is_a_config_error(
        tmp_path, capsys, block, field, value):
    # JSON text, since NaN and Infinity are only literals there
    bad = tmp_path / "bad.json"
    bad.write_text('{"scheme": "lbt", "n_wifi": 2, "m_lte": 1, '
                   '"duration_s": 0.1, "%s": {"%s": %s}}'
                   % (block, field, value))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: {block}.{field}: " in capsys.readouterr().err


def test_an_lbt_window_past_an_int64_draw_exits_2_naming_it(tmp_path,
                                                            capsys):
    config = tmp_path / "cfg.json"
    for window, rc in ((2**63 + 1, 2), (2**63, 0)):
        config.write_text(json.dumps({
            "scheme": "lbt", "n_wifi": 2, "m_lte": 2, "duration_s": 0.1,
            "lbt": {"contention_window": window}}))
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / str(window))]) == rc
    err = capsys.readouterr().err
    assert "error: lbt.contention_window: must be in [1, 2**63]" in err
