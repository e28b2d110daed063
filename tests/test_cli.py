"""Command line behaviour: files written, determinism, and exit codes."""

import json

import pytest

from coexsim.cli import main
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


def test_sweep_rejects_unknown_scheme(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n_wifi": 2, "duration_s": 0.1}))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--axis", "n_wifi", "--values", "2", "--schemes", "laa"])
    assert rc == 2
    assert "unknown scheme" in capsys.readouterr().err


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


def test_zero_bit_rate_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"timing": {"bit_rate_mbps": 0}}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: timing: bit_rate_mbps" in capsys.readouterr().err
