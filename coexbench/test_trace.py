"""The benchmark's own tests: tracing must not perturb the simulator, the
audit must catch a broken run, and the reference slice must be fixed work
that does not load the simulator.

    python3 -m pytest -q coexbench/test_trace.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import coexsim.engine  # noqa: E402
from coexsim import cli, scenario, simulate  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

POINTS = (wl.Point("wifi-only", 5, 0), wl.Point("lbt", 5, 3),
          wl.Point("hap-sa", 5, 3), wl.Point("hap-uca", 5, 3))


def _run(point, seed=7):
    cfg = scenario.config_from_dict(point.payload(1.0))
    res = simulate.run_scenario(cfg, seed)
    return cfg, res


@pytest.mark.parametrize("point", POINTS, ids=lambda p: p.scheme)
def test_traced_run_matches_untraced(point):
    _, plain = _run(point)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, traced = _run(point)
    assert traced.trace_hash == plain.trace_hash
    assert traced.row.csv_values() == plain.row.csv_values()
    assert tracer.calls("engine.schedule") > 0
    assert tracer.calls("contention.tx_end") == (
        plain.metrics.success_events + plain.metrics.collision_events)


def test_uninstall_restores_every_patched_call():
    before = coexsim.engine.Simulator.schedule, cli.main, simulate.fsm_step
    with tracing.Tracer().installed():
        assert coexsim.engine.Simulator.schedule is not before[0]
    assert (coexsim.engine.Simulator.schedule, cli.main,
            simulate.fsm_step) == before


def test_traced_sweep_matches_untraced(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.sweep_payload([3, 4], duration_s=0.5)))
    digests = []
    tracer = tracing.Tracer(spill_dir=tmp_path)
    for traced in (False, True):
        out = tmp_path / f"out-{traced}"
        if traced:
            with tracer.installed():
                assert cli.main(wl.sweep_argv(config, out)) == 0
        else:
            assert cli.main(wl.sweep_argv(config, out)) == 0
        digests.append(wl.file_digests(out))
        assert wl.check_sweep_files(out, [3, 4]) == []
    assert digests[0] == digests[1]
    busy = tracer.collect_spills()
    assert busy and all(s > 0 for s in busy.values())
    assert tracer.calls(tracing.RUN_SPAN) == 12
    assert not list(tmp_path.glob("spans-*.json"))


def test_audit_flags_a_broken_ledger_and_isolation():
    cfg, res = _run(wl.Point("hap-sa", 5, 3))
    assert wl.audit(cfg, res) == []
    res.metrics.idle_us += 1
    cfp_start, _ = res.cfp_intervals[0]
    res.wifi_tx_intervals.append((cfp_start, cfp_start + 10))
    problems = wl.audit(cfg, res)
    assert any(p.startswith("ledger") for p in problems)
    assert any(p.startswith("isolation") for p in problems)


def test_audit_flags_oracle_deviation():
    cfg, res = _run(wl.Point("wifi-only", 5, 0))
    assert wl.audit(cfg, res) == []
    res.row = dataclasses.replace(
        res.row, wifi_aggregate_bps=res.row.wifi_aggregate_bps * 1.05)
    assert any(p.startswith("oracle") for p in wl.audit(cfg, res))



def test_reference_slice_is_fixed_work_outside_coexsim():
    assert reference.slice_work() == reference.slice_work()
    probe = ("import sys, reference; reference.slice_work(100); "
             "print(any(m.startswith('coexsim') for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
