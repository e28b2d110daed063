"""Golden digests: refactors must leave every run byte-identical.

Each case pins the event-trace hash and the CSV row of one short run.
The matrix covers all four schemes under both access modes, an LBT
duty-off override, a coordinated run without LTE users, and both
coordinated schemes at a 20 ms interval with one station and three
users. Three cases press on the contention driver's tie handling: a
tiny Wi-Fi window (cw 2 to 8) at N=40, where many stations share a
backoff and collisions redraw several at once; lbt with no duty-off at
a 20 us slot, where awake LTE-U nodes tie with stations; and hap-sa
with 40 stations at a 20 ms interval in rts-cts mode, where contention
periods end in an exchange that overruns them and defers the next
beacon.

The trace hash covers each event's time, kind and target only, so each
coordinated case also pins the sha256 of its signalling trace, in
``golden_signalling.json``: the machine of every user, every field of
every transition record and every field of every grant, one text line
each. A change that is meant to alter behaviour re-records both files
with

    PYTHONPATH=src python tests/test_golden_digests.py

and says why in its change notes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from coexsim.dcf import MacTiming
from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.signalling import SignallingTrace
from coexsim.simulate import RunResult, run_scenario

GOLDEN = Path(__file__).with_name("golden_digests.json")
GOLDEN_SIGNALLING = Path(__file__).with_name("golden_signalling.json")
NEAR = ChannelParams(pathloss_exponent=2.0)
SCHEMES = ("wifi-only", "lbt", "hap-sa", "hap-uca")


def _cases() -> dict[str, tuple[ScenarioConfig, int]]:
    cases = {}
    for scheme in SCHEMES:
        m = 0 if scheme == "wifi-only" else 5
        for mode in ("basic", "rts-cts"):
            cfg = ScenarioConfig(scheme=scheme, n_wifi=10, m_lte=m,
                                 duration_s=1.0, access_mode=mode,
                                 channel=NEAR)
            for seed in (1, 2):
                cases[f"{scheme}-{mode}-s{seed}"] = (cfg, seed)
    lbt = dataclasses.replace(ScenarioConfig().lbt, duty_off_factor=3)
    cases["lbt-duty-off-3"] = (ScenarioConfig(
        scheme="lbt", n_wifi=10, m_lte=5, duration_s=1.0, channel=NEAR,
        lbt=lbt), 1)
    cases["hap-sa-m0"] = (ScenarioConfig(
        scheme="hap-sa", n_wifi=10, m_lte=0, duration_s=1.0,
        channel=NEAR), 1)
    for scheme in ("hap-sa", "hap-uca"):
        cases[f"{scheme}-n1-m3-20ms"] = (ScenarioConfig(
            scheme=scheme, n_wifi=1, m_lte=3, duration_s=1.0,
            interval_us=20_000, channel=NEAR), 1)
    cases["wifi-only-n40-cw2-8"] = (ScenarioConfig(
        scheme="wifi-only", n_wifi=40, duration_s=1.0, channel=NEAR,
        timing=MacTiming(cw_min=2, cw_max=8, max_backoff_stage=2)), 1)
    cases["lbt-n20-m8-slot20-duty-off-0"] = (ScenarioConfig(
        scheme="lbt", n_wifi=20, m_lte=8, duration_s=1.0, channel=NEAR,
        timing=MacTiming(slot_us=20),
        lbt=dataclasses.replace(ScenarioConfig().lbt, duty_off_factor=0)), 1)
    cases["hap-sa-n40-m5-20ms-rts-cts"] = (ScenarioConfig(
        scheme="hap-sa", n_wifi=40, m_lte=5, duration_s=1.0,
        interval_us=20_000, access_mode="rts-cts", channel=NEAR), 1)
    return cases


def _digest(res: RunResult) -> dict:
    return {"trace_hash": res.trace_hash, "csv": res.row.csv_values()}


def _signalling_digest(trace: SignallingTrace) -> str:
    """sha256 of the trace as text, one line per machine, record and grant."""
    lines = [f"machine {uid} {kind}\n" for uid, kind in trace.machines.items()]
    lines += [f"transition {r.time_us} {r.ue_id} {r.state_before} {r.event} "
              f"{r.state_after} {r.detail}\n" for r in trace.transitions]
    lines += [f"grant {g.user_id} {g.start_us} {g.duration_us} "
              f"{g.n_subframes}\n" for g in trace.grants]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _coordinated() -> list[str]:
    return sorted(name for name, (cfg, _seed) in _cases().items()
                  if cfg.scheme in ("hap-sa", "hap-uca"))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_run_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(_cases())
    assert _digest(run_scenario(*_cases()[name])) == golden[name]


@pytest.mark.parametrize("name", _coordinated())
def test_signalling_trace_matches_golden_digest(name):
    golden = json.loads(GOLDEN_SIGNALLING.read_text())
    assert sorted(golden) == _coordinated()
    res = run_scenario(*_cases()[name])
    assert _signalling_digest(res.signalling) == golden[name]


def _write(path: Path, digests: dict) -> None:
    rows = [f" {json.dumps(name)}: {json.dumps(value)}"
            for name, value in sorted(digests.items())]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    results = {name: run_scenario(cfg, seed)
               for name, (cfg, seed) in _cases().items()}
    _write(GOLDEN, {name: _digest(res) for name, res in results.items()})
    _write(GOLDEN_SIGNALLING,
           {name: _signalling_digest(results[name].signalling)
            for name in _coordinated()})
