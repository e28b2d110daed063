"""Python calls per contention exchange and per grant: deterministic
cost guards.

The tests count Python ``call`` events with ``sys.setprofile`` over
short seeded runs, after a warm-up run of the same config so first-use
caches stay out, so host speed cannot make them flaky, and fail if a
change brings a frame back onto the per-exchange or per-grant path.
Set-up calls are counted too, spread over the run; the counts include
numpy's own Python frames, so a numpy upgrade may move them a little.

Current counts, calls per exchange on 0.2 s runs: wifi-only N=30 6.48,
lbt N=30 M=10 7.10, wifi-only N=120 8.54. None of these lbt runs
delivers an LTE-U burst: each node bursts once before its duty-off of
M+N-1 bursts, and every first burst collides. A second lbt case, N=30,
M=10 with a duty-off of one burst over 0.5 s, delivers bursts, so it
holds the burst path (``burst_transmit``, fading, rate) too: 17.34
calls per exchange, over fewer exchanges, since bursts take most of the
airtime.

The coordinated schemes spend most of their time in the contention-free
period, so they are held per planned grant, on 1 s runs at N=2, M=30:
hap-sa 35.38, hap-uca 9.56. Every hap-uca period repeats, so each
beacon after the first shifts the first period; hap-sa at M=30 plans
every period and pays a ``_plan`` frame each.

Budgets are upper bounds: the per-exchange ones are the counts rounded
up, the grant and burst ones about 1% above their counts. Tighten one
only with a count that shows it, record the old and new counts in
CHANGES.md, and never loosen one.
"""

import sys

import pytest

from coexsim.lbt import LbtParams
from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import RunResult, run_scenario

# The counts above, rounded up; the grant and burst budgets are about
# 1% above theirs.
BUDGET = {("wifi-only", 30): 7, ("lbt", 30): 8, ("wifi-only", 120): 9}
GRANT_BUDGET = {"hap-sa": 35.9, "hap-uca": 9.74}
BURST_BUDGET = 17.4     # lbt N=30, M=10, duty-off of one burst: 17.34


def _counted_run(cfg: ScenarioConfig) -> tuple[int, RunResult]:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    run_scenario(cfg, seed=1)   # first-use caches stay out of the count
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        res = run_scenario(cfg, seed=1)
    finally:
        sys.setprofile(previous)
    return calls, res


@pytest.mark.parametrize(
    "scheme,m_lte,n_wifi",
    [("wifi-only", 0, 30), ("lbt", 10, 30), ("wifi-only", 0, 120)],
    ids=["wifi-only-0", "lbt-10", "wifi-only-0-n120"])
def test_an_exchange_stays_within_its_python_call_budget(scheme, m_lte,
                                                         n_wifi):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=n_wifi, m_lte=m_lte,
                         duration_s=0.2,
                         channel=ChannelParams(pathloss_exponent=2.0))
    calls, res = _counted_run(cfg)
    exchanges = res.metrics.success_events + res.metrics.collision_events
    assert calls / exchanges <= BUDGET[scheme, n_wifi]


def test_a_run_with_lte_u_bursts_stays_within_its_python_call_budget():
    cfg = ScenarioConfig(scheme="lbt", n_wifi=30, m_lte=10, duration_s=0.5,
                         channel=ChannelParams(pathloss_exponent=2.0),
                         lbt=LbtParams(duty_off_factor=1))
    calls, res = _counted_run(cfg)
    assert res.metrics.lte_bits      # some burst was delivered
    exchanges = res.metrics.success_events + res.metrics.collision_events
    assert calls / exchanges <= BURST_BUDGET


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_a_grant_stays_within_its_python_call_budget(scheme):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=2, m_lte=30, duration_s=1.0)
    calls, res = _counted_run(cfg)
    assert calls / len(res.signalling.grants) <= GRANT_BUDGET[scheme]
