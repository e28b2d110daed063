"""Python calls per contention exchange and per grant: deterministic
cost guards.

Each exchange used to take about 20 Python frames: these runs made
20.2 calls per exchange for wifi-only and 22.0 for lbt. The frames were
an event-logging helper per event, a lambda per queued callback, and a
helper each for the exchange duration, the contention window and
filing a station. The engine then logged events inline and the driver
did that work in place, which brought an exchange to about 11 frames
(wifi-only 10.96, lbt 11.64 here; 13.57 for wifi-only at N=120). The
decision then ran its scan for the smallest backoff in place, the
``tx-end`` callback consumed the exchange's slots in place, and
``draw_backoff`` ran the replayed draw in its own frame: about 7.4
frames for wifi-only, 8.1 for lbt and 9.4 for wifi-only at N=120, where
the same set-up is spread over fewer exchanges per station. The medium
is now one process, a generator the engine resumes at each ``tx-end``,
that decides the next exchange in the same frame, so the decision's own
frame is gone: 6.45, 7.05 and 8.42.

The coordinated schemes spend most of their time in the contention-free
period, so they are held per planned grant instead. A standalone grant
queues ten subframe ticks, and each tick used to go through a lambda, a
helper of the run (``_tick``), the step, a lookup of what the step emits and a
dataclass record: 184.8 calls per grant for hap-sa and 43.6 for hap-uca
at N=2, M=30. Ticks and the other coordinator callbacks are now queued
as partials, a machine's table is compiled once per class and records
are named tuples, which brought them to about 121 and 34. Planning sums
its grants and checks them for overlap in one plain loop, and the
contention period's draws and exchanges cost less as above: about 105
and 28, then 101 and 27.1 with the medium as one process.

The tests count Python ``call`` events with ``sys.setprofile`` over
short seeded runs, so host speed cannot make them flaky, and fail if a
change brings a frame back onto the per-exchange or per-grant path.
Set-up calls are counted too, spread over the run; the counts include
numpy's own Python frames, so a numpy upgrade may move them a little.
"""

import sys

import pytest

from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import RunResult, run_scenario

# The figures these runs make, rounded up. hap-sa makes 100.96 alone and
# a few calls more after other tests have run in the process, so it gets
# one more call per grant.
BUDGET = {("wifi-only", 30): 7, ("lbt", 30): 8, ("wifi-only", 120): 9}
GRANT_BUDGET = {"hap-sa": 102, "hap-uca": 28}


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


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_a_grant_stays_within_its_python_call_budget(scheme):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=2, m_lte=30, duration_s=1.0)
    calls, res = _counted_run(cfg)
    assert calls / len(res.signalling.grants) <= GRANT_BUDGET[scheme]
