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
helper of the run (``_tick``), a step wrapper, the step, a lookup of
what the step emits and a dataclass record: 184.8 calls per grant for
hap-sa and 43.6 for hap-uca at N=2, M=30. Ticks and the other
coordinator callbacks are now queued as partials, a machine's table
was compiled once per class and records are named tuples, which brought
them to about 121 and 34. Planning sums its grants and checks them for
overlap in one plain loop, and the contention period's draws and
exchanges cost less as above: about 105 and 28, then 101 and 27.1 with
the medium as one process. The step wrapper and its emits lookup are
gone: a tick is the machine's own step and one tick handler, 86.9 and
25.7. The beacon then fired each contention-free period's ticks, grant
ends and ``cfp-end`` itself in one pass, with no ``schedule`` call or
partial per event, a grant became a named tuple built in one
``__new__`` frame, and a delivery summed its subframes in one helper
frame, not an ``lte_rate`` frame per subframe: 67.2 and 19.7. Each
user then drew its fading gains 64 at a time into a delivery block,
not one ``fading_gains`` call per grant, and a grant turned its slice
into bits in ``segment_bits`` (with one ``lte_rate`` call for an
aggregation grant's tail), where ``delivered_bits`` had done it: 66.8
and 19.9, the block's set-up and first draw spread over the three to
ten grants a user gets in this 1 s run. The run then delivered each
user's grants after it ended, in one ``cfp_transmit`` call that draws
all of the user's gains at once, where each ``txop-end`` had delivered
its grant and booked it to the ledger: 62.7 and 14.64.

The 0.2 s lbt run delivers no LTE-U burst: each node bursts once
before its duty-off of M+N-1 bursts, and every first burst collides. A
second lbt case, N=30, M=10 with a duty-off of one burst over 0.5 s,
delivers bursts, so it holds the burst path (``burst_transmit``,
fading, rate) too: 18.34 calls per exchange, over fewer exchanges,
since bursts take most of the airtime; 17.25 once a burst summed its
subframes in one helper frame, 17.37 once that helper handed the
subframes to ``segment_bits``, which hap grants share, and 17.21 once a
burst, which is whole subframes, summed ``segment_bits`` itself.

The tests count Python ``call`` events with ``sys.setprofile`` over
short seeded runs, so host speed cannot make them flaky, and fail if a
change brings a frame back onto the per-exchange or per-grant path.
Set-up calls are counted too, spread over the run; the counts include
numpy's own Python frames, so a numpy upgrade may move them a little.
"""

import sys

import pytest

from coexsim.lbt import LbtParams
from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import RunResult, run_scenario

# The figures these runs make, rounded up; the grant and burst budgets
# are about 1% above theirs. hap-sa makes 62.69 alone and 62.70 after
# other tests have run in the process; hap-uca makes 14.63 and 14.64.
BUDGET = {("wifi-only", 30): 7, ("lbt", 30): 8, ("wifi-only", 120): 9}
GRANT_BUDGET = {"hap-sa": 63.4, "hap-uca": 14.8}
BURST_BUDGET = 17.4     # lbt N=30, M=10, duty-off of one burst: 17.21


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
