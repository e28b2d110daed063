"""Python calls per contention exchange: a deterministic cost guard.

Each exchange used to take about 20 Python frames: these runs made
20.2 calls per exchange for wifi-only and 22.0 for lbt. The frames were
an event-logging helper per event, a lambda per queued callback, and a
helper each for the exchange duration, the contention window and
filing a station. The engine now logs events inline and the driver
does that work in place, so an exchange costs about 11 frames.

The tests count Python ``call`` events with ``sys.setprofile`` over
short seeded runs, so host speed cannot make them flaky, and fail if a
change brings a frame back onto the per-exchange path. Set-up calls
are counted too, spread over the run; the counts include numpy's own
Python frames, so a numpy upgrade may move them a little.
"""

import sys

import pytest

from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import run_scenario

# The figures these runs make, rounded up.
BUDGET = {"wifi-only": 11, "lbt": 12}


def _calls_per_exchange(cfg: ScenarioConfig) -> float:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        res = run_scenario(cfg, seed=1)
    finally:
        sys.setprofile(previous)
    return calls / (res.metrics.success_events + res.metrics.collision_events)


@pytest.mark.parametrize("scheme,m_lte", [("wifi-only", 0), ("lbt", 10)])
def test_an_exchange_stays_within_its_python_call_budget(scheme, m_lte):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=30, m_lte=m_lte,
                         duration_s=0.2,
                         channel=ChannelParams(pathloss_exponent=2.0))
    run_scenario(cfg, seed=1)   # first-use caches stay out of the count
    assert _calls_per_exchange(cfg) <= BUDGET[scheme]
