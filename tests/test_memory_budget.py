"""Bytes a run's result still holds, per contention exchange: a
deterministic memory guard.

The isolation audit reads every busy period of a run, so a run keeps one
(start, end) pair per exchange, and those pairs are most of what a
finished run holds. Kept as a list of tuples, a pair took about 129
bytes (the list slot, the tuple and two ints): 128.8 per exchange for
wifi-only at N=30, 129.7 for lbt, 129.2 for wifi-only at N=120, and
146.9 for hap-sa, whose result also holds its grants and signalling
records. ``contention.BusyPeriods`` keeps the pairs flat in one int64
array, 16 bytes a pair plus the array's spare room: about 16.6, 17.4,
16.6 and 34.9.

The tests measure with ``tracemalloc`` the bytes still allocated while
the result of a seeded 1 s run is held, against those before the run, so
host speed cannot make them flaky. They fail if a change brings a
per-exchange object back into what a run keeps.
"""

import gc
import tracemalloc

import pytest

from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import run_scenario

# Upper bounds on bytes held per exchange, with room above the figures
# the runs make; a tuple per exchange would take more than 100.
BUDGET = {("wifi-only", 30, 0): 24, ("lbt", 30, 10): 24,
          ("wifi-only", 120, 0): 24, ("hap-sa", 30, 10): 48}


def _held_per_exchange(cfg: ScenarioConfig) -> float:
    run_scenario(cfg, seed=1)   # first-use caches stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_scenario(cfg, seed=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    exchanges = res.metrics.success_events + res.metrics.collision_events
    return held / exchanges


@pytest.mark.parametrize("scheme,n_wifi,m_lte", list(BUDGET),
                         ids=[f"{s}-n{n}-m{m}" for s, n, m in BUDGET])
def test_a_run_keeps_few_bytes_per_exchange(scheme, n_wifi, m_lte):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=n_wifi, m_lte=m_lte,
                         duration_s=1.0,
                         channel=ChannelParams(pathloss_exponent=2.0))
    assert _held_per_exchange(cfg) <= BUDGET[scheme, n_wifi, m_lte]
