"""Event queue ordering, clock rules, trace records, and stream identity."""

import numpy as np
import pytest
from scipy import stats

from coexsim.engine import (
    EVENT_KINDS,
    KIND_RANK,
    SchedulingError,
    Simulator,
    make_stream,
)


def test_kind_ranks_cover_expected_order():
    assert list(KIND_RANK) == [
        "tx-end", "txop-end", "cfp-end", "slot-boundary", "timer", "beacon"]
    assert sorted(KIND_RANK.values()) == list(range(6))
    assert EVENT_KINDS == tuple(KIND_RANK)


def test_same_timestamp_events_fire_in_rank_order():
    sim = Simulator(root_seed=0)
    fired = []
    # schedule in reverse rank order; execution must ignore insertion order
    for kind in reversed(EVENT_KINDS):
        sim.schedule(100, kind, "t", lambda k=kind: fired.append(k))
    sim.run_until(100)
    assert fired == list(EVENT_KINDS)


def test_equal_rank_ties_break_by_schedule_sequence():
    sim = Simulator(root_seed=0)
    fired = []
    for i in range(5):
        sim.schedule(7, "timer", f"n{i}", lambda i=i: fired.append(i))
    sim.run_until(7)
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_rejects_past_times_but_allows_now():
    sim = Simulator(root_seed=0)
    sim.schedule(10, "timer", "a", lambda: sim.schedule(10, "timer", "b"))
    sim.run_until(10)
    assert sim.now == 10
    with pytest.raises(SchedulingError):
        sim.schedule(9, "timer", "late")


def test_schedule_rejects_non_integer_time():
    sim = Simulator(root_seed=0)
    with pytest.raises(SchedulingError):
        sim.schedule(1.5, "timer", "x")


def test_schedule_accepts_numpy_integer_times():
    sim = Simulator(root_seed=0, keep_trace=True)
    seen = []
    sim.schedule(np.int64(12), "timer", "x", lambda: seen.append(sim.now))
    summary = sim.run_until(20)
    assert seen == [12] and type(seen[0]) is int
    assert summary.records == [(12, "timer", "x")]
    assert type(summary.records[0][0]) is int


def test_schedule_rejects_unknown_kind():
    sim = Simulator(root_seed=0)
    with pytest.raises(SchedulingError, match="unknown event kind"):
        sim.schedule(1, "tx-start", "x")


def test_run_until_pins_clock_even_with_no_events():
    sim = Simulator(root_seed=0)
    sim.run_until(12345)
    assert sim.now == 12345


def test_run_until_includes_events_at_t_end():
    sim = Simulator(root_seed=0, keep_trace=True)
    fired = []
    sim.schedule(50, "timer", "edge", lambda: fired.append(50))
    sim.schedule(51, "timer", "past-edge", lambda: fired.append(51))
    summary = sim.run_until(50)
    assert fired == [50]
    # the records list exactly the processed events, nothing still queued
    assert summary.processed == 1
    assert summary.records == [(50, "timer", "edge")]
    summary = sim.run_until(51)
    assert fired == [50, 51]
    assert summary.processed == 2
    assert summary.records == [(50, "timer", "edge"),
                               (51, "timer", "past-edge")]


def test_trace_hash_is_replay_stable_and_order_sensitive():
    def run(order):
        sim = Simulator(root_seed=3, hash_trace=True)
        for t, kind, tgt in order:
            sim.schedule(t, kind, tgt)
        return sim.run_until(100).trace_hash

    base = [(10, "timer", "a"), (20, "beacon", "b"), (30, "tx-end", "c")]
    assert run(base) == run(base)
    swapped = [(10, "timer", "b"), (20, "beacon", "a"), (30, "tx-end", "c")]
    assert run(base) != run(swapped)


def test_trace_hash_absent_unless_requested():
    sim = Simulator(root_seed=0)
    sim.schedule(1, "timer", "x")
    summary = sim.run_until(1)
    assert summary.trace_hash is None and summary.records is None


def test_by_kind_counts_processed_events():
    sim = Simulator(root_seed=0)
    for t in range(3):
        sim.schedule(t, "timer", "t")
    sim.schedule(1, "beacon", "b")
    summary = sim.run_until(10)
    assert summary.by_kind == {"timer": 3, "beacon": 1}
    assert summary.processed == 4


def test_fork_rng_rejects_duplicate_stream_ids():
    sim = Simulator(root_seed=1)
    sim.fork_rng("wifi-00")
    with pytest.raises(ValueError, match="already exists"):
        sim.fork_rng("wifi-00")


def test_make_stream_depends_only_on_seed_and_id():
    a = make_stream(42, "alpha").integers(0, 1 << 30, size=8)
    b = make_stream(42, "alpha").integers(0, 1 << 30, size=8)
    c = make_stream(42, "beta").integers(0, 1 << 30, size=8)
    d = make_stream(43, "alpha").integers(0, 1 << 30, size=8)
    assert (a == b).all()
    assert (a != c).any()
    assert (a != d).any()


def test_fork_order_does_not_change_stream_output():
    s1 = Simulator(root_seed=9)
    first_then_second = (s1.fork_rng("one").integers(0, 100, 4),
                         s1.fork_rng("two").integers(0, 100, 4))
    s2 = Simulator(root_seed=9)
    second_then_first = (s2.fork_rng("two").integers(0, 100, 4),
                         s2.fork_rng("one").integers(0, 100, 4))
    assert (first_then_second[0] == second_then_first[1]).all()
    assert (first_then_second[1] == second_then_first[0]).all()


def test_sibling_streams_look_independent():
    # crude contingency check: joint occupancy of 4x4 value bins should not
    # deviate from independence at any interesting significance level
    a = make_stream(7, "station-a").integers(0, 4, size=4000)
    b = make_stream(7, "station-b").integers(0, 4, size=4000)
    table = np.zeros((4, 4), dtype=int)
    for x, y in zip(a, b):
        table[x, y] += 1
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.01
