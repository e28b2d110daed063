"""Event queue ordering, clock rules, trace records, and stream identity."""

import hashlib
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from coexsim.engine import (
    EVENT_KINDS,
    HASH_BATCH,
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


def _inline_probe(time, kind, *queued):
    """Ask fire_inline about (time, kind) from a callback at t=5."""
    sim = Simulator(root_seed=0, keep_trace=True)
    got = []
    for t, k in queued:
        sim.schedule(t, k, "queued")
    sim.schedule(5, "timer", "probe",
                 lambda: got.append(sim.fire_inline(time, kind, "inline")))
    summary = sim.run_until(10)
    return got[0], summary


def test_fire_inline_logs_the_event_as_the_queue_would():
    got, summary = _inline_probe(7, "slot-boundary", (7, "timer"))
    assert got is True
    assert summary.records == [(5, "timer", "probe"),
                               (7, "slot-boundary", "inline"),
                               (7, "timer", "queued")]
    assert summary.processed == 3
    assert summary.by_kind == {"timer": 2, "slot-boundary": 1}


def test_fire_inline_declines_an_equal_time_and_rank_head():
    # the queued event has the lower sequence number, so it goes first
    assert _inline_probe(7, "timer", (7, "timer"))[0] is False
    assert _inline_probe(7, "timer", (7, "tx-end"))[0] is False
    assert _inline_probe(7, "timer", (6, "beacon"))[0] is False
    assert _inline_probe(7, "timer", (7, "beacon"))[0] is True
    got, summary = _inline_probe(7, "timer", (7, "timer"))
    assert summary.records == [(5, "timer", "probe"), (7, "timer", "queued")]


def test_fire_inline_declines_past_t_end_and_outside_run_until():
    assert _inline_probe(10, "timer")[0] is True
    assert _inline_probe(11, "timer")[0] is False
    sim = Simulator(root_seed=0)
    assert sim.fire_inline(0, "timer", "x") is False
    sim.run_until(10)
    assert sim.fire_inline(10, "timer", "x") is False
    assert sim.trace_summary().processed == 0


def test_fire_inline_rejects_past_times_and_unknown_kinds():
    with pytest.raises(SchedulingError, match="clock is already"):
        _inline_probe(4, "timer")
    with pytest.raises(SchedulingError, match="unknown event kind"):
        _inline_probe(6, "tx-start")


@st.composite
def _programs(draw):
    """Events (delta, kind, target, try inline), each a root or the child
    of an earlier one, and the two end times to run to."""
    n = draw(st.integers(1, 30))
    specs = [draw(st.tuples(st.integers(0, 4), st.sampled_from(EVENT_KINDS),
                            st.sampled_from(["a", "b"]), st.booleans()))
             for _ in range(n)]
    parents = [None] + [draw(st.one_of(st.none(), st.integers(0, j - 1)))
                        for j in range(1, n)]
    t_end = draw(st.integers(0, 12))
    return specs, parents, t_end, t_end + draw(st.integers(0, 12))


def _run_program(program, inline: bool):
    specs, parents, t_end, t_later = program
    sim = Simulator(root_seed=0, keep_trace=True, hash_trace=True)
    if not inline:
        sim.fire_inline = lambda time, kind, target: False
    children = [[j for j, p in enumerate(parents) if p == i]
                for i in range(len(specs))]
    fired = []

    def body(i):
        # schedule the follow-ups; only the last may go inline, as the
        # last statement of the callback
        fired.append((sim.now, i))
        kids = children[i]
        for pos, j in enumerate(kids):
            delta, kind, target, try_inline = specs[j]
            t = sim.now + delta
            if (try_inline and pos == len(kids) - 1
                    and sim.fire_inline(t, kind, target)):
                body(j)
            else:
                sim.schedule(t, kind, target, lambda j=j: body(j))

    for i, p in enumerate(parents):
        if p is None:
            delta, kind, target, _ = specs[i]
            sim.schedule(delta, kind, target, lambda i=i: body(i))
    first = sim.run_until(t_end)
    first = (first.trace_hash, first.processed, first.by_kind,
             list(first.records))
    return first, sim.run_until(t_later), fired


@given(program=_programs())
@settings(max_examples=300, deadline=None)
def test_fire_inline_leaves_the_trace_as_the_queue_makes_it(program):
    (first_a, last_a, fired_a) = _run_program(program, inline=True)
    (first_b, last_b, fired_b) = _run_program(program, inline=False)
    assert first_a == first_b
    assert last_a == last_b
    assert fired_a == fired_b


@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 3 * HASH_BATCH // 2), min_size=1,
                        max_size=4),
       stops=st.lists(st.integers(0, 12_000), max_size=4),
       read_every=st.integers(1, 4 * HASH_BATCH))
@example(seed=1, lengths=[1500, 1500], stops=[3000, 3000, 6000],
         read_every=97)
@example(seed=2, lengths=[1536], stops=[], read_every=4 * HASH_BATCH)
@settings(max_examples=60, deadline=None)
def test_batched_hash_is_the_digest_of_every_line_so_far(
        seed, lengths, stops, read_every):
    # Chains of events, each firing the next one inline where the queue
    # allows it and queueing it otherwise; a reference sha256 is fed the
    # same lines one at a time, and every digest read mid-run must be
    # that of the lines so far.
    rnd = random.Random(seed)
    plans = [[(rnd.choice(EVENT_KINDS), rnd.randrange(10), rnd.random() < 0.7,
               rnd.randrange(read_every) == 0) for _ in range(n)]
             for n in lengths]
    sim = Simulator(root_seed=0, hash_trace=True)
    ref = hashlib.sha256()
    lines = 0

    def check():
        summary = sim.trace_summary()
        assert summary.trace_hash == ref.hexdigest()
        assert summary.processed == lines

    def run_chain(c, i):
        # a loop, not recursion: chains outgrow the recursion limit
        nonlocal lines
        while True:
            kind, _, _, read = plans[c][i]
            ref.update(f"{sim.now} {kind} c{c}\n".encode())
            lines += 1
            if read:
                check()
            i += 1
            if i == len(plans[c]):
                return
            kind, delta, inline, _ = plans[c][i]
            t = sim.now + delta
            if not (inline and sim.fire_inline(t, kind, f"c{c}")):
                sim.schedule(t, kind, f"c{c}", partial(run_chain, c, i))
                return

    for c, plan in enumerate(plans):
        if plan:
            kind, delta, _, _ = plan[0]
            sim.schedule(delta, kind, f"c{c}", partial(run_chain, c, 0))
    for stop in sorted(stops):
        summary = sim.run_until(stop)
        assert summary.trace_hash == ref.hexdigest()
        check()
    sim.run_until(max(sim.now, 12 * sum(lengths) + 10))
    check()
    assert lines == sum(lengths)


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
