"""Event queue ordering, clock rules, trace hashes, and stream identity."""

import hashlib
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from coexsim.engine import (
    HASH_BATCH,
    KIND_RANK,
    SchedulingError,
    Simulator,
    make_stream,
)


def _digest(*events):
    """The trace hash of these (time, kind, target) events, fired in order."""
    return hashlib.sha256("".join(
        f"{t} {kind} {target}\n" for t, kind, target in events
    ).encode()).hexdigest()


def test_kind_ranks_cover_expected_order():
    assert list(KIND_RANK) == [
        "tx-end", "txop-end", "cfp-end", "slot-boundary", "timer", "beacon"]
    assert sorted(KIND_RANK.values()) == list(range(6))


def test_same_timestamp_events_fire_in_rank_order():
    sim = Simulator(root_seed=0)
    fired = []
    # schedule in reverse rank order; execution must ignore insertion order
    for kind in reversed(KIND_RANK):
        sim.schedule(100, kind, "t", lambda k=kind: fired.append(k))
    sim.run_until(100)
    assert fired == list(KIND_RANK)


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
    # each but 1.5 equals an integer, yet none is a numbers.Integral
    sim = Simulator(root_seed=0)
    for time in (1.5, 1.0, np.float64(1), Fraction(3)):
        with pytest.raises(SchedulingError, match="integer microsecond"):
            sim.schedule(time, "timer", "x")
    assert sim.run_until(5).processed == 0


def test_schedule_rejects_boolean_times():
    # bool is an int subclass: True must not queue at 1 us
    sim = Simulator(root_seed=0)
    for flag in (True, False, np.bool_(True), np.bool_(False)):
        with pytest.raises(SchedulingError, match="integer microsecond"):
            sim.schedule(flag, "timer", "x")
    assert sim.run_until(5).processed == 0


def test_schedule_accepts_numpy_integer_times():
    # numpy registers its integer types as numbers.Integral; each time is
    # queued as a Python int
    for kind in (np.int32, np.uint64, np.int64):
        sim = Simulator(root_seed=0, hash_trace=True)
        seen = []
        sim.schedule(kind(12), "timer", "x", lambda: seen.append(sim.now))
        assert type(sim._heap[0][0]) is int
        summary = sim.run_until(20)
        assert seen == [12] and type(seen[0]) is int
        assert summary.trace_hash == _digest((12, "timer", "x"))


def test_schedule_rejects_unknown_kind():
    sim = Simulator(root_seed=0)
    with pytest.raises(SchedulingError, match="unknown event kind"):
        sim.schedule(1, "tx-start", "x")


def test_run_until_pins_clock_even_with_no_events():
    sim = Simulator(root_seed=0)
    sim.run_until(12345)
    assert sim.now == 12345


def test_run_until_never_moves_the_clock_back():
    # an end before the clock would rewind it, and a later schedule at a
    # time already passed would be accepted and fire
    sim = Simulator(root_seed=0, hash_trace=True)
    sim.schedule(80, "timer", "x")
    sim.run_until(100)
    for end in (50, 99):
        with pytest.raises(SchedulingError, match="clock is already at 100"):
            sim.run_until(end)
    assert sim.now == 100
    with pytest.raises(SchedulingError, match="clock is already"):
        sim.schedule(60, "timer", "late")
    # an end at the clock runs nothing and keeps it
    assert sim.run_until(100).processed == 1
    assert sim.now == 100


def test_run_until_rejects_a_non_integer_end():
    sim = Simulator(root_seed=0)
    sim.schedule(3, "timer", "x")
    for end in (150.0, 99.5, np.float64(120), Fraction(200), True,
                np.bool_(True)):
        with pytest.raises(SchedulingError, match="integer microsecond"):
            sim.run_until(end)
    assert sim.now == 0
    summary = sim.run_until(np.int64(7))
    assert (summary.processed, sim.now, type(sim.now)) == (1, 7, int)


def test_run_until_includes_events_at_t_end():
    sim = Simulator(root_seed=0, hash_trace=True)
    fired = []
    sim.schedule(50, "timer", "edge", lambda: fired.append(50))
    sim.schedule(51, "timer", "past-edge", lambda: fired.append(51))
    summary = sim.run_until(50)
    assert fired == [50]
    # the hash covers exactly the processed events, nothing still queued
    assert summary.processed == 1
    assert summary.trace_hash == _digest((50, "timer", "edge"))
    summary = sim.run_until(51)
    assert fired == [50, 51]
    assert summary.processed == 2
    assert summary.trace_hash == _digest((50, "timer", "edge"),
                                         (51, "timer", "past-edge"))


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
    assert summary.trace_hash is None


def test_processed_counts_fired_events():
    sim = Simulator(root_seed=0)
    for t in range(3):
        sim.schedule(t, "timer", "t")
    sim.schedule(1, "beacon", "b")
    sim.schedule(11, "timer", "late")
    summary = sim.run_until(10)
    assert summary.processed == 4


def _inline_probe(time, kind, *queued):
    """Ask a firer for (kind, "inline"), bound before the run, about
    ``time`` from a callback at t=5; every callback, and the inline
    event's work, logs (now, kind, target)."""
    sim = Simulator(root_seed=0, hash_trace=True)
    fire = sim.inline_firer(kind, "inline")
    got, fired = [], []

    def log(kind, target):
        fired.append((sim.now, kind, target))

    def probe():
        log("timer", "probe")
        got.append(fire(time))
        if got[0]:
            log(kind, "inline")

    for t, k in queued:
        sim.schedule(t, k, "queued", partial(log, k, "queued"))
    sim.schedule(5, "timer", "probe", probe)
    summary = sim.run_until(10)
    assert summary.trace_hash == _digest(*fired)
    return got[0], summary, fired


def test_a_firer_logs_the_event_as_the_queue_would():
    got, summary, fired = _inline_probe(7, "slot-boundary", (7, "timer"))
    assert got is True
    assert fired == [(5, "timer", "probe"),
                     (7, "slot-boundary", "inline"),
                     (7, "timer", "queued")]
    assert summary.processed == 3


def test_a_firer_declines_an_equal_time_and_rank_head():
    # the queued event has the lower sequence number, so it goes first
    assert _inline_probe(7, "timer", (7, "timer"))[0] is False
    assert _inline_probe(7, "timer", (7, "tx-end"))[0] is False
    assert _inline_probe(7, "timer", (6, "beacon"))[0] is False
    assert _inline_probe(7, "timer", (7, "beacon"))[0] is True
    got, summary, fired = _inline_probe(7, "timer", (7, "timer"))
    assert fired == [(5, "timer", "probe"), (7, "timer", "queued")]
    assert summary.trace_hash == _digest(*fired)


def test_a_firer_declines_past_t_end_and_outside_run_until():
    assert _inline_probe(10, "timer")[0] is True
    assert _inline_probe(11, "timer")[0] is False
    sim = Simulator(root_seed=0)
    fire = sim.inline_firer("timer", "x")
    assert fire(0) is False
    sim.run_until(10)
    assert fire(10) is False
    assert sim.trace_summary().processed == 0


def test_a_firer_rejects_past_times():
    with pytest.raises(SchedulingError, match="clock is already"):
        _inline_probe(4, "timer")


def test_a_firer_for_an_unknown_kind_is_rejected_when_bound():
    sim = Simulator(root_seed=0)
    with pytest.raises(SchedulingError, match="unknown event kind"):
        sim.inline_firer("tx-start", "x")


def test_a_firer_bound_before_batch_flushes_logs_into_the_live_buffer():
    # A chain of slot-boundary events, each firing the next inline where
    # the queue allows it; a tx-end every 7 us sorts first at its time,
    # so those links are queued. The firer is bound once, before a run
    # that flushes many batches and is read mid-way, and every line it
    # logs must reach the digest of a run that queues every link.
    n = 5 * HASH_BATCH + 3
    stops = (HASH_BATCH // 2, 2 * HASH_BATCH, 3 * HASH_BATCH + 5, 2 * n)

    def run(inline):
        sim = Simulator(root_seed=0, hash_trace=True)
        fire = sim.inline_firer("slot-boundary", "chain")
        links = inlined = 0

        def link():
            nonlocal links, inlined
            while True:
                links += 1
                if links == n:
                    return
                t = sim.now + 1
                if not (inline and fire(t)):
                    sim.schedule(t, "slot-boundary", "chain", link)
                    return
                inlined += 1

        for t in range(0, n, 7):
            sim.schedule(t, "tx-end", "tick")
        sim.schedule(0, "slot-boundary", "chain", link)
        summaries = []
        for stop in stops:
            summaries.append(sim.run_until(stop))
            summaries.append(sim.trace_summary())
        assert links == n
        return summaries, inlined

    inline, inlined = run(True)
    queued, none_inlined = run(False)
    assert none_inlined == 0
    assert inlined > 2 * HASH_BATCH
    assert inline == queued
    assert inline[-1].processed == n + len(range(0, n, 7))


def test_lookahead_gives_the_heap_head_capped_at_the_run_end():
    sim = Simulator(root_seed=0)
    horizons = []
    sim.schedule(5, "beacon", "probe",
                 lambda: horizons.append(sim.lookahead()[0]))
    sim.schedule(7, "txop-end", "head")
    sim.schedule(9, "timer", "later")
    sim.run_until(8)
    for t, kind in ((9, "cfp-end"), (15, "beacon")):
        sim.schedule(t, kind, "probe",
                     lambda: horizons.append(sim.lookahead()[0]))
    sim.schedule(30, "tx-end", "past the end")
    sim.run_until(20)
    # the txop-end at 7, the timer that sorts after the cfp-end at 9, then
    # nothing before the end: every time up to 20 sorts before (21, 0)
    assert horizons == [(7, KIND_RANK["txop-end"]), (9, KIND_RANK["timer"]),
                        (21, 0)]
    # outside run_until no event sorts before the horizon
    assert not (0, 0) < sim.lookahead()[0]


def test_lookahead_logger_logs_lines_in_order_and_moves_the_clock():
    sim = Simulator(root_seed=0, hash_trace=True)
    seen = []

    def batch():
        horizon, log = sim.lookahead()
        assert horizon == (8, KIND_RANK["timer"])
        log(["6 timer a\n", "7 txop-end b\n"], 7)
        seen.append(sim.now)
        with pytest.raises(SchedulingError, match="clock is at 7"):
            log(["6 timer a\n"], 6)
        with pytest.raises(SchedulingError, match="run ends at 10"):
            log(["11 timer a\n"], 11)

    sim.schedule(5, "beacon", "probe", batch)
    sim.schedule(8, "timer", "queued")
    summary = sim.run_until(10)
    assert seen == [7]
    assert summary.processed == 4
    assert summary.trace_hash == _digest((5, "beacon", "probe"),
                                         (6, "timer", "a"),
                                         (7, "txop-end", "b"),
                                         (8, "timer", "queued"))
    with pytest.raises(SchedulingError):
        sim.lookahead()[1](["10 timer a\n"], 10)


@given(queued=st.lists(st.tuples(st.integers(5, 12),
                                 st.sampled_from(tuple(KIND_RANK))),
                       max_size=6),
       batch=st.lists(st.tuples(st.integers(5, 12),
                                st.sampled_from(tuple(KIND_RANK))),
                      min_size=1, max_size=12),
       t_end=st.integers(5, 12))
@settings(max_examples=200, deadline=None)
def test_a_batch_fired_before_the_horizon_leaves_the_trace_as_queued(
        queued, batch, t_end):
    # At t=5 a beacon knows a batch of follow-ups. Fired in one pass up to
    # the horizon, the rest queued in the order they were made, they must
    # leave the trace, count and firing order that queueing all of them
    # leaves, across two run_until calls.
    def run(in_one_pass):
        sim = Simulator(root_seed=0, hash_trace=True)
        fired = []

        def follow_up(i):
            fired.append((sim.now, i))

        def beacon():
            if not in_one_pass:
                for i, (t, kind) in enumerate(batch):
                    sim.schedule(t, kind, f"f{i}", partial(follow_up, i))
                return
            events = sorted((t, KIND_RANK[kind], i, kind)
                            for i, (t, kind) in enumerate(batch))
            horizon, log = sim.lookahead()
            cut = sum(1 for e in events if e[:2] < horizon)
            for t, _, i, kind in sorted(events[cut:], key=lambda e: e[2]):
                sim.schedule(t, kind, f"f{i}", partial(follow_up, i))
            if cut:
                for t, _, i, _ in events[:cut]:
                    fired.append((t, i))
                log([f"{t} {kind} f{i}\n" for t, _, i, kind in events[:cut]],
                    events[cut - 1][0])

        for t, kind in queued:
            sim.schedule(t, kind, "queued")
        sim.schedule(5, "beacon", "probe", beacon)
        first = sim.run_until(t_end)
        return first, sim.run_until(12), fired

    assert run(True) == run(False)


@st.composite
def _programs(draw):
    """Events (delta, kind, target, try inline), each a root or the child
    of an earlier one, and the two end times to run to."""
    n = draw(st.integers(1, 30))
    specs = [draw(st.tuples(st.integers(0, 4),
                            st.sampled_from(tuple(KIND_RANK)),
                            st.sampled_from(["a", "b"]), st.booleans()))
             for _ in range(n)]
    parents = [None] + [draw(st.one_of(st.none(), st.integers(0, j - 1)))
                        for j in range(1, n)]
    t_end = draw(st.integers(0, 12))
    return specs, parents, t_end, t_end + draw(st.integers(0, 12))


def _run_program(program, inline: bool, hash_trace: bool):
    specs, parents, t_end, t_later = program
    sim = Simulator(root_seed=0, hash_trace=hash_trace)
    # one firer per (kind, target), bound before the run
    firers = {(kind, target): (sim.inline_firer(kind, target) if inline
                               else lambda time: False)
              for kind in KIND_RANK for target in ("a", "b")}
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
                    and firers[kind, target](t)):
                body(j)
            else:
                sim.schedule(t, kind, target, lambda j=j: body(j))

    for i, p in enumerate(parents):
        if p is None:
            delta, kind, target, _ = specs[i]
            sim.schedule(delta, kind, target, lambda i=i: body(i))
    first = sim.run_until(t_end)
    # every event has a callback, so each line fired is one body run
    assert first.processed == len(fired)
    first = (first.trace_hash, first.processed)
    last = sim.run_until(t_later)
    assert last.processed == len(fired)
    assert (last.trace_hash is None) is not hash_trace
    return first, last, fired


@given(program=_programs(), hash_trace=st.booleans())
@settings(max_examples=300, deadline=None)
def test_firers_leave_the_trace_as_the_queue_makes_it(program, hash_trace):
    (first_a, last_a, fired_a) = _run_program(program, True, hash_trace)
    (first_b, last_b, fired_b) = _run_program(program, False, hash_trace)
    assert first_a == first_b
    assert last_a == last_b
    assert fired_a == fired_b


@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 3 * HASH_BATCH // 2), min_size=1,
                        max_size=4),
       stops=st.lists(st.integers(0, 12_000), max_size=4),
       read_every=st.integers(1, 4 * HASH_BATCH),
       hash_trace=st.booleans())
@example(seed=1, lengths=[1500, 1500], stops=[3000, 3000, 6000],
         read_every=97, hash_trace=True)
@example(seed=1, lengths=[1500, 1500], stops=[3000, 3000, 6000],
         read_every=97, hash_trace=False)
@example(seed=2, lengths=[1536], stops=[], read_every=4 * HASH_BATCH,
         hash_trace=True)
@settings(max_examples=60, deadline=None)
def test_batched_hash_is_the_digest_of_every_line_so_far(
        seed, lengths, stops, read_every, hash_trace):
    # Chains of events, each firing the next one inline where the queue
    # allows it and queueing it otherwise; a reference sha256 is fed the
    # same lines one at a time, and every summary read mid-run must
    # count the lines so far and, with hash_trace, give their digest.
    rnd = random.Random(seed)
    kinds = tuple(KIND_RANK)
    plans = [[(rnd.choice(kinds), rnd.randrange(10), rnd.random() < 0.7,
               rnd.randrange(read_every) == 0) for _ in range(n)]
             for n in lengths]
    sim = Simulator(root_seed=0, hash_trace=hash_trace)
    firers = {(kind, c): sim.inline_firer(kind, f"c{c}")
              for kind in kinds for c in range(len(plans))}
    ref = hashlib.sha256()
    lines = 0

    def digest():
        return ref.hexdigest() if hash_trace else None

    def check():
        summary = sim.trace_summary()
        assert summary.trace_hash == digest()
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
            if not (inline and firers[kind, c](t)):
                sim.schedule(t, kind, f"c{c}", partial(run_chain, c, i))
                return

    for c, plan in enumerate(plans):
        if plan:
            kind, delta, _, _ = plan[0]
            sim.schedule(delta, kind, f"c{c}", partial(run_chain, c, 0))
    for stop in sorted(stops):
        summary = sim.run_until(stop)
        assert summary.trace_hash == digest()
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
