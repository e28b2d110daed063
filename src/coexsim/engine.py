"""Deterministic discrete-event core.

The simulator keeps an integer-microsecond clock and a binary-heap event
queue.  Events that share a timestamp are ordered by kind rank (channel
state settles before slot decisions, slot decisions before timers, and
beacons go last so same-instant bookkeeping is finished before a beacon
reads it), then by insertion sequence number.  A queued event always
fires: nothing is ever withdrawn, so a caller schedules only what it
knows will happen (the contention driver, for one, schedules a decision
only if it falls before its window's end).

A callback may also fire follow-up events itself instead of queueing
them: one event through a firer, ``inline_firer(kind, target)``, bound
once per (kind, target), or a run of events through ``lookahead()``,
logged with one call. That is only allowed where the queue would fire
them next anyway: inside ``run_until``, at or before its end time, and
with the heap head sorting strictly after each event's (time, rank). On
an equal (time, rank) the queued event goes first, since it has the
lower sequence number. Either way the clock, the count and the hash are
those that queueing would give. A firer holds the heap and the line
buffer themselves, so neither list is ever rebound.

Every fired event is one trace line, "time kind target", and nothing
else. Lines are buffered, at most ``HASH_BATCH`` of them beyond the
lines of one logged run of events, and flushed when the buffer fills and
whenever a summary is taken: a flush counts them and, with
``hash_trace``, feeds them to a sha256 digest in one joined update.
sha256 streams, so the digest is that of the same lines fed one at a
time.

Every random draw comes from a named per-entity stream seeded from
(root seed, stream id), so a draw depends only on the stream's own
history, never on how events from different entities interleave.
The streams are numpy generators, and numpy is imported by
``make_stream`` when a run makes its first one: importing coexsim and
building its configs load no numpy.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    import numpy as np

# Rank of each event kind for same-timestamp ordering.
KIND_RANK = {
    "tx-end": 0,
    "txop-end": 1,
    "cfp-end": 2,
    "slot-boundary": 3,
    "timer": 4,
    "beacon": 5,
}

# Most trace lines buffered before they are flushed. A small batch
# already saves nearly all of the per-line digest update calls;
# 1024 lines cost coexbench's paper-n30 workload about 1 MB (2%) of
# peak RSS on a 2-vCPU Xeon with Python 3.11, 64 lines nothing measurable.
HASH_BATCH = 64

# run_until's end time outside run_until: every event time lies after it,
# so one comparison tells a firer both that it runs and that it is in time
_NOT_RUNNING = -math.inf


class SchedulingError(ValueError):
    """Event rejected: non-integer time, time in the past, or unknown kind."""


def _integral_us(time, what: str) -> int:
    """``time`` as an int; a non-integral value, ``bool`` too, is rejected."""
    # numpy registers its integer types as Integral, not np.bool_
    if type(time) is bool or not isinstance(time, numbers.Integral):
        raise SchedulingError(
            f"{what} must be an integer microsecond count, got {time!r}")
    return int(time)


@dataclass
class TraceSummary:
    """What run_until saw: the events fired, and their hash if kept."""

    processed: int
    trace_hash: Optional[str] = None


class Simulator:
    """Event queue, clock, and RNG stream registry for one run."""

    def __init__(self, root_seed: int, hash_trace: bool = False):
        self.root_seed = root_seed
        self.now: int = 0
        # (time, rank, seq, kind, target, fn); seq is unique, so ties
        # never compare kind, target or fn
        self._heap: list[tuple[int, int, int, str, str,
                               Optional[Callable[[], None]]]] = []
        self._seq = itertools.count()
        self._streams: set[str] = set()     # the ids forked so far
        self._hasher = hashlib.sha256() if hash_trace else None
        self._lines: list[str] = []     # trace lines not yet flushed
        self._flushed = 0               # trace lines flushed so far
        self._t_end: float = _NOT_RUNNING    # run_until's end while it runs

    # -- events --------------------------------------------------------

    def schedule(self, time: int, kind: str, target: str,
                 fn: Optional[Callable[[], None]] = None) -> None:
        """Queue an event that will fire at ``time``; it cannot be withdrawn.

        ``target`` names the entity the event belongs to; it is what shows
        up in the trace next to the timestamp and kind.  Past timestamps,
        non-integer times (a ``bool`` too) and unknown kinds are rejected.
        """
        if type(time) is not int:
            time = _integral_us(time, "event time")
        if time < self.now:
            raise SchedulingError(f"cannot schedule at {time} us; clock is already at {self.now} us")
        try:
            rank = KIND_RANK[kind]
        except KeyError:
            raise SchedulingError(f"unknown event kind {kind!r}") from None
        heappush(self._heap, (time, rank, next(self._seq), kind, target, fn))

    def inline_firer(self, kind: str, target: str) -> Callable[[int], bool]:
        """Bind a firer for (kind, target); an unknown kind is rejected now.

        ``fire(time)`` logs the event as fired now if the queue would fire
        it next, and returns True: only inside ``run_until``, with
        ``time`` at or before its end and the heap head strictly after
        (time, rank). The caller then runs the event's work itself, as
        the last thing its callback does. On False nothing is logged and
        the caller schedules the event. A past time is rejected.
        """
        try:
            rank = KIND_RANK[kind]
        except KeyError:
            raise SchedulingError(f"unknown event kind {kind!r}") from None
        # a heap entry sorts before (time, rank + 1) iff its (time, rank)
        # is at or before the event's: then the queue fires it first
        after = rank + 1
        suffix = f" {kind} {target}\n"
        heap, lines, flush = self._heap, self._lines, self._flush_hash

        def fire(time: int) -> bool:
            if time > self._t_end:  # past run_until's end, or outside it
                return False
            if time < self.now:
                raise SchedulingError(f"cannot fire at {time} us; clock is "
                                      f"already at {self.now} us")
            if heap and heap[0] < (time, after):
                return False
            # logged in place, as run_until logs: no helper call per event
            self.now = time
            lines.append(f"{time}{suffix}")
            if len(lines) >= HASH_BATCH:
                flush()
            return True

        return fire

    def lookahead(self) -> tuple[tuple[float, int],
                                 Callable[[list[str], int], None]]:
        """The queue's horizon, and a logger for events fired before it.

        The horizon is the heap head's (time, rank), capped at
        ``run_until``'s end: an event whose (time, rank) sorts strictly
        before it is one the queue would fire before anything queued now,
        within this ``run_until``. Outside ``run_until`` no event sorts
        before it. A callback may fire such events itself, in queue
        order, as its last work, if it queues nothing that sorts before
        them while it does. ``log(lines, time)`` then logs their lines,
        already formatted and in order, and moves the clock to ``time``,
        the last one's: one call for the lot, so an event fired this way
        costs no frame beyond its own work, which must not read the
        clock. A time past the end, or before the clock, is rejected.
        """
        heap = self._heap
        cap = (self._t_end + 1, 0)
        horizon = heap[0][:2] if heap and heap[0] < cap else cap
        return horizon, self._log_fired

    def _log_fired(self, lines: list[str], time: int) -> None:
        if time > self._t_end or time < self.now:
            raise SchedulingError(f"cannot log events to {time} us: the "
                                  f"clock is at {self.now} us and the run "
                                  f"ends at {self._t_end} us")
        self.now = time
        buffered = self._lines
        buffered += lines
        if len(buffered) >= HASH_BATCH:
            self._flush_hash()

    def run_until(self, t_end: int) -> TraceSummary:
        """Process every event with time <= t_end, then pin the clock there.
        An end before the clock, or not an integer, is rejected."""
        if type(t_end) is not int:
            t_end = _integral_us(t_end, "run end")
        if t_end < self.now:
            raise SchedulingError(f"cannot run until {t_end} us; clock is "
                                  f"already at {self.now} us")
        heap, lines = self._heap, self._lines
        self._t_end = t_end
        try:
            while heap and heap[0][0] <= t_end:
                time, _, _, kind, target, fn = heappop(heap)
                # log the event: advance the clock, buffer its line
                self.now = time
                lines.append(f"{time} {kind} {target}\n")
                if len(lines) >= HASH_BATCH:
                    self._flush_hash()
                if fn is not None:
                    fn()
        finally:
            self._t_end = _NOT_RUNNING
        self.now = t_end
        return self.trace_summary()

    def _flush_hash(self) -> None:
        """Count the buffered lines, feed them to the digest in one
        update if there is one, and clear the buffer."""
        lines = self._lines
        self._flushed += len(lines)
        if self._hasher is not None:
            self._hasher.update("".join(lines).encode())
        lines.clear()

    def trace_summary(self) -> TraceSummary:
        self._flush_hash()
        hasher = self._hasher
        return TraceSummary(self._flushed,
                            None if hasher is None else hasher.hexdigest())

    # -- random streams -------------------------------------------------

    def fork_rng(self, stream_id: str) -> np.random.Generator:
        """Create the named draw stream; a duplicate id is a hard error."""
        if stream_id in self._streams:
            raise ValueError(f"rng stream {stream_id!r} already exists")
        gen = make_stream(self.root_seed, stream_id)
        self._streams.add(stream_id)
        return gen


def make_stream(root_seed: int, stream_id: str) -> np.random.Generator:
    """Generator keyed purely by (root seed, stream id).

    The id string is hashed so stream identity does not depend on fork
    order, and PCG64 gives independent sequences for distinct keys.
    """
    # a plain import: once numpy is loaded it makes no Python-level call,
    # where ``from numpy.random import ...`` would call importlib's
    # fromlist helper for every stream
    import numpy.random as npr
    key = int.from_bytes(hashlib.sha256(stream_id.encode()).digest()[:8], "big")
    seed_seq = npr.SeedSequence(entropy=(int(root_seed), key))
    return npr.Generator(npr.PCG64(seed_seq))
