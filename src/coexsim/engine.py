"""Deterministic discrete-event core.

The simulator keeps an integer-microsecond clock and a binary-heap event
queue.  Events that share a timestamp are ordered by kind rank (channel
state settles before slot decisions, slot decisions before timers, and
beacons go last so same-instant bookkeeping is finished before a beacon
reads it), then by insertion sequence number.  A queued event always
fires: nothing is ever withdrawn, so a caller schedules only what it
knows will happen (the contention driver, for one, schedules a decision
only if it falls before its window's end).

A callback may also log a follow-up event as fired on the spot with
``fire_inline`` instead of queueing it, and then run the follow-up's
work itself as its own last statement. That is only allowed where the
queue would fire the event next anyway: inside ``run_until``, at or
before its end time, and with the heap head sorting strictly after the
event's (time, rank). On an equal (time, rank) the queued event goes
first, since it has the lower sequence number, so ``fire_inline``
declines and the caller schedules as usual. Either way the clock, the
counts, the records and the hash are those that queueing would give.

With ``hash_trace``, each fired event adds the line "time kind target"
to a sha256 digest. Lines are buffered, at most ``HASH_BATCH`` of them,
and fed to the digest in one joined update when the buffer fills and
whenever a summary is taken; sha256 streams, so the digest is that of
the same lines fed one at a time, and a run never holds more than one
batch.

Every random draw comes from a named per-entity stream seeded from
(root seed, stream id), so a draw depends only on the stream's own
history, never on how events from different entities interleave.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

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

EVENT_KINDS = tuple(KIND_RANK)

# Most trace-hash lines buffered before they are fed to the digest. A
# small batch already saves nearly all of the per-line update calls;
# 1024 lines cost coexbench's paper-n30 workload about 1 MB (2%) of
# peak RSS on a 2-vCPU Xeon with Python 3.11, 64 lines nothing measurable.
HASH_BATCH = 64


class SchedulingError(ValueError):
    """Event rejected: non-integer time, time in the past, or unknown kind."""


@dataclass
class TraceSummary:
    """What run_until saw: counts, an optional hash, optional raw records."""

    processed: int
    by_kind: dict[str, int]
    trace_hash: Optional[str] = None
    records: Optional[list[tuple[int, str, str]]] = None


class Simulator:
    """Event queue, clock, and RNG stream registry for one run."""

    def __init__(self, root_seed: int, keep_trace: bool = False,
                 hash_trace: bool = False):
        self.root_seed = root_seed
        self.now: int = 0
        # (time, rank, seq, kind, target, fn); seq is unique, so ties
        # never compare kind, target or fn
        self._heap: list[tuple[int, int, int, str, str,
                               Optional[Callable[[], None]]]] = []
        self._seq = itertools.count()
        self._streams: dict[str, np.random.Generator] = {}
        self._by_kind: Counter[str] = Counter()
        self._hasher = hashlib.sha256() if hash_trace else None
        # hash lines not yet fed to the hasher; None without hash_trace
        self._lines: Optional[list[str]] = [] if hash_trace else None
        self._records: Optional[list[tuple[int, str, str]]] = [] if keep_trace else None
        self._t_end: Optional[int] = None   # set while run_until is active

    # -- events --------------------------------------------------------

    def schedule(self, time: int, kind: str, target: str,
                 fn: Optional[Callable[[], None]] = None) -> None:
        """Queue an event that will fire at ``time``; it cannot be withdrawn.

        ``target`` names the entity the event belongs to; it is what shows
        up in the trace next to the timestamp and kind.  Past timestamps
        and unknown kinds are rejected.
        """
        if type(time) is not int:
            if not isinstance(time, (int, np.integer)):
                raise SchedulingError(f"event time must be an integer microsecond count, got {time!r}")
            time = int(time)
        if time < self.now:
            raise SchedulingError(f"cannot schedule at {time} us; clock is already at {self.now} us")
        rank = KIND_RANK.get(kind)
        if rank is None:
            raise SchedulingError(f"unknown event kind {kind!r}")
        heappush(self._heap, (time, rank, next(self._seq), kind, target, fn))

    def fire_inline(self, time: int, kind: str, target: str) -> bool:
        """Log an event as fired now, if the queue would fire it next.

        True only inside ``run_until``, with ``time`` at or before its end
        and the heap head strictly after (time, rank); the caller then
        runs the event's work itself, as the last thing its callback does.
        On False nothing is logged and the caller schedules the event.
        """
        if self._t_end is None or time > self._t_end:
            return False
        if time < self.now:
            raise SchedulingError(f"cannot fire at {time} us; clock is already at {self.now} us")
        rank = KIND_RANK.get(kind)
        if rank is None:
            raise SchedulingError(f"unknown event kind {kind!r}")
        heap = self._heap
        if heap:
            head = heap[0]
            if head[0] < time or (head[0] == time and head[1] <= rank):
                return False
        # logged in place, as run_until logs: no helper call per event
        self.now = time
        self._by_kind[kind] += 1
        lines = self._lines
        if lines is not None:
            lines.append(f"{time} {kind} {target}\n")
            if len(lines) >= HASH_BATCH:
                self._flush_hash()
        if self._records is not None:
            self._records.append((time, kind, target))
        return True

    def run_until(self, t_end: int) -> TraceSummary:
        """Process every event with time <= t_end, then pin the clock there."""
        heap, by_kind, lines = self._heap, self._by_kind, self._lines
        records = self._records
        self._t_end = t_end
        try:
            while heap and heap[0][0] <= t_end:
                time, _, _, kind, target, fn = heappop(heap)
                # log the event: advance the clock, count it, hash it
                self.now = time
                by_kind[kind] += 1
                if lines is not None:
                    lines.append(f"{time} {kind} {target}\n")
                    if len(lines) >= HASH_BATCH:
                        self._flush_hash()
                if records is not None:
                    records.append((time, kind, target))
                if fn is not None:
                    fn()
        finally:
            self._t_end = None
        self.now = t_end
        return self.trace_summary()

    def _flush_hash(self) -> None:
        """Feed the buffered hash lines to the digest in one update."""
        self._hasher.update("".join(self._lines).encode())
        self._lines.clear()

    def trace_summary(self) -> TraceSummary:
        trace_hash = None
        if self._hasher is not None:
            self._flush_hash()
            trace_hash = self._hasher.hexdigest()
        return TraceSummary(
            processed=sum(self._by_kind.values()),
            by_kind=dict(self._by_kind),
            trace_hash=trace_hash,
            records=self._records,
        )

    # -- random streams -------------------------------------------------

    def fork_rng(self, stream_id: str) -> np.random.Generator:
        """Create the named draw stream; a duplicate id is a hard error."""
        if stream_id in self._streams:
            raise ValueError(f"rng stream {stream_id!r} already exists")
        gen = make_stream(self.root_seed, stream_id)
        self._streams[stream_id] = gen
        return gen


def make_stream(root_seed: int, stream_id: str) -> np.random.Generator:
    """Generator keyed purely by (root seed, stream id).

    The id string is hashed so stream identity does not depend on fork
    order, and PCG64 gives independent sequences for distinct keys.
    """
    key = int.from_bytes(hashlib.sha256(stream_id.encode()).digest()[:8], "big")
    seed_seq = np.random.SeedSequence(entropy=(int(root_seed), key))
    return np.random.Generator(np.random.PCG64(seed_seq))
