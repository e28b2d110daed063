"""Reference work: a fixed slice of interpreter work that tells the host's
current speed apart from the simulator's.

The slice is a small slotted-contention event loop written here, not
imported from ``coexsim``, so no change to the simulator changes it: a
heap of events, one numpy generator per station, a walk over every
station per exchange, and a sha256 over the event records. That is the
shape of the simulator's own inner loop. The benchmark runs one slice
after each measured unit of work; the slices' median time over a run
is the host's speed during that run.
"""

from __future__ import annotations

import hashlib
import heapq
import time

import numpy as np

STATIONS = 30
EXCHANGES = 6000
CW_MIN = 16
CW_MAX = 1024


class _Station:
    __slots__ = ("sid", "rng", "stage", "backoff", "wins")

    def __init__(self, sid: int):
        self.sid = sid
        self.rng = np.random.Generator(np.random.PCG64(sid))
        self.stage = 0
        self.backoff = int(self.rng.integers(0, CW_MIN))
        self.wins = 0

    def redraw(self, collided: bool) -> None:
        self.stage = min(self.stage + 1, 6) if collided else 0
        cw = min(CW_MIN << self.stage, CW_MAX)
        self.backoff = int(self.rng.integers(0, cw))


def slice_work(exchanges: int = EXCHANGES) -> str:
    """Run the fixed loop; returns its digest, the same on every call."""
    stations = [_Station(i) for i in range(STATIONS)]
    hasher = hashlib.sha256()
    heap: list[tuple[int, int, str]] = [(0, 0, "slot")]
    seq = 1
    now = 0
    done = 0
    while done < exchanges:
        now, _, kind = heapq.heappop(heap)
        hasher.update(b"%d %s\n" % (now, kind.encode()))
        if kind == "slot":
            step = min(s.backoff for s in stations)
            winners = [s for s in stations if s.backoff == step]
            for s in stations:
                s.backoff -= step
            collided = len(winners) > 1
            for s in winners:
                s.wins += 1
                s.redraw(collided)
            heapq.heappush(heap, (now + 9 * step + 300, seq, "tx-end"))
        else:
            done += 1
            heapq.heappush(heap, (now + 34, seq, "slot"))
        seq += 1
    return hasher.hexdigest()


def timed_slice() -> float:
    """Wall seconds of one slice."""
    t0 = time.perf_counter()
    slice_work()
    return time.perf_counter() - t0
