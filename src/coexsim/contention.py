"""Shared-medium contention driver.

Models the slotted carrier-sense medium that Wi-Fi stations (and, in the
duty-cycled baseline, LTE-U nodes) contend on. Rather than ticking every
slot (``MacTiming.slot_us`` long), the driver jumps straight to the next
decision point: the smallest effective backoff over all participants.
Everyone with that backoff transmits, everyone else freezes, and the
medium stays busy for the exchange duration with the post-exchange
spacing folded in, so idle time advances in exact slot multiples.

One rule runs the counters down: k slots take k from every station and
max(0, k - lead) from every LTE-U node, a node's lead being the whole
slots from the window anchor until its CCA ends (below). An exchange
after s idle slots consumes s + 1, because a busy period counts as one
backoff slot, the convention of the slotted renewal chain behind the
analytical saturation model. A window that closes idle consumes its
whole idle slots, never more than s_min, the smallest effective backoff.
Winners redraw after their exchange.

Contenders are run down on a virtual slot clock V, the count of slots
consumed so far, so taking k slots from every contender is V += k. A
contender is filed once per draw, at the absolute slot where its backoff
expires, in a calendar queue (Brown, CACM 1988): a bucket of entities
per expiry slot and a heap of the distinct expiry slots. Entity e is
station e for e < N and LTE-U node e - N otherwise. The bucket at the
head of the heap holds the contenders of the next exchange; a collision
sorts it, so stations redraw first and then nodes, each in index order.
A contender that only waits costs nothing per exchange.

An LTE-U node counts only once its duty-off wake plus a clear-channel
assessment (CCA) has passed. Until a decision wakes it, it sleeps
outside the calendar, in a heap keyed by the time its CCA ends, wake +
CCA. At a decision with anchor a, let idle = (window_end - a) // slot
and s be the calendar head less V, or idle with an empty calendar.
While the first sleeper's key is at most a + min(s, idle) slots, it is
popped and filed at V + lead + counter, with lead = max(0, ceil((key -
a) / slot)), and s drops to lead + counter if that is smaller; only then
is the head read. This is exact. The decision consumes at least lead
slots, since an exchange takes s_min + 1 > lead and a window that ends
idle takes min(idle, s_min) >= lead, so the node's CCA has ended by the
next anchor and from there its count runs down on V as a station's
does. A node left asleep has lead > min(s_min, idle): past s_min it
neither holds the smallest backoff nor loses a slot, and past idle the
window ends idle before its CCA does, taking idle slots with the node
filed or not. A node sleeps again when it bursts, which with the default
duty-off of (M + N - 1) bursts is almost all the time. Backoff draws
come from per-entity streams, so outcomes do not depend on participant
interleave or on the order in which winners redraw.

Windows: the run loop opens the medium for a span (a whole run, or one
contention period between beacons), and gives its end once. A window is
open while its anchor lies before its end. A decision is queued only if
it falls before its window's end, so a queued decision always fires. It
ends only at its end: its last exchange may overrun it (the next beacon
then defers to the busy boundary), or the decision that finds nobody
before the window's end ends it idle on the spot. That decision consumes
the window's idle slots, never more than the smallest effective backoff,
books the idle time to the window's end and moves the anchor there. No
exchange may run past the end of the run, which the driver is given
once: in the window that ends there, a decision whose exchange would end
later is frozen, never scheduled, and the window ends idle the same way,
its winners left at zero.

The medium is one simulation process, the generator ``_medium``, which
keeps its hot state in locals: V, the window's anchor and end, the
calendar and the sleepers, and the window's ledger. A window's airtime
and counts are added to the ``MetricsAccumulator`` once, when the
window ends, so the ledger is whole at every window's end: at every
beacon, and at the run's end. An LTE-U node's airtime and bits are
booked per burst. The process waits at three points, and each wait is
resumed by one party:

- no window open: ``open_window`` resumes it, and it decides;
- a queued ``slot-boundary``: the engine resumes it when the decision
  fires, and the exchange starts;
- an exchange in flight: the engine resumes it at the exchange's
  ``tx-end``; it consumes the exchange's s + 1 slots, adds the
  exchange to the window's ledger, redraws the winners and decides
  again.

A decision is logged through the engine's firer for ``("slot-boundary",
"medium")`` when the queue would fire it next anyway, and the exchange
then starts on the spot; otherwise it is queued. The ``tx-end`` that
ends each exchange is always queued, even where the queue would fire it
next: the benchmark's tracer counts exchanges as the callbacks of queued
``tx-end`` events, so one fired inline would vanish from its
per-exchange figures. Three attributes are read from outside the
process: ``window_end``; ``busy_until``, written as each exchange
starts, since beacons, ``close_window`` and ``finalize`` read it while
an exchange is in flight; and ``phase_start``, which only
``open_window`` and ``close_window`` read, so it is written only where
a window opens and where it ends. ``finalize`` closes the process,
which frees its frame and the driver it holds.

Every LTE-U node of a run shares one ``LbtParams``, since
``run_scenario`` builds them all from one config, and the driver
rejects nodes that do not: the medium reads one burst length and one
CCA per run. An exchange with a burst lasts the burst, or the longer of
the burst and a Wi-Fi collision when it collides.

Busy periods are recorded once per exchange: ``tx_intervals`` for
exchanges with a Wi-Fi station in them and ``lte_intervals`` for those
with an LTE-U burst. Each is a ``BusyPeriods``, 16 bytes a pair where a
list of tuples takes about 129. Counts are kept once: each station
counts its own successes and collisions, and ``run_scenario`` reads the
Wi-Fi bits from those counts.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush

from .analytics import MetricsAccumulator
from .dcf import ExchangeDurations, MacTiming, WifiStation
from .engine import Simulator
from .lbt import LbtNode, burst_transmit
from .radio import ChannelParams


class BusyPeriods:
    """(start, end) pairs kept flat in one int64 array: start, end, start,
    end, ... Reads as a sequence of pairs: ``len`` counts pairs,
    iteration yields ``(start, end)`` tuples of ints, and ``==`` compares
    with any sequence of pairs."""

    __slots__ = ("flat",)

    def __init__(self, pairs=()):
        self.flat = flat = array("q")
        for start, end in pairs:
            flat.append(start)
            flat.append(end)

    def append(self, pair: tuple[int, int]) -> None:
        start, end = pair
        self.flat.append(start)
        self.flat.append(end)

    def __len__(self) -> int:
        return len(self.flat) // 2

    def __iter__(self):
        values = iter(self.flat)
        return zip(values, values)

    def __eq__(self, other):
        try:
            pairs = [tuple(pair) for pair in other]
        except TypeError:
            return NotImplemented
        return list(self) == pairs

    def __repr__(self) -> str:
        return f"BusyPeriods({list(self)!r})"


class ContentionDriver:
    """Owns the medium during contention phases of one run."""

    def __init__(self, sim: Simulator, timing: MacTiming,
                 durations: ExchangeDurations,
                 stations: list[WifiStation],
                 metrics: MetricsAccumulator, run_end_us: int,
                 lbt_nodes: list[LbtNode] | None = None,
                 channel: ChannelParams | None = None):
        self.sim = sim
        self.timing = timing
        self.durations = durations
        self.stations = stations
        self.metrics = metrics
        self.run_end_us = run_end_us
        self.lbt_nodes = lbt_nodes or []
        self.channel = channel
        if self.lbt_nodes and channel is None:
            raise ValueError("LTE-U nodes need channel parameters")
        if len({n.params for n in self.lbt_nodes}) > 1:
            raise ValueError("LTE-U nodes must share one LbtParams")

        # a window's start while it is open, its last anchor once it is
        # over; open while < window_end
        self.phase_start = 0
        self.window_end = 0
        self.busy_until = 0         # the medium is busy before this time
        self._calendar: dict[int, list[int]] = {}  # expiry slot -> entities
        for i, st in enumerate(stations):
            self._calendar.setdefault(st.counter, []).append(i)
        self._expiries = list(self._calendar)  # heap of the calendar's keys
        heapify(self._expiries)

        # Busy periods, (start, end): with a Wi-Fi station, with LTE-U.
        self.tx_intervals = BusyPeriods()
        self.lte_intervals = BusyPeriods()

        self._process = self._medium()
        next(self._process)         # to its first wait: no window open

    # -- window control -------------------------------------------------

    def open_window(self, start_us: int, end_us: int) -> None:
        if self.phase_start < self.window_end:
            raise RuntimeError("window already open")
        if not start_us < end_us <= self.run_end_us:
            raise ValueError("a window must be non-empty and end by the "
                             "run's end")
        self.phase_start = start_us
        self.window_end = end_us
        next(self._process)

    def close_window(self, t_us: int) -> None:
        """Check, at a beacon at t_us, that the medium is idle and its
        window over; the medium ends each window itself."""
        if self.busy_until > t_us:
            raise RuntimeError("cannot close a busy medium")
        if self.phase_start < self.window_end or t_us < self.window_end:
            raise RuntimeError(f"the window to {self.window_end} us is not "
                               f"over at {t_us} us")

    def finalize(self, t_end: int) -> None:
        """End the medium process; it must not be mid-burst."""
        if self.busy_until > t_end:
            raise RuntimeError("run ended inside a transmission")
        self._process.close()

    # -- the medium process ---------------------------------------------

    def _medium(self):
        """The medium, from window to window and exchange to exchange.

        A decision files the sleepers the wake rule reaches, one per
        pass, before it reads the calendar head. A lone station's
        success, the common exchange, takes one ``solo`` branch before
        its exchange and one after, which files the station again
        without a sort, a loop or a test for a collision or a burst.
        Each way out of a window's loop, idle, frozen or after its last
        exchange, leads to where its ledger is booked.
        """
        sim = self.sim
        schedule = sim.schedule
        fire_start = sim.inline_firer("slot-boundary", "medium")
        resume = self._process.__next__
        metrics = self.metrics
        stations, nodes, channel = self.stations, self.lbt_nodes, self.channel
        n_wifi = len(stations)
        calendar, expiries = self._calendar, self._expiries
        # every node shares one LbtParams, checked in __init__
        burst = cca = 0
        if nodes:
            burst, cca = nodes[0].params.burst_us, nodes[0].params.cca_us
        # nodes outside the calendar, by the time their CCA ends:
        # (wake + CCA, index); wake_due is the first key, or never, which
        # lies past every window
        sleepers = [(n.wake_at_us + cca, j) for j, n in enumerate(nodes)]
        heapify(sleepers)
        never = self.run_end_us + 1
        wake_due = sleepers[0][0] if sleepers else never
        slot = self.timing.slot_us
        t_success = self.durations.t_success_ticks
        t_collision = self.durations.t_collision_ticks
        lte_collision = max(burst, t_collision)     # a burst in a collision
        run_end = self.run_end_us
        wifi_log = self.tx_intervals.flat.append
        lte_log = self.lte_intervals.flat.append
        vslot = 0                   # V: slots consumed since the run began

        while True:
            yield                   # no window open: open_window resumes
            start = anchor = self.phase_start
            window_end = self.window_end
            # the window's ledger, booked to metrics once it ends: its
            # lone-station successes, and the other exchanges' airtime
            # and counts; its idle time is the rest of its span
            solos = success_us = collision_us = 0
            successes = collisions = 0
            while True:
                # -- decide ---------------------------------------------
                if expiries:
                    head = expiries[0]
                    s_min = head - vslot
                    tx_time = anchor + s_min * slot
                else:               # nobody filed: every idle slot
                    s_min, tx_time = (window_end - anchor) // slot, window_end
                if wake_due <= tx_time and wake_due <= (
                        window_end - (window_end - anchor) % slot):
                    # the first sleeper's CCA ends within min(s_min, idle)
                    # slots: file it at its lead plus its counter, and
                    # decide again
                    key, j = heappop(sleepers)
                    wake_due = sleepers[0][0] if sleepers else never
                    lead = -(-(key - anchor) // slot)
                    if lead < 0:
                        lead = 0
                    expiry = vslot + lead + nodes[j].counter
                    bucket = calendar.get(expiry)
                    if bucket is None:
                        calendar[expiry] = [n_wifi + j]
                        heappush(expiries, expiry)
                    else:
                        bucket.append(n_wifi + j)
                    continue
                if tx_time >= window_end:
                    # nobody before the window's end: it ends idle now,
                    # taking its idle slots but never more than s_min
                    vslot += min(s_min, (window_end - anchor) // slot)
                    self.phase_start = anchor = window_end
                    break
                if s_min < 0:
                    raise RuntimeError(f"backoff ran {-s_min} slots past zero")
                winners = calendar[head]
                e = winners[0]
                solo = len(winners) == 1 and e < n_wifi
                if solo:            # one station: a success
                    duration = t_success
                else:
                    collision = len(winners) > 1
                    if collision:   # stations first, then nodes
                        winners.sort()
                        e = winners[0]
                    lte = winners[-1] >= n_wifi
                    duration = ((lte_collision if collision else burst)
                                if lte else t_collision)
                end = tx_time + duration
                if end > window_end and window_end == run_end:
                    # the exchange would outlast the run: the window ends
                    # idle, its s_min slots taken, so the winners stay at
                    # zero
                    vslot = head
                    self.phase_start = anchor = window_end
                    break

                # -- the exchange starts at tx_time ---------------------
                if not fire_start(tx_time):
                    schedule(tx_time, "slot-boundary", "medium", resume)
                    yield           # a queued decision: the engine resumes
                self.busy_until = end
                if solo:
                    wifi_log(tx_time)
                    wifi_log(end)
                else:
                    if e < n_wifi:  # the lowest winner is a station
                        wifi_log(tx_time)
                        wifi_log(end)
                    if lte:
                        lte_log(tx_time)
                        lte_log(end)
                schedule(end, "tx-end", "medium", resume)
                yield               # in flight: the engine resumes at end

                # -- it ends: consume s_min + 1 slots, book, redraw -----
                vslot = head + 1    # V + s_min + 1
                # unfile the winners' bucket; a station is filed again at
                # the slot where its fresh backoff expires, a node sleeps
                del calendar[heappop(expiries)]
                if solo:            # e, the one winner, is a station
                    solos += 1
                    st = stations[e]
                    st.on_success()
                    expiry = vslot + st.counter
                    bucket = calendar.get(expiry)
                    if bucket is None:
                        calendar[expiry] = [e]
                        heappush(expiries, expiry)
                    else:
                        bucket.append(e)
                else:
                    if collision:
                        collision_us += duration
                        collisions += 1
                    else:
                        success_us += duration
                        successes += 1
                    for e in winners:
                        if e < n_wifi:
                            st = stations[e]
                            st.on_collision()
                            expiry = vslot + st.counter
                            bucket = calendar.get(expiry)
                            if bucket is None:
                                calendar[expiry] = [e]
                                heappush(expiries, expiry)
                            else:
                                bucket.append(e)
                        else:
                            j = e - n_wifi
                            node = nodes[j]
                            metrics.add_lte_airtime(node.node_id, burst)
                            if not collision:
                                metrics.add_lte_bits(
                                    node.node_id, burst_transmit(node, channel))
                            node.start_duty_off(end)
                            node.draw_backoff()
                            heappush(sleepers, (node.wake_at_us + cca, j))
                            wake_due = sleepers[0][0]
                anchor = end
                if end >= window_end:   # overrun, or ended at its end
                    self.phase_start = end
                    break

            # -- the window is over: book its ledger --------------------
            # exchanges run back to back from anchor to anchor, so what
            # their airtime leaves of the window's span, start to the
            # last anchor, is its idle time
            success_us += solos * t_success
            metrics.idle_us += anchor - start - success_us - collision_us
            metrics.success_us += success_us
            metrics.collision_us += collision_us
            metrics.success_events += successes + solos
            metrics.collision_events += collisions
