"""Shared-medium contention driver.

Models the slotted carrier-sense medium that Wi-Fi stations (and, in the
duty-cycled baseline, LTE-U nodes) contend on. Rather than ticking every
slot (``MacTiming.slot_us`` long), the driver jumps straight to the next
decision point: the smallest effective backoff over all participants.
Everyone with that backoff transmits, everyone else freezes, and the
medium stays busy for the exchange duration with the post-exchange
spacing folded in, so idle time advances in exact slot multiples.

One rule runs the counters down: k slots take k from every station and
max(0, k - lead) from every LTE-U node. An exchange after s idle slots
consumes s + 1, because a busy period counts as one backoff slot, the
convention of the slotted renewal chain behind the analytical saturation
model. A window that closes idle consumes its whole idle slots, never
more than the smallest effective backoff. Winners redraw after their
exchange.

Wi-Fi stations are run down on a virtual slot clock V, the count of
slots consumed so far, so taking k slots from every station is V += k.
A station is filed once per draw, at the absolute slot V + counter where
its backoff expires, in a calendar queue (Brown, CACM 1988): a bucket of
station indices per expiry slot and a heap of the distinct expiry slots,
of which there are at most min(N, cw_max). The bucket at the head of the
heap holds the Wi-Fi contenders of the next exchange, in station-index
order; after their exchange they redraw and are filed again. A station
that only waits costs nothing per exchange.

LTE-U nodes keep their counters and are run down one by one. A node's
lead is its duty-off wake plus a clear-channel assessment, counted from
the window anchor and rounded up to whole slots; its effective backoff
is lead + counter. The anchor does not move between deciding an
exchange and consuming its slots, so the leads are computed once per
decision and the next consume reuses them. Only the nodes on the walk,
a sorted list of node indices, are looked at; the others sleep in a heap
keyed by the time their CCA ends, wake + CCA. A decision with nodes on
the walk, or with a sleeper due, first moves onto the walk every sleeper
whose key is at most the anchor plus s_wifi slots, s_wifi being the
calendar head's backoff (every sleeper, with no Wi-Fi station). A node
left asleep has lead > s_wifi >= s_min, so it neither holds the smallest
backoff nor loses a slot to the consume that follows (an exchange
consumes s_min + 1 <= lead, an idle close at most s_min): leaving it out
changes nothing. With the walk empty and no sleeper due, the decision is
the calendar head alone. A node goes back to sleep when it bursts, which
with the default duty-off of (M + N - 1) bursts is almost all the time.
Backoff draws come from per-entity streams, so outcomes do not depend on
participant interleave or on the order in which winners redraw.

Windows: the run loop opens the medium for a span (a whole run, or one
contention period between beacons). A window is open while its anchor
lies before its end. A decision is queued only if it falls before its
window's end, so a queued decision always fires. It ends only at its
end: its last exchange may overrun it (the next beacon then defers to
the busy boundary), or it closes idle there, never past the smallest
effective backoff. No exchange may run past the end of the run, which
the driver is given once: in the window that ends there, a decision
whose exchange would end later is frozen, never scheduled, and
``finalize`` books the window's tail idle.

The medium is one simulation process, the generator ``_medium``, which
keeps its hot state in locals: V, the window's anchor and end, the slot
and exchange lengths, the calendar and the LTE-U walk. It waits at four
points, and each is resumed by one party:

- no window open: ``open_window`` resumes it, and it decides;
- idle until the window closes: ``close_window(t)`` sends it t, and it
  consumes the window's idle slots;
- a queued ``slot-boundary``: the engine resumes it when the decision
  fires, and the exchange starts;
- an exchange in flight: the engine resumes it at the exchange's
  ``tx-end``; it consumes the exchange's s + 1 slots, books the
  exchange, redraws the winners and decides again.

The engine resumes it through one prebound ``resume``, the generator's
``__next__``. A decision is logged with ``Simulator.fire_inline`` when
the queue would fire it next anyway, and the exchange then starts on the
spot; otherwise it is queued. Either way it is the last thing the
callback that made it does. The ``tx-end`` that ends each exchange is
always queued, through ``Simulator.schedule``, even where the queue
would fire it next: the benchmark's tracer counts exchanges as the
callbacks of queued ``tx-end`` events, so one fired inline would vanish
from its per-exchange figures. ``busy_until``, ``phase_start`` and
``window_end`` stay attributes, and V is written back to ``_vslot``
whenever it moves, so it is current at every wait. ``finalize`` closes
the process, which frees its frame and the driver it holds.

Busy periods are recorded once per exchange, as ``(start, end)`` pairs:
``tx_intervals`` for exchanges with a Wi-Fi station in them and
``lte_intervals`` for those with an LTE-U burst. Counts are kept once:
each station counts its own successes and collisions, and ``finalize``
sets the ledger's per-station Wi-Fi bits from those counts.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush

from .analytics import MetricsAccumulator
from .dcf import ExchangeDurations, MacTiming, WifiStation
from .engine import Simulator
from .lbt import LbtNode, burst_transmit
from .radio import ChannelParams


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

        self.phase_start = 0        # window anchor; open while < window_end
        self.window_end = 0
        self.busy_until = 0         # the medium is busy before this time
        self._vslot = 0             # V: slots consumed since the run began
        self._calendar: dict[int, list[int]] = {}  # expiry slot -> stations
        for i, st in enumerate(stations):
            self._calendar.setdefault(st.counter, []).append(i)
        self._expiries = list(self._calendar)  # heap of the calendar's keys
        heapify(self._expiries)

        # Busy periods, (start, end): with a Wi-Fi station, with LTE-U.
        self.tx_intervals: list[tuple[int, int]] = []
        self.lte_intervals: list[tuple[int, int]] = []

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
        """End an idle window at its end, t_us; participants keep their
        counters. The window that ends at the run's end is not closed
        here: it can hold a frozen decision, and ends with the run."""
        if self.busy_until > t_us:
            raise RuntimeError("cannot close a busy medium")
        if self.phase_start >= self.window_end:
            return
        if t_us != self.window_end:
            raise RuntimeError(f"window ends at {self.window_end} us, "
                               f"not at {t_us} us")
        if t_us == self.run_end_us:
            raise RuntimeError("the run's last window ends with the run")
        self._process.send(t_us)

    def finalize(self, t_end: int) -> None:
        """Account the tail of the run, and each station's delivered bits
        from its success count; medium must not be mid-burst. Ends the
        medium process."""
        if self.busy_until > t_end:
            raise RuntimeError("run ended inside a transmission")
        if self.phase_start < self.window_end:
            self.metrics.idle_us += t_end - self.phase_start
            self.phase_start = t_end
        payload_bits = self.timing.payload_bits
        self.metrics.wifi_bits = {st.station_id: st.success_count * payload_bits
                                  for st in self.stations}
        self._process.close()

    # -- the medium process ---------------------------------------------

    def _medium(self):
        """The medium, from window to window and exchange to exchange.

        Each decision takes the smallest effective backoff s_min and the
        stations and nodes that hold it. With nodes on the walk or a
        sleeper due, it first moves onto the walk every sleeper whose CCA
        ends by the slot where the calendar head expires (every sleeper,
        with no Wi-Fi station), and fixes the walked nodes' leads at the
        anchor for the consume that follows; otherwise it reads only the
        calendar head.
        """
        sim = self.sim
        schedule, fire_inline = sim.schedule, sim.fire_inline
        resume = self._process.__next__
        metrics = self.metrics
        stations, nodes, channel = self.stations, self.lbt_nodes, self.channel
        n_wifi, m_lte = len(stations), len(nodes)
        calendar, expiries = self._calendar, self._expiries
        walk: list[int] = []        # LTE-U nodes walked, by index
        leads: list[int] = []       # their leads at the current anchor
        # the other nodes, by the time their CCA ends: (wake + CCA, index)
        sleepers = [(n.wake_at_us + n.params.cca_us, j)
                    for j, n in enumerate(nodes)]
        heapify(sleepers)
        slot = self.timing.slot_us
        t_success = self.durations.t_success_ticks
        t_collision = self.durations.t_collision_ticks
        run_end = self.run_end_us
        wifi_log = self.tx_intervals.append
        lte_log = self.lte_intervals.append
        vslot = 0

        while True:
            yield                   # no window open: open_window resumes
            anchor, window_end = self.phase_start, self.window_end
            while True:
                # -- decide ---------------------------------------------
                if expiries:
                    head = expiries[0]
                    s_min, wifi_w = head - vslot, calendar[head]
                    horizon = anchor + s_min * slot
                else:
                    s_min = horizon = None
                    wifi_w = []
                lte_w = ()
                if walk or sleepers and (horizon is None
                                         or sleepers[0][0] <= horizon):
                    while sleepers and (horizon is None
                                        or sleepers[0][0] <= horizon):
                        insort(walk, heappop(sleepers)[1])
                    leads.clear()
                    lte_min, lte_w = None, []
                    for j in walk:
                        node = nodes[j]
                        lead = -(-(node.wake_at_us + node.params.cca_us
                                   - anchor) // slot)
                        if lead < 0:
                            lead = 0
                        leads.append(lead)
                        eff = node.counter + lead
                        if lte_min is None or eff < lte_min:
                            lte_min, lte_w = eff, [j]
                        elif eff == lte_min:
                            lte_w.append(j)
                    if s_min is None or lte_min < s_min:
                        s_min, wifi_w = lte_min, []
                    elif lte_min > s_min:
                        lte_w = ()
                if s_min is None:
                    tx_time = window_end    # nobody contends
                else:
                    if s_min < 0:
                        raise RuntimeError(
                            f"backoff ran {-s_min} slots past zero")
                    tx_time = anchor + s_min * slot
                    collision = len(wifi_w) + len(lte_w) > 1
                    if lte_w:
                        duration = 0
                        for j in lte_w:
                            burst = nodes[j].params.burst_us
                            if burst > duration:
                                duration = burst
                        if collision and t_collision > duration:
                            duration = t_collision
                    elif collision:
                        duration = t_collision
                    else:
                        duration = t_success
                    end = tx_time + duration
                    if window_end == run_end and end > window_end:
                        tx_time = window_end    # would outlast the run
                if tx_time >= window_end:
                    # the window closes first: idle to its end (in the
                    # run's last window, a frozen decision and the tail)
                    t = yield       # idle: close_window sends t
                    elapsed = t - anchor
                    k = elapsed // slot
                    self._vslot = vslot = vslot + k
                    for j, lead in zip(walk, leads):
                        if k > lead:
                            nodes[j].counter -= k - lead
                    metrics.idle_us += elapsed
                    self.phase_start = t
                    break

                # -- the exchange starts at tx_time ---------------------
                if not fire_inline(tx_time, "slot-boundary", "medium"):
                    schedule(tx_time, "slot-boundary", "medium", resume)
                    yield           # a queued decision: the engine resumes
                metrics.idle_us += tx_time - anchor
                self.busy_until = end
                if wifi_w:
                    wifi_log((tx_time, end))
                if lte_w:
                    lte_log((tx_time, end))
                schedule(end, "tx-end", "medium", resume)
                yield               # in flight: the engine resumes at end

                # -- it ends: consume s_min + 1 slots, book, redraw -----
                k = s_min + 1
                self._vslot = vslot = vslot + k
                for j, lead in zip(walk, leads):
                    if k > lead:
                        nodes[j].counter -= k - lead
                if collision:
                    metrics.collision_us += duration
                    metrics.collision_events += 1
                else:
                    metrics.success_us += duration
                    metrics.success_events += 1
                if wifi_w:
                    # unfile the winners' bucket, then file each, in
                    # index order, at the slot where its fresh backoff
                    # expires
                    del calendar[heappop(expiries)]
                    wifi_w.sort()
                    for i in wifi_w:
                        st = stations[i]
                        if collision:
                            st.on_collision()
                        else:
                            st.on_success()
                        expiry = vslot + st.counter
                        bucket = calendar.get(expiry)
                        if bucket is None:
                            calendar[expiry] = [i]
                            heappush(expiries, expiry)
                        else:
                            bucket.append(i)
                for j in lte_w:
                    node = nodes[j]
                    metrics.add_lte_airtime(node.node_id, node.params.burst_us)
                    if not collision:
                        metrics.add_lte_bits(node.node_id,
                                             burst_transmit(node, channel))
                    node.start_duty_off(end, m_lte, n_wifi)
                    node.draw_backoff()
                    i = walk.index(j)   # off the walk until it wakes
                    del walk[i], leads[i]
                    heappush(sleepers,
                             (node.wake_at_us + node.params.cca_us, j))
                self.phase_start = anchor = end
                if end >= window_end:
                    break           # overrun, or ended at the window's end
