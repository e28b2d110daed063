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
keyed by the time their CCA ends, wake + CCA. Each decision first moves
onto the walk every sleeper whose key is at most the anchor plus s_wifi
slots, s_wifi being the calendar head's backoff (every sleeper, with no
Wi-Fi station). A node left asleep has lead > s_wifi >= s_min, so it
neither holds the smallest backoff nor loses a slot to the consume that
follows (an exchange consumes s_min + 1 <= lead, an idle close at most
s_min): leaving it out changes nothing. A node goes back to sleep when
it bursts, which with the default duty-off of (M + N - 1) bursts is
almost all the time. Backoff draws come from per-entity streams, so
outcomes do not depend on participant interleave or on the order in
which winners redraw.

Windows: the run loop opens the medium for a span (a whole run, or one
contention period between beacons). A decision is scheduled only if it
falls before its window's end, so a queued decision always fires. When
the queue would fire it next anyway, it is not queued at all: the
driver logs it with ``Simulator.fire_inline`` and fires it on the spot,
as the last statement of the callback that made it. The ``tx-end`` that
ends each exchange is always queued, through ``Simulator.schedule``,
even where the queue would fire it next: the benchmark's tracer counts
exchanges as the callbacks of queued ``tx-end`` events, so one fired
inline would vanish from its per-exchange figures. A window is open
while its anchor lies before its end. It ends only at its end: its last
exchange may overrun it (the next beacon then defers to the busy
boundary), or it closes idle there, never past the smallest effective
backoff. No exchange may run past the end of the run, which the driver
is given once: in the window that ends there, a decision whose exchange
would end later is frozen, never scheduled, and ``finalize`` books the
window's tail idle.

An exchange runs in the frames the driver already has. ``_arm`` makes
the decision in place, the scan for the smallest effective backoff
included; without LTE-U nodes it reads only the calendar head. The
queued ``tx-end`` callback, ``_tx_end``, consumes the exchange's s + 1
slots in place, walking the LTE-U leads only when there are nodes, then
books the exchange, redraws the winners and decides again. ``_consume``
is left to a window that closes idle, once per window.

Counts are kept once: each station counts its own successes and
collisions, and ``finalize`` sets the ledger's per-station Wi-Fi bits
from those counts.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
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
        self._expiries: list[int] = []  # heap of the calendar's keys
        self._walk: list[int] = []      # LTE-U nodes walked, by index
        self._leads: list[int] = []     # their leads at the current anchor
        # the other nodes, by the time their CCA ends: (wake + CCA, index)
        self._sleepers = [(n.wake_at_us + n.params.cca_us, j)
                          for j, n in enumerate(self.lbt_nodes)]
        heapify(self._sleepers)
        for i, st in enumerate(stations):
            self._calendar.setdefault(st.counter, []).append(i)
        self._expiries = list(self._calendar)
        heapify(self._expiries)

        # Busy-period log: (start, end, wifi_involved, lte_involved).
        self.tx_intervals: list[tuple[int, int, bool, bool]] = []

    # -- window control -------------------------------------------------

    def open_window(self, start_us: int, end_us: int) -> None:
        if self.phase_start < self.window_end:
            raise RuntimeError("window already open")
        if not start_us < end_us <= self.run_end_us:
            raise ValueError("a window must be non-empty and end by the "
                             "run's end")
        self.phase_start = start_us
        self.window_end = end_us
        self._arm()

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
        elapsed = t_us - self.phase_start
        self._consume(elapsed // self.timing.slot_us)
        self.metrics.idle_us += elapsed
        self.phase_start = t_us

    def finalize(self, t_end: int) -> None:
        """Account the tail of the run, and each station's delivered bits
        from its success count; medium must not be mid-burst."""
        if self.busy_until > t_end:
            raise RuntimeError("run ended inside a transmission")
        if self.phase_start < self.window_end:
            self.metrics.idle_us += t_end - self.phase_start
            self.phase_start = t_end
        payload_bits = self.timing.payload_bits
        self.metrics.wifi_bits = {st.station_id: st.success_count * payload_bits
                                  for st in self.stations}

    # -- decision mechanics ---------------------------------------------

    def _consume(self, k: int) -> None:
        """Run k slots off every counter: V advances by k, and each LTE-U
        node on the walk skips its lead (a sleeper's lead is at least k).
        An exchange does the same in ``_tx_end``, in place."""
        self._vslot += k
        nodes = self.lbt_nodes
        for j, lead in zip(self._walk, self._leads):
            if k > lead:
                nodes[j].counter -= k - lead

    def _arm(self) -> None:
        """Decide the next exchange and fire it, from the queue or inline.

        The decision is the smallest effective backoff s_min and the
        stations and nodes that hold it. With LTE-U nodes, it first moves
        onto the walk every sleeping node whose CCA ends by the slot
        where the calendar head expires (every sleeper, with no Wi-Fi
        station); one that ends later has a lead above s_min. It fixes
        the walked nodes' leads at the current anchor for the consume
        that follows. Without nodes it reads only the calendar head.

        Must be the last statement of the event callback that reaches
        it, so that firing the decision inline, when the queue would fire
        it next anyway, runs it exactly where it would have run.
        """
        expiries = self._expiries
        anchor = self.phase_start
        nodes = self.lbt_nodes
        slot = self.timing.slot_us
        if not nodes:
            if not expiries:
                return
            head = expiries[0]
            s_min = head - self._vslot
            wifi_w = self._calendar[head]
            lte_w = ()
        else:
            sleepers, walk = self._sleepers, self._walk
            if expiries:
                s_min = expiries[0] - self._vslot
                horizon = anchor + s_min * slot
                while sleepers and sleepers[0][0] <= horizon:
                    insort(walk, heappop(sleepers)[1])
            else:
                s_min = None
                while sleepers:
                    insort(walk, heappop(sleepers)[1])
            self._leads = leads = []
            lte_min, lte_w = None, []
            for j in walk:
                node = nodes[j]
                lead = -(-(node.wake_at_us + node.params.cca_us - anchor)
                         // slot)
                if lead < 0:
                    lead = 0
                leads.append(lead)
                eff = node.counter + lead
                if lte_min is None or eff < lte_min:
                    lte_min, lte_w = eff, [j]
                elif eff == lte_min:
                    lte_w.append(j)
            if lte_min is not None:
                if s_min is None or lte_min < s_min:
                    s_min = lte_min
                elif lte_min > s_min:
                    lte_w = []
            if s_min is None:
                return
            wifi_w = (self._calendar[expiries[0]]
                      if expiries and expiries[0] - self._vslot == s_min
                      else [])
        if s_min < 0:
            raise RuntimeError(f"backoff ran {-s_min} slots past zero")
        tx_time = anchor + s_min * slot
        if tx_time >= self.window_end:
            return   # window closes first; counters settled at close
        wifi_w = sorted(wifi_w)
        durations = self.durations
        if lte_w:
            duration = max([nodes[j].params.burst_us for j in lte_w])
            if len(wifi_w) + len(lte_w) > 1:
                duration = max(duration, durations.t_collision_ticks)
        elif len(wifi_w) > 1:
            duration = durations.t_collision_ticks
        else:
            duration = durations.t_success_ticks
        end = tx_time + duration
        window_end = self.window_end
        if window_end == self.run_end_us and end > window_end:
            return   # would outlast the run: frozen, the tail stays idle
        sim = self.sim
        if not sim.fire_inline(tx_time, "slot-boundary", "medium"):
            sim.schedule(tx_time, "slot-boundary", "medium",
                         partial(self._fire, s_min, wifi_w, lte_w, duration))
            return
        # fired inline: _fire's work, without its frame
        self.metrics.idle_us += tx_time - anchor
        self.busy_until = end
        self.tx_intervals.append((tx_time, end, bool(wifi_w), bool(lte_w)))
        sim.schedule(end, "tx-end", "medium",
                     partial(self._tx_end, s_min, wifi_w, lte_w, duration))

    def _fire(self, s_min, wifi_w, lte_w, duration) -> None:
        """A queued decision: the exchange starts now."""
        now = self.sim.now
        self.metrics.idle_us += now - self.phase_start
        self.busy_until = end = now + duration
        self.tx_intervals.append((now, end, bool(wifi_w), bool(lte_w)))
        self.sim.schedule(end, "tx-end", "medium",
                          partial(self._tx_end, s_min, wifi_w, lte_w, duration))

    def _tx_end(self, s_min, wifi_w, lte_w, duration) -> None:
        """The exchange ends now: consume its slots, book it, redraw the
        winners and decide the next one."""
        now = self.sim.now
        metrics = self.metrics
        collision = len(wifi_w) + len(lte_w) > 1
        # the s_min idle slots plus the busy one, as _consume(s_min + 1)
        k = s_min + 1
        self._vslot = vslot = self._vslot + k
        nodes = self.lbt_nodes
        if nodes:
            for j, lead in zip(self._walk, self._leads):
                if k > lead:
                    nodes[j].counter -= k - lead
        if collision:
            metrics.collision_us += duration
            metrics.collision_events += 1
        else:
            metrics.success_us += duration
            metrics.success_events += 1

        if wifi_w:
            # unfile the winners' bucket, then file each at the slot where
            # its fresh backoff expires
            calendar, expiries = self._calendar, self._expiries
            del calendar[heappop(expiries)]
            stations = self.stations
            for i in wifi_w:
                st = stations[i]
                if collision:
                    st.on_collision()
                else:
                    st.on_success()
                slot = vslot + st.counter
                bucket = calendar.get(slot)
                if bucket is None:
                    calendar[slot] = [i]
                    heappush(expiries, slot)
                else:
                    bucket.append(i)

        for j in lte_w:
            node = nodes[j]
            metrics.add_lte_airtime(node.node_id, node.params.burst_us)
            if not collision:
                metrics.add_lte_bits(
                    node.node_id, burst_transmit(node, self.channel))
            node.start_duty_off(now, len(nodes), len(self.stations))
            node.draw_backoff()
            i = self._walk.index(j)   # off the walk until it wakes
            del self._walk[i], self._leads[i]
            heappush(self._sleepers, (node.wake_at_us + node.params.cca_us, j))

        self.phase_start = now
        if now < self.window_end:
            self._arm()
