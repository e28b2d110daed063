"""Shared-medium contention driver.

Models the slotted carrier-sense medium that Wi-Fi stations (and, in the
duty-cycled baseline, LTE-U nodes) contend on. Rather than ticking every
slot (``MacTiming.slot_us`` long), the driver jumps straight to the next
decision point: the smallest effective backoff over all participants.
Everyone with that counter transmits, everyone else freezes, and the
medium stays busy for the exchange duration with the post-exchange
spacing folded in, so idle time advances in exact slot multiples.

One rule runs the counters down: k slots take k from every station and
max(0, k - lead) from every LTE-U node. An exchange after s idle slots
consumes s + 1, because a busy period counts as one backoff slot, the
convention of the slotted renewal chain behind the analytical saturation
model. A window that closes idle consumes its whole idle slots, never
more than the smallest effective backoff. Winners redraw after their
exchange.

Windows: the run loop opens the medium for a span (a whole run, or one
contention period between beacons) and either lets the final exchange
overrun the window (the next beacon then defers to the busy boundary) or
forbids transmissions that cannot finish inside it.

An LTE-U node's lead is its duty-off wake plus a clear-channel
assessment, counted from the window anchor and rounded up to whole
slots; its effective backoff is lead + counter. Wi-Fi stations have no
lead. Backoff draws come from per-entity streams, so outcomes do not
depend on participant interleave.
"""

from __future__ import annotations

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
                 metrics: MetricsAccumulator,
                 lbt_nodes: list[LbtNode] | None = None,
                 channel: ChannelParams | None = None):
        self.sim = sim
        self.timing = timing
        self.durations = durations
        self.stations = stations
        self.metrics = metrics
        self.lbt_nodes = lbt_nodes or []
        self.channel = channel
        if self.lbt_nodes and channel is None:
            raise ValueError("LTE-U nodes need channel parameters")
        self.m_lte = len(self.lbt_nodes)
        self.n_wifi = len(stations)

        self.phase_open = False
        self.phase_start = 0
        self.window_end = 0
        self.allow_overrun = False
        self.busy_until = 0
        self._pending = None        # scheduled decision event, if any
        self._inflight = None       # (s_min, wifi_w, lte_w, duration)
        self._frozen_smin = None    # set when the next tx cannot fit

        # Busy-period log: (start, end, wifi_involved, lte_involved).
        self.tx_intervals: list[tuple[int, int, bool, bool]] = []

    # -- window control -------------------------------------------------

    def open_window(self, start_us: int, end_us: int,
                    allow_overrun: bool) -> None:
        if self.phase_open or self._inflight is not None:
            raise RuntimeError("window already open")
        if end_us <= start_us:
            raise ValueError("empty contention window")
        self.phase_open = True
        self.phase_start = start_us
        self.window_end = end_us
        self.allow_overrun = allow_overrun
        self._frozen_smin = None
        self._arm()

    def close_window(self, t_us: int) -> None:
        """End an idle window at t_us; participants keep their counters."""
        if self._inflight is not None:
            raise RuntimeError("cannot close a busy medium")
        if not self.phase_open:
            return
        self._cancel_pending()
        elapsed = t_us - self.phase_start
        k = elapsed // self.timing.slot_us
        if self._frozen_smin is not None:
            k = min(k, self._frozen_smin)
        self._consume(k)
        self.metrics.idle_us += elapsed
        self.phase_open = False
        self._frozen_smin = None

    def finalize(self, t_end: int) -> None:
        """Account the tail of the run; medium must not be mid-burst."""
        if self._inflight is not None or self.busy_until > t_end:
            raise RuntimeError("run ended inside a transmission")
        if self.phase_open:
            self._cancel_pending()
            self.metrics.idle_us += t_end - self.phase_start
            self.phase_open = False

    # -- decision mechanics ---------------------------------------------

    def _lead_slots(self, node: LbtNode) -> int:
        """Whole slots from the window anchor to the node's wake + CCA."""
        lead = node.wake_at_us + node.params.cca_us - self.phase_start
        return max(0, -(-lead // self.timing.slot_us))

    def _consume(self, k: int) -> None:
        """Run k slots off every counter; LTE-U nodes skip their lead.

        k never exceeds s_min + 1, so only the winners of the exchange,
        which redraw next, can pass zero.
        """
        for st in self.stations:
            st.counter -= k
        for node in self.lbt_nodes:
            node.counter -= max(0, k - self._lead_slots(node))

    def _arm(self) -> None:
        eff = [st.counter for st in self.stations]
        eff += [node.counter + self._lead_slots(node)
                for node in self.lbt_nodes]
        if not eff:
            return
        s_min = min(eff)
        tx_time = self.phase_start + s_min * self.timing.slot_us
        if tx_time >= self.window_end:
            return   # window closes first; counters settled at close
        winners = [i for i, e in enumerate(eff) if e == s_min]
        wifi_w = [i for i in winners if i < self.n_wifi]
        lte_w = [i - self.n_wifi for i in winners if i >= self.n_wifi]
        duration = self._busy_duration(wifi_w, lte_w)
        if not self.allow_overrun and tx_time + duration > self.window_end:
            self._frozen_smin = s_min
            return
        self._pending = self.sim.schedule(
            tx_time, "slot-boundary", "medium",
            lambda: self._fire(s_min, wifi_w, lte_w, duration))

    def _busy_duration(self, wifi_w: list[int], lte_w: list[int]) -> int:
        if lte_w:
            burst = max(self.lbt_nodes[i].params.burst_us for i in lte_w)
            if len(wifi_w) + len(lte_w) > 1:
                return max(burst, self.durations.t_collision_ticks)
            return burst
        if len(wifi_w) > 1:
            return self.durations.t_collision_ticks
        return self.durations.t_success_ticks

    def _fire(self, s_min, wifi_w, lte_w, duration) -> None:
        now = self.sim.now
        self.metrics.idle_us += now - self.phase_start
        self.busy_until = now + duration
        self._pending = None
        self._inflight = (s_min, wifi_w, lte_w, duration)
        self.tx_intervals.append(
            (now, self.busy_until, bool(wifi_w), bool(lte_w)))
        self.sim.schedule(self.busy_until, "tx-end", "medium", self._tx_end)

    def _tx_end(self) -> None:
        s_min, wifi_w, lte_w, duration = self._inflight
        self._inflight = None
        now = self.sim.now
        collision = len(wifi_w) + len(lte_w) > 1
        # the s_min idle slots plus the busy one; winners redraw below
        self._consume(s_min + 1)

        if collision:
            self.metrics.collision_us += duration
            self.metrics.collision_events += 1
            for i in wifi_w:
                self.stations[i].on_collision()
        else:
            self.metrics.success_us += duration
            self.metrics.success_events += 1
            if wifi_w:
                st = self.stations[wifi_w[0]]
                st.on_success()
                self.metrics.add_wifi_bits(st.station_id,
                                           self.timing.payload_bits)

        for j in lte_w:
            node = self.lbt_nodes[j]
            self.metrics.add_lte_airtime(node.node_id, node.params.burst_us)
            if not collision:
                self.metrics.add_lte_bits(
                    node.node_id, burst_transmit(node, self.channel))
            node.start_duty_off(now, self.m_lte, self.n_wifi)
            node.draw_backoff()

        self.phase_start = now
        if now < self.window_end:
            self._arm()
        else:
            self.phase_open = False

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
