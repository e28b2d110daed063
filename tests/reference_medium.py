"""A slot-stepping reference for the contention driver; test code only.

``ReferenceMedium`` has the driver's interface (``open_window``,
``close_window``, ``finalize``, ``busy_until``, ``tx_intervals``,
``lte_intervals``), so a test can patch it in for
``simulate.ContentionDriver`` and run a scenario unchanged. It shares
none of the driver's machinery: no virtual slot clock, calendar, leads,
sleeper heap or inline firing. It keeps a plain counter per station and
per LTE-U node and steps the medium one slot at a time from the window
anchor, by the rules alone:

- slot s starts at anchor + s * slot_us. Whoever is at zero at its
  start transmits there: a station always, an LTE-U node only once its
  duty-off wake plus CCA has passed. The exchange starts only if that
  time lies before the window's end, and, in the window that ends with
  the run, only if it also ends by then; otherwise the medium stays idle
  to the end of the window;
- a slot that passes idle takes one from every station and from every
  node whose wake plus CCA lies at or before the slot's start; only a
  slot that ends inside the window passes;
- an exchange takes one slot more, by the same rule, since a busy period
  counts as one backoff slot; its winners then redraw, in index order,
  from their own streams.

Draws come from the same per-entity streams the driver uses, through the
same station and node methods, so every draw is the one the driver would
make if it follows the same rules. Events are queued through
``Simulator.schedule`` only, so the trace hash differs from the driver's,
which fires most decisions inline.
"""

from __future__ import annotations

from functools import partial

from coexsim.lbt import burst_transmit


class ReferenceMedium:
    """The shared medium, stepped slot by slot."""

    def __init__(self, sim, timing, durations, stations, metrics,
                 run_end_us, lbt_nodes=None, channel=None):
        self.sim = sim
        self.timing = timing
        self.durations = durations
        self.stations = stations
        self.metrics = metrics
        self.run_end_us = run_end_us
        self.lbt_nodes = lbt_nodes or []
        self.channel = channel
        self.wifi_left = [st.counter for st in stations]
        self.lte_left = [node.counter for node in self.lbt_nodes]
        self.successes = [0] * len(stations)
        self.collisions = [0] * len(stations)
        self.phase_start = 0
        self.window_end = 0
        self.busy_until = 0
        self.tx_intervals: list[tuple[int, int]] = []
        self.lte_intervals: list[tuple[int, int]] = []

    # -- the driver's interface -----------------------------------------

    def open_window(self, start_us: int, end_us: int) -> None:
        if self.phase_start < self.window_end:
            raise RuntimeError("window already open")
        self.phase_start, self.window_end = start_us, end_us
        self._step()

    def close_window(self, t_us: int) -> None:
        if self.phase_start >= self.window_end:
            return   # the window ended with an exchange
        if t_us != self.window_end or self.busy_until > t_us:
            raise RuntimeError("a window closes idle, at its end")
        # its idle slots were stepped through when it went idle
        self.metrics.idle_us += t_us - self.phase_start
        self.phase_start = t_us

    def finalize(self, t_end: int) -> None:
        if self.busy_until > t_end:
            raise RuntimeError("run ended inside a transmission")
        if self.phase_start < self.window_end:
            self.metrics.idle_us += t_end - self.phase_start
            self.phase_start = t_end

    # -- stepping ---------------------------------------------------------

    def _awake(self, j: int, t_us: int) -> bool:
        """Node j counts, and may transmit, in a slot starting at t_us."""
        node = self.lbt_nodes[j]
        return node.wake_at_us + node.params.cca_us <= t_us

    def _step(self) -> None:
        """Step slot by slot from the anchor to the next exchange, or to
        the window's end."""
        anchor, end = self.phase_start, self.window_end
        slot = self.timing.slot_us
        if not self.stations and not self.lbt_nodes:
            return
        s = 0
        while anchor + s * slot < end:
            t = anchor + s * slot
            wifi_w = [i for i, c in enumerate(self.wifi_left) if c == 0]
            lte_w = [j for j, c in enumerate(self.lte_left)
                     if c == 0 and self._awake(j, t)]
            if wifi_w or lte_w:
                self._exchange(s, wifi_w, lte_w)
                return
            if t + slot > end:
                return   # this slot does not end inside the window
            self._take_slot(t)
            s += 1

    def _take_slot(self, t_us: int) -> None:
        """A slot starting at t_us passes."""
        self.wifi_left = [c - 1 for c in self.wifi_left]
        for j in range(len(self.lte_left)):
            if self._awake(j, t_us):
                self.lte_left[j] -= 1

    def _exchange(self, s: int, wifi_w: list[int], lte_w: list[int]) -> None:
        durations = self.durations
        collision = len(wifi_w) + len(lte_w) > 1
        if lte_w:
            duration = max(self.lbt_nodes[j].params.burst_us for j in lte_w)
            if collision:
                duration = max(duration, durations.t_collision_ticks)
        elif collision:
            duration = durations.t_collision_ticks
        else:
            duration = durations.t_success_ticks
        start = self.phase_start + s * self.timing.slot_us
        end = start + duration
        if self.window_end == self.run_end_us and end > self.window_end:
            return   # would outlast the run: the tail stays idle
        self.sim.schedule(start, "slot-boundary", "reference",
                          partial(self._start, start, end, wifi_w, lte_w))

    def _start(self, start, end, wifi_w, lte_w) -> None:
        self.metrics.idle_us += start - self.phase_start
        self.busy_until = end
        if wifi_w:
            self.tx_intervals.append((start, end))
        if lte_w:
            self.lte_intervals.append((start, end))
        self.sim.schedule(end, "tx-end", "reference",
                          partial(self._end, start, end, wifi_w, lte_w))

    def _end(self, start, end, wifi_w, lte_w) -> None:
        metrics = self.metrics
        collision = len(wifi_w) + len(lte_w) > 1
        duration = end - start
        if collision:
            metrics.collision_us += duration
            metrics.collision_events += 1
        else:
            metrics.success_us += duration
            metrics.success_events += 1
        # the busy slot; the winners then redraw
        self._take_slot(start)
        for i in wifi_w:
            st = self.stations[i]
            if collision:
                self.collisions[i] += 1
                st.on_collision()
            else:
                self.successes[i] += 1
                st.on_success()
            self.wifi_left[i] = st.counter
        nodes = self.lbt_nodes
        for j in lte_w:
            node = nodes[j]
            metrics.add_lte_airtime(node.node_id, node.params.burst_us)
            if not collision:
                metrics.add_lte_bits(node.node_id,
                                     burst_transmit(node, self.channel))
            node.start_duty_off(end)
            node.draw_backoff()
            self.lte_left[j] = node.counter
        self.phase_start = end
        if end < self.window_end:
            self._step()
