"""Association and duty-cycle state machines for coordinated LTE-U users.

Three machine flavours, all driven by abstract message tokens:

* ``UcaFsm``: carrier-aggregation user whose control plane stays on the
  licensed band; it may take a grant once the association handshake
  completes and a beacon has been heard.
* ``SaDtxFsm``: standalone uplink user; after association it alternates
  n active subframes with 10-n sleeping ones per grant.
* ``SaDrxFsm``: standalone downlink user; wakes periodically to check
  the control channel, then follows the same n / 10-n cycle.

Machines are deterministic: a (state, event) pair either maps to exactly
one successor or raises ProtocolViolation. A machine is the coordinator's
only record of its user. Each class's ``BEACON_PATH`` maps a resting
state to the events a beacon drives it through; a machine in the middle
of its cycle hears nothing, and only a machine in ``GRANTABLE_STATES``
may take a grant. Every transition and every ``TxopGrant`` the planner
issues is appended to a shared trace that ``conformance_check``
replays and audits in one forward pass; a user whose records go back in
time fails it.

A machine is its ``TABLE``, read as written with no compile pass: each
(state, event) maps to a successor state or to the handler function
that computes one, so a step is one lookup and a handler is replaced
by replacing it in the table. ``fsm_step`` is ``_Fsm.step`` itself and
returns the new state. A ``TransitionRecord`` is a named tuple, built
without a Python frame.

A run would step machines many thousands of times (a standalone user
takes ten subframe ticks per grant, and every beacon walks every
resting machine), though a cycle and a beacon path go the same way
every time. ``table_walk`` works every such walk out from ``TABLE``,
by stepping a machine with no trace from a state through a list of
events, and the coordinator derives its walks afresh for each run, so a
replaced handler takes effect from the next run; it then applies a walk
in place, one record per step, and checks each tick's machine is where
the walk expects it.

``conformance_check`` builds a replica of every registered machine
before it replays a record, and its report's verdict is its first
violation: the report passes when there is none.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .hap import TxopGrant
from .radio import FRAME_SUBFRAMES

# States from which a machine may hold an active data transfer.
DATA_STATES = frozenset({"aggregating", "transferring", "receiving"})

# States in which the scheduler may hand the machine a new grant.
GRANTABLE_STATES = frozenset({"aggregating", "associated", "configured"})


class ProtocolViolation(RuntimeError):
    """Event arrived in a state whose alphabet does not include it."""

    def __init__(self, machine: str, ue_id: str, state: str, event: str):
        super().__init__(f"{machine}[{ue_id}]: no transition from "
                         f"state {state!r} on event {event!r}")
        self.state = state
        self.event = event


class TransitionRecord(NamedTuple):
    time_us: int
    ue_id: str
    state_before: str
    event: str
    state_after: str
    detail: int | None = None   # n of the cycle for data-request events


@dataclass
class SignallingTrace:
    """Conformance log: machine kinds by user, transitions, and grants."""

    machines: dict[str, str] = field(default_factory=dict)
    transitions: list[TransitionRecord] = field(default_factory=list)
    grants: list[TxopGrant] = field(default_factory=list)


class _Fsm:
    """Table-driven base. Subclasses fill TABLE with either a successor
    state name or the handler function computing one from the step's n,
    which only a data-request carries."""

    KIND = "fsm"
    INITIAL = "idle"
    TABLE: dict[tuple[str, str], str | Callable[[_Fsm, int | None], str]] = {}
    # resting state -> events a beacon drives the machine through
    BEACON_PATH: dict[str, tuple[str, ...]] = {}

    def __init__(self, ue_id: str, trace: SignallingTrace | None = None):
        self.ue_id = ue_id
        self.state = self.INITIAL
        self.trace = trace
        if trace is not None:
            trace.machines[ue_id] = self.KIND

    def step(self, event: str, time_us: int = 0, n: int | None = None) -> str:
        """Take one event and return the new state; n is the cycle length
        of a data-request. An illegal (state, event) pair raises
        ProtocolViolation naming both."""
        before = self.state
        move = self.TABLE.get((before, event))
        if move is None:
            raise ProtocolViolation(self.KIND, self.ue_id, before, event)
        after = move if type(move) is str else move(self, n)
        self.state = after
        if self.trace is not None:
            # tuple.__new__ skips the named tuple's Python-level __new__
            self.trace.transitions.append(tuple.__new__(TransitionRecord, (
                time_us, self.ue_id, before, event, after, n)))
        return after


# The module-level name the coordinator steps a machine by where it
# applies no walk: association and data-requests. A subframe tick, fired
# in a beacon's pass or from the queue, applies its step of the walk.
fsm_step = _Fsm.step


class UcaFsm(_Fsm):
    """Aggregation user: association rides the licensed band, data the
    unlicensed one. Hearing a beacon after RRC setup opens aggregation."""

    KIND = "uca"
    TABLE = {
        ("idle", "assoc-request"): "association-requested",
        ("association-requested", "ul-grant"): "granted",
        ("granted", "identity"): "identity-sent",
        ("identity-sent", "rrc"): "rrc-configured",
        ("rrc-configured", "beacon"): "aggregating",
        ("aggregating", "beacon"): "aggregating",
    }
    BEACON_PATH = {"rrc-configured": ("beacon",), "aggregating": ("beacon",)}


class _CycleFsm(_Fsm):
    """Shared n-active / (10-n)-sleep bookkeeping: a cycle is n and the
    count of subframe ticks heard since its data-request."""

    ACTIVE_STATE = ""
    SLEEP_STATE = ""
    RESUME_STATE = ""

    def __init__(self, ue_id: str, trace: SignallingTrace | None = None):
        super().__init__(ue_id, trace)
        self.n = 0
        self.ticks = 0

    def _on_data_request(self, n: int | None) -> str:
        if n is None or not 1 <= n <= FRAME_SUBFRAMES:
            raise ValueError(f"cycle length n={n} outside [1, {FRAME_SUBFRAMES}]")
        self.n = n
        self.ticks = 0
        return self.ACTIVE_STATE

    def _on_tick(self, _n: int | None) -> str:
        ticks = self.ticks = self.ticks + 1
        if ticks < self.n:
            return self.ACTIVE_STATE
        if ticks < FRAME_SUBFRAMES:
            return self.SLEEP_STATE
        return self.RESUME_STATE


class SaDtxFsm(_CycleFsm):
    """Standalone uplink user. Beacon reception starts discovery; the
    identity message (carrying the DTX length) completes association."""

    KIND = "sa-dtx"
    ACTIVE_STATE = "transferring"
    SLEEP_STATE = "dtx-sleep"
    RESUME_STATE = "associated"
    TABLE = {
        ("idle", "beacon"): "discovery",
        ("discovery", "identity"): "associated",
        ("associated", "beacon"): "associated",
        ("associated", "data-request"): _CycleFsm._on_data_request,
        ("transferring", "subframe-tick"): _CycleFsm._on_tick,
        ("dtx-sleep", "subframe-tick"): _CycleFsm._on_tick,
    }
    BEACON_PATH = {"idle": ("beacon", "identity"), "associated": ("beacon",)}


class SaDrxFsm(_CycleFsm):
    """Standalone downlink user. Wakes on a subframe tick to check the
    control channel; absent control sends it straight back to sleep."""

    KIND = "sa-drx"
    INITIAL = "sleeping"
    ACTIVE_STATE = "receiving"
    SLEEP_STATE = "drx-sleep"
    RESUME_STATE = "configured"
    TABLE = {
        ("sleeping", "subframe-tick"): "pdcch-check",
        ("pdcch-check", "pdcch-absent"): "sleeping",
        ("pdcch-check", "pdcch-present"): "request-pending",
        ("request-pending", "identity"): "configured",
        ("configured", "beacon"): "configured",
        ("configured", "data-request"): _CycleFsm._on_data_request,
        ("receiving", "subframe-tick"): _CycleFsm._on_tick,
        ("drx-sleep", "subframe-tick"): _CycleFsm._on_tick,
    }
    BEACON_PATH = {
        "sleeping": ("subframe-tick", "pdcch-present", "identity"),
        "configured": ("beacon",),
    }


FSM_KINDS = {"uca": UcaFsm, "sa-dtx": SaDtxFsm, "sa-drx": SaDrxFsm}


def table_walk(cls: type[_Fsm], state: str, events: Sequence[str],
               n: int | None = None) -> tuple[tuple[str, str, str], ...]:
    """The steps ``TABLE`` takes a machine of ``cls`` through from
    ``state`` on ``events``, each step passed ``n``: one (state before,
    event, state after) per event. The machine keeps no trace, so a walk
    derived from a plain successor, which reads nothing of the machine
    but its state, holds for every machine of the class."""
    fsm = cls("walk")
    fsm.state = state
    return tuple([(fsm.state, event, fsm.step(event, n=n))
                  for event in events])


@dataclass(frozen=True)
class ConformanceReport:
    first_violation: str | None
    transitions_checked: int
    grants_checked: int
    cycles_checked: int

    @property
    def passed(self) -> bool:
        return self.first_violation is None

    def __bool__(self) -> bool:
        return self.passed


def conformance_check(trace: SignallingTrace) -> ConformanceReport:
    """Audit a run trace in one forward pass.

    Builds a fresh machine of each registered user's kind, replays every
    recorded transition through it, rejects a user whose records go back
    in time, and verifies the n active / 10-n sleep arithmetic of every
    cycle as the replay closes it. Each grant, in start order, must then
    find its user in a data state reached through the association path,
    and no grant may overlap the one before it. The report's verdict is
    its first violation, None if there is none.
    """
    n_cycles = 0
    # per user: its replica, and the time of each record and the state
    # after it
    users: dict[str, tuple[_Fsm, list[int], list[str]]] = {}
    for uid, kind in trace.machines.items():
        cls = FSM_KINDS.get(kind)
        if cls is None:
            return ConformanceReport(
                f"machine {uid}: unknown kind {kind!r}", 0, 0, 0)
        users[uid] = cls(uid), [], []
    # per user with a cycle in progress: [n, active ticks, sleep ticks]
    open_cycle: dict[str, list[int]] = {}

    for idx, rec in enumerate(trace.transitions):
        user = users.get(rec.ue_id)
        if user is None:
            return ConformanceReport(
                f"record {idx}: unregistered ue {rec.ue_id!r}",
                idx, 0, n_cycles)
        fsm, times, states = user
        if times and rec.time_us < times[-1]:
            return ConformanceReport(
                f"record {idx}: {rec.ue_id} goes back in time to "
                f"{rec.time_us} µs after a record at {times[-1]} µs",
                idx, 0, n_cycles)
        if fsm.state != rec.state_before:
            return ConformanceReport(
                f"record {idx}: {rec.ue_id} claims state {rec.state_before!r}"
                f" but replay holds {fsm.state!r}", idx, 0, n_cycles)
        try:
            after = fsm.step(rec.event, rec.time_us, rec.detail)
        except (ProtocolViolation, ValueError) as exc:
            return ConformanceReport(f"record {idx}: {exc}", idx, 0, n_cycles)
        if after != rec.state_after:
            return ConformanceReport(
                f"record {idx}: {rec.ue_id} claims successor "
                f"{rec.state_after!r}, replay gives {after!r}",
                idx, 0, n_cycles)
        times.append(rec.time_us)
        states.append(after)

        # Only a cycle machine accepts data-request, so only such a
        # machine ever has a cycle open.
        cycle = open_cycle.get(rec.ue_id)
        if rec.event == "data-request":
            open_cycle[rec.ue_id] = [rec.detail, 0, 0]
        elif cycle is not None:
            if rec.state_before == fsm.ACTIVE_STATE:
                cycle[1] += 1
            elif rec.state_before == fsm.SLEEP_STATE:
                cycle[2] += 1
            if after == fsm.RESUME_STATE:
                n, active, sleep = open_cycle.pop(rec.ue_id)
                if active != n:
                    return ConformanceReport(
                        f"record {idx}: {rec.ue_id} cycle closed with "
                        f"{active} active subframes, grant said {n}",
                        idx, 0, n_cycles)
                if active + sleep != FRAME_SUBFRAMES:
                    return ConformanceReport(
                        f"record {idx}: {rec.ue_id} cycle active+sleep = "
                        f"{active + sleep}, expected {FRAME_SUBFRAMES}",
                        idx, 0, n_cycles)
                n_cycles += 1

    n_transitions = len(trace.transitions)
    ordered = sorted(trace.grants, key=lambda g: (g.start_us, g.end_us))
    for i, grant in enumerate(ordered):
        _, times, states = users.get(grant.user_id, (None, (), ()))
        k = bisect_right(times, grant.start_us)
        state = states[k - 1] if k else None
        if state not in DATA_STATES:
            return ConformanceReport(
                f"grant to {grant.user_id} at {grant.start_us} µs while in "
                f"state {state!r}", n_transitions, i, n_cycles)
        if i > 0 and grant.start_us < ordered[i - 1].end_us:
            return ConformanceReport(
                f"grant to {grant.user_id} at {grant.start_us} µs overlaps "
                f"previous grant ending {ordered[i - 1].end_us} µs",
                n_transitions, i, n_cycles)

    return ConformanceReport(None, n_transitions, len(trace.grants), n_cycles)
