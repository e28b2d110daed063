"""Association and duty-cycle state machines for coordinated LTE-U users.

Three machine flavours, all driven by abstract message tokens:

* ``UcaFsm``: carrier-aggregation user whose control plane stays on the
  licensed band; it becomes schedulable once the association handshake
  completes and a beacon has been heard.
* ``SaDtxFsm``: standalone uplink user; after association it alternates
  n active subframes with 10-n sleeping ones per grant.
* ``SaDrxFsm``: standalone downlink user; wakes periodically to check
  the control channel, then follows the same n / 10-n cycle.

Machines are deterministic: a (state, event) pair either maps to exactly
one successor or raises ProtocolViolation. Every transition is appended
to a shared trace that ``conformance_check`` can replay and audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TransitionRecord:
    time_us: int
    ue_id: str
    state_before: str
    event: str
    state_after: str
    detail: int | None = None   # n of the cycle for data-request events


@dataclass(frozen=True)
class GrantRecord:
    ue_id: str
    start_us: int
    end_us: int
    n_subframes: int | None = None


@dataclass
class SignallingTrace:
    """Conformance log: machine registry, transitions, and grants."""

    machines: dict[str, str] = field(default_factory=dict)
    transitions: list[TransitionRecord] = field(default_factory=list)
    grants: list[GrantRecord] = field(default_factory=list)

    def register(self, ue_id: str, kind: str) -> None:
        self.machines[ue_id] = kind

    def record(self, rec: TransitionRecord) -> None:
        self.transitions.append(rec)

    def record_grant(self, grant: GrantRecord) -> None:
        self.grants.append(grant)


class _Fsm:
    """Table-driven base. Subclasses fill TABLE with either a successor
    state name or the name of a method computing one."""

    KIND = "fsm"
    INITIAL = "idle"
    TABLE: dict[tuple[str, str], str] = {}
    EMITS: dict[tuple[str, str], tuple[str, ...]] = {}

    def __init__(self, ue_id: str, trace: SignallingTrace | None = None):
        self.ue_id = ue_id
        self.state = self.INITIAL
        self.trace = trace
        if trace is not None:
            trace.register(ue_id, self.KIND)

    def step(self, event: str, time_us: int = 0, **info) -> str:
        key = (self.state, event)
        target = self.TABLE.get(key)
        if target is None:
            raise ProtocolViolation(self.KIND, self.ue_id, self.state, event)
        before = self.state
        if target.startswith("_on_"):
            after = getattr(self, target)(**info)
        else:
            after = target
        self.state = after
        if self.trace is not None:
            self.trace.record(TransitionRecord(
                time_us, self.ue_id, before, event, after,
                detail=info.get("n")))
        return after

    def emitted(self, state_before: str, event: str) -> tuple[str, ...]:
        return self.EMITS.get((state_before, event), ())

    @property
    def schedulable(self) -> bool:
        return self.state in GRANTABLE_STATES


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
    EMITS = {
        ("association-requested", "ul-grant"): ("identity",),
        ("identity-sent", "rrc"): ("rrc-complete",),
    }

    @property
    def schedulable(self) -> bool:
        return self.state == "aggregating"


class _CycleFsm(_Fsm):
    """Shared n-active / (10-n)-sleep bookkeeping."""

    ACTIVE_STATE = ""
    SLEEP_STATE = ""
    RESUME_STATE = ""

    def __init__(self, ue_id: str, trace: SignallingTrace | None = None):
        super().__init__(ue_id, trace)
        self.active_remaining = 0
        self.sleep_remaining = 0

    def _on_data_request(self, n: int = 0, **_ignored) -> str:
        if not 1 <= n <= FRAME_SUBFRAMES:
            raise ValueError(f"cycle length n={n} outside [1, {FRAME_SUBFRAMES}]")
        self.active_remaining = n
        self.sleep_remaining = FRAME_SUBFRAMES - n
        return self.ACTIVE_STATE

    def _on_active_tick(self, **_ignored) -> str:
        self.active_remaining -= 1
        if self.active_remaining > 0:
            return self.ACTIVE_STATE
        if self.sleep_remaining == 0:
            return self.RESUME_STATE
        return self.SLEEP_STATE

    def _on_sleep_tick(self, **_ignored) -> str:
        self.sleep_remaining -= 1
        if self.sleep_remaining > 0:
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
        ("associated", "data-request"): "_on_data_request",
        ("transferring", "subframe-tick"): "_on_active_tick",
        ("dtx-sleep", "subframe-tick"): "_on_sleep_tick",
    }
    EMITS = {
        ("idle", "beacon"): ("identity",),
    }


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
        ("configured", "data-request"): "_on_data_request",
        ("receiving", "subframe-tick"): "_on_active_tick",
        ("drx-sleep", "subframe-tick"): "_on_sleep_tick",
    }
    EMITS = {
        ("pdcch-check", "pdcch-present"): ("identity",),
    }


FSM_KINDS = {"uca": UcaFsm, "sa-dtx": SaDtxFsm, "sa-drx": SaDrxFsm}


def fsm_step(machine: _Fsm, event: str, time_us: int = 0,
             **info) -> tuple[str, tuple[str, ...]]:
    """Advance one machine by one event.

    Returns the new state together with the abstract messages the user
    equipment sends in response. Illegal (state, event) pairs raise
    ProtocolViolation naming both.
    """
    before = machine.state
    after = machine.step(event, time_us, **info)
    return after, machine.emitted(before, event)


@dataclass(frozen=True)
class ConformanceReport:
    passed: bool
    first_violation: str | None
    transitions_checked: int
    grants_checked: int
    cycles_checked: int

    def __bool__(self) -> bool:
        return self.passed


def _fail(msg: str, transitions: int, grants: int,
          cycles: int) -> ConformanceReport:
    return ConformanceReport(False, msg, transitions, grants, cycles)


def conformance_check(trace: SignallingTrace) -> ConformanceReport:
    """Audit a run trace.

    Replays every recorded transition through a fresh machine of the
    registered kind, confirms each grant interval lies inside a data
    state reached through the association path, verifies the n active /
    10-n sleep arithmetic of every completed cycle, and rejects
    overlapping grants.
    """
    n_cycles = 0
    replicas: dict[str, _Fsm] = {}
    # (ue, time) -> state after processing all events at that time
    history: dict[str, list[tuple[int, str]]] = {}
    per_ue: dict[str, list[TransitionRecord]] = {}

    for idx, rec in enumerate(trace.transitions):
        kind = trace.machines.get(rec.ue_id)
        if kind is None:
            return _fail(f"record {idx}: unregistered ue {rec.ue_id!r}",
                         idx, 0, n_cycles)
        fsm = replicas.get(rec.ue_id)
        if fsm is None:
            fsm = FSM_KINDS[kind](rec.ue_id, trace=None)
            replicas[rec.ue_id] = fsm
        if fsm.state != rec.state_before:
            return _fail(
                f"record {idx}: {rec.ue_id} claims state {rec.state_before!r}"
                f" but replay holds {fsm.state!r}", idx, 0, n_cycles)
        try:
            info = {"n": rec.detail} if rec.detail is not None else {}
            after = fsm.step(rec.event, rec.time_us, **info)
        except (ProtocolViolation, ValueError) as exc:
            return _fail(f"record {idx}: {exc}", idx, 0, n_cycles)
        if after != rec.state_after:
            return _fail(
                f"record {idx}: {rec.ue_id} claims successor "
                f"{rec.state_after!r}, replay gives {after!r}",
                idx, 0, n_cycles)
        history.setdefault(rec.ue_id, []).append((rec.time_us, after))
        per_ue.setdefault(rec.ue_id, []).append(rec)

    n_transitions = len(trace.transitions)

    # Cycle arithmetic: each data-request opens a cycle of detail=n active
    # ticks followed by 10-n sleep ticks before the machine rests again.
    for ue_id, recs in per_ue.items():
        active_states = {"transferring", "receiving"}
        sleep_states = {"dtx-sleep", "drx-sleep"}
        n_expected = None
        active_seen = sleep_seen = 0
        for rec in recs:
            if rec.event == "data-request":
                if n_expected is not None:
                    return _fail(f"{ue_id}: data-request while a cycle "
                                 f"is still open", n_transitions, 0, n_cycles)
                n_expected = rec.detail
                active_seen = sleep_seen = 0
            elif rec.event == "subframe-tick" and n_expected is not None:
                if rec.state_before in active_states:
                    active_seen += 1
                elif rec.state_before in sleep_states:
                    sleep_seen += 1
                if rec.state_after in GRANTABLE_STATES:
                    if active_seen != n_expected:
                        return _fail(
                            f"{ue_id}: cycle closed with {active_seen} active"
                            f" subframes, grant said {n_expected}",
                            n_transitions, 0, n_cycles)
                    if active_seen + sleep_seen != FRAME_SUBFRAMES:
                        return _fail(
                            f"{ue_id}: cycle active+sleep = "
                            f"{active_seen + sleep_seen}, expected "
                            f"{FRAME_SUBFRAMES}", n_transitions, 0, n_cycles)
                    n_cycles += 1
                    n_expected = None

    # Grants: machine must be in a data state at grant start, and grants
    # must not overlap each other.
    def state_at(ue_id: str, t: int) -> str | None:
        best = None
        for time_us, state in history.get(ue_id, ()):
            if time_us <= t:
                best = state
            else:
                break
        return best

    ordered = sorted(trace.grants, key=lambda g: (g.start_us, g.end_us))
    for i, grant in enumerate(ordered):
        state = state_at(grant.ue_id, grant.start_us)
        if state not in DATA_STATES:
            return _fail(
                f"grant to {grant.ue_id} at {grant.start_us} µs while in "
                f"state {state!r}", n_transitions, i, n_cycles)
        if i > 0 and grant.start_us < ordered[i - 1].end_us:
            return _fail(
                f"grant to {grant.ue_id} at {grant.start_us} µs overlaps "
                f"previous grant ending {ordered[i - 1].end_us} µs",
                n_transitions, i, n_cycles)

    return ConformanceReport(True, None, n_transitions,
                             len(trace.grants), n_cycles)
