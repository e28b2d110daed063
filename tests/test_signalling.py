"""State machine transition tables and the trace conformance auditor."""

import pickle

import pytest

from coexsim.hap import TxopGrant
from coexsim.radio import FRAME_SUBFRAMES
from coexsim.signalling import (
    DATA_STATES,
    FSM_KINDS,
    GRANTABLE_STATES,
    ProtocolViolation,
    SaDrxFsm,
    SaDtxFsm,
    SignallingTrace,
    TransitionRecord,
    UcaFsm,
    _CycleFsm,
    beacon_walks,
    conformance_check,
    cycle_walk,
    fsm_step,
)


# -- aggregation machine ----------------------------------------------------

def test_uca_association_happy_path():
    fsm = UcaFsm("lte-00")
    assert fsm.state == "idle" and fsm.state not in GRANTABLE_STATES
    assert fsm_step(fsm, "assoc-request") == "association-requested"
    assert fsm_step(fsm, "ul-grant") == "granted"
    assert fsm_step(fsm, "identity") == "identity-sent"
    assert fsm_step(fsm, "rrc") == "rrc-configured"
    assert fsm_step(fsm, "beacon") == "aggregating"
    assert fsm.state in GRANTABLE_STATES
    # further beacons keep the session alive
    assert fsm.step("beacon") == "aggregating"


def test_uca_rejects_out_of_order_events():
    fsm = UcaFsm("lte-00")
    with pytest.raises(ProtocolViolation) as err:
        fsm.step("beacon")   # beacon before association means nothing
    assert "idle" in str(err.value) and "beacon" in str(err.value)
    assert err.value.state == "idle" and err.value.event == "beacon"


# -- standalone uplink (DTX) machine ----------------------------------------

def test_dtx_full_cycle_n6():
    fsm = SaDtxFsm("lte-01")
    assert fsm.state == "idle"
    assert fsm_step(fsm, "beacon") == "discovery"
    assert fsm.step("identity") == "associated"
    assert fsm.state in GRANTABLE_STATES
    assert fsm.step("data-request", n=6) == "transferring"
    assert fsm.state not in GRANTABLE_STATES
    for _ in range(5):
        assert fsm.step("subframe-tick") == "transferring"
    assert fsm.step("subframe-tick") == "dtx-sleep"   # 6th active tick
    for _ in range(3):
        assert fsm.step("subframe-tick") == "dtx-sleep"
    assert fsm.step("subframe-tick") == "associated"  # 4th sleep tick
    assert fsm.state in GRANTABLE_STATES


def test_dtx_n10_skips_sleep_entirely():
    fsm = SaDtxFsm("lte-01")
    fsm.step("beacon"); fsm.step("identity")
    fsm.step("data-request", n=10)
    for _ in range(9):
        assert fsm.step("subframe-tick") == "transferring"
    assert fsm.step("subframe-tick") == "associated"


def test_dtx_rejects_bad_cycle_length():
    fsm = SaDtxFsm("lte-01")
    fsm.step("beacon"); fsm.step("identity")
    with pytest.raises(ValueError):
        fsm.step("data-request", n=0)
    with pytest.raises(ValueError):
        fsm.step("data-request", n=11)


def test_dtx_rejects_data_request_before_association():
    fsm = SaDtxFsm("lte-01")
    with pytest.raises(ProtocolViolation):
        fsm.step("data-request", n=8)


# -- standalone downlink (DRX) machine ---------------------------------------

def test_drx_absent_control_goes_back_to_sleep():
    fsm = SaDrxFsm("lte-02")
    assert fsm.state == "sleeping"
    assert fsm.step("subframe-tick") == "pdcch-check"
    assert fsm.step("pdcch-absent") == "sleeping"
    assert fsm.step("subframe-tick") == "pdcch-check"


def test_drx_full_path_with_cycle():
    fsm = SaDrxFsm("lte-02")
    fsm.step("subframe-tick")
    assert fsm_step(fsm, "pdcch-present") == "request-pending"
    assert fsm.step("identity") == "configured"
    assert fsm.step("beacon") == "configured"
    assert fsm.step("data-request", n=8) == "receiving"
    for _ in range(7):
        assert fsm.step("subframe-tick") == "receiving"
    assert fsm.step("subframe-tick") == "drx-sleep"
    assert fsm.step("subframe-tick") == "drx-sleep"
    assert fsm.step("subframe-tick") == "configured"


@pytest.mark.parametrize("cls", [SaDtxFsm, SaDrxFsm], ids=["dtx", "drx"])
@pytest.mark.parametrize("n", range(1, FRAME_SUBFRAMES + 1))
def test_a_cycle_of_n_runs_n_active_then_the_rest_asleep(cls, n):
    trace = SignallingTrace()
    fsm = cls("lte-01", trace=trace)
    for event in cls.BEACON_PATH[cls.INITIAL]:
        fsm.step(event, 500)
    # the path is the data-request's state, then one state per tick
    path = [fsm.step("data-request", 1000, n=n)]
    path += [fsm.step("subframe-tick", 1000 + 1000 * k)
             for k in range(1, FRAME_SUBFRAMES + 1)]
    assert path == ([cls.ACTIVE_STATE] * n
                    + [cls.SLEEP_STATE] * (FRAME_SUBFRAMES - n)
                    + [cls.RESUME_STATE])
    # the walk a run derives from the table is the traced machine's ticks
    ticks = trace.transitions[-FRAME_SUBFRAMES:]
    assert trace.transitions[-FRAME_SUBFRAMES - 1].event == "data-request"
    assert cycle_walk(cls, n) == tuple(
        (k, rec.state_before, rec.state_after)
        for k, rec in enumerate(ticks, 1))
    with pytest.raises(ProtocolViolation):
        fsm.step("subframe-tick", 12_000)
    report = conformance_check(trace)
    assert report and report.cycles_checked == 1


def test_tables_are_deterministic_and_kinds_registered():
    for kind, cls in FSM_KINDS.items():
        assert cls.KIND == kind
        # one successor per (state, event); dict construction already
        # guarantees it, so just confirm every target is a state name or
        # one of the cycle machine's handlers
        handlers = ({_CycleFsm._on_data_request, _CycleFsm._on_tick}
                    if issubclass(cls, _CycleFsm) else set())
        for target in cls.TABLE.values():
            assert isinstance(target, str) or target in handlers, target
    assert DATA_STATES == {"aggregating", "transferring", "receiving"}


def test_beacon_paths_are_legal_and_leave_the_machine_schedulable():
    for cls in FSM_KINDS.values():
        walks = beacon_walks(cls)
        assert walks.keys() == cls.BEACON_PATH.keys()
        for resting, events in cls.BEACON_PATH.items():
            trace = SignallingTrace()
            fsm = cls("lte-00", trace)
            fsm.state = resting
            for event in events:
                # a walk applied in place runs no handler
                assert isinstance(cls.TABLE[fsm.state, event], str)
                fsm.step(event)
            assert fsm.state in GRANTABLE_STATES, (cls.KIND, resting)
            # the walk a run derives is the traced machine's steps
            assert walks[resting] == tuple(
                (rec.state_before, rec.event, rec.state_after)
                for rec in trace.transitions)
        # a machine inside its duty cycle hears nothing
        mid_cycle = {"transferring", "dtx-sleep", "receiving", "drx-sleep"}
        assert not mid_cycle & set(cls.BEACON_PATH)


# -- conformance audit -------------------------------------------------------

def _clean_dtx_trace():
    trace = SignallingTrace()
    fsm = SaDtxFsm("lte-01", trace=trace)
    fsm.step("beacon", 500)
    fsm.step("identity", 500)
    fsm.step("data-request", 1000, n=6)
    t = 1000
    for _ in range(10):
        t += 1000
        fsm.step("subframe-tick", t)
    trace.grants.append(TxopGrant("lte-01", 1000, 6080, n_subframes=6))
    return trace


def test_conformance_clean_trace_passes():
    report = conformance_check(_clean_dtx_trace())
    assert report
    assert report.passed and report.first_violation is None
    assert report.transitions_checked == 13
    assert report.grants_checked == 1
    assert report.cycles_checked == 1


def test_conformance_rejects_tampered_successor():
    trace = _clean_dtx_trace()
    rec = trace.transitions[3]
    trace.transitions[3] = TransitionRecord(
        rec.time_us, rec.ue_id, rec.state_before, rec.event, "dtx-sleep",
        rec.detail)
    report = conformance_check(trace)
    assert not report.passed
    assert "claims successor" in report.first_violation


def test_conformance_rejects_forged_cycle_length():
    trace = _clean_dtx_trace()
    # claim n=7 on the data-request while the recorded ticks ran an n=6
    # cycle; the replay diverges at the seventh tick and the audit fails
    trace.transitions[2] = TransitionRecord(1000, "lte-01", "associated",
                                            "data-request", "transferring", 7)
    report = conformance_check(trace)
    assert not report.passed
    assert "claims successor" in report.first_violation


def test_conformance_rejects_broken_cycle_arithmetic(monkeypatch):
    # a machine whose cycle is one sleep subframe short; the replay runs
    # the same broken code, so only the cycle arithmetic can catch it.
    # The table holds the handler itself, so the broken one goes into a
    # copy of the table.
    def short_tick(fsm, _n):
        fsm.ticks += 1
        if fsm.ticks < fsm.n:
            return fsm.ACTIVE_STATE
        if fsm.ticks < FRAME_SUBFRAMES - 1:
            return fsm.SLEEP_STATE
        return fsm.RESUME_STATE

    monkeypatch.setattr(SaDtxFsm, "TABLE", {
        **SaDtxFsm.TABLE,
        ("transferring", "subframe-tick"): short_tick,
        ("dtx-sleep", "subframe-tick"): short_tick})
    trace = SignallingTrace()
    fsm = SaDtxFsm("lte-01", trace=trace)
    fsm.step("beacon", 500)
    fsm.step("identity", 500)
    fsm.step("data-request", 1000, n=6)
    t = 1000
    while fsm.state not in GRANTABLE_STATES:
        t += 1000
        fsm.step("subframe-tick", t)
    report = conformance_check(trace)
    assert not report.passed
    assert "cycle" in report.first_violation


def test_conformance_rejects_a_history_that_goes_back_in_time():
    trace = _clean_dtx_trace()
    rec = trace.transitions[5]
    trace.transitions[5] = TransitionRecord(
        trace.transitions[4].time_us - 1, rec.ue_id, rec.state_before,
        rec.event, rec.state_after, rec.detail)
    report = conformance_check(trace)
    assert not report.passed
    assert "back in time" in report.first_violation


def test_conformance_rejects_grant_outside_data_state():
    trace = SignallingTrace()
    fsm = SaDtxFsm("lte-01", trace=trace)
    fsm.step("beacon", 500)
    fsm.step("identity", 500)
    trace.grants.append(TxopGrant("lte-01", 600, 6080, n_subframes=6))
    report = conformance_check(trace)
    assert not report.passed
    assert "associated" in report.first_violation


def test_conformance_rejects_grant_before_any_association():
    trace = SignallingTrace()
    trace.machines["lte-09"] = "sa-dtx"
    trace.grants.append(TxopGrant("lte-09", 500, 8064, n_subframes=8))
    report = conformance_check(trace)
    assert not report.passed


def test_conformance_rejects_overlapping_grants():
    trace = SignallingTrace()
    for uid in ("lte-01", "lte-02"):
        fsm = SaDtxFsm(uid, trace=trace)
        fsm.step("beacon", 500)
        fsm.step("identity", 500)
        fsm.step("data-request", 1000, n=6)
    trace.grants.append(TxopGrant("lte-01", 1000, 6080, n_subframes=6))
    trace.grants.append(TxopGrant("lte-02", 5000, 6080, n_subframes=6))
    report = conformance_check(trace)
    assert not report.passed
    assert "overlaps" in report.first_violation


def test_conformance_rejects_illegal_replayed_event():
    trace = SignallingTrace()
    trace.machines["lte-01"] = "sa-dtx"
    trace.transitions.append(
        TransitionRecord(500, "lte-01", "idle", "rrc", "associated"))
    report = conformance_check(trace)
    assert not report.passed


def test_a_grant_rebuilt_by_replace_or_pickle_is_checked_again():
    # a trace's grants are named tuples: the named tuple's own _make and
    # _replace, and unpickling, must not skip the grant's checks
    grant = TxopGrant("lte-01", 1000, 6080, n_subframes=6)
    assert grant._replace(start_us=2000).end_us == 8080
    assert pickle.loads(pickle.dumps(grant)) == grant
    with pytest.raises(ValueError, match="must last 6080"):
        grant._replace(duration_us=8064)
    with pytest.raises(ValueError, match="off the 32"):
        TxopGrant._make(("lte-01", 0, 33, None))
