"""One user of each kind walked through its association state machine.

Prints the transition log as each machine consumes its event sequence,
then runs the conformance auditor over the collected trace. Beacons
follow each machine's own ``BEACON_PATH``, as the coordinator drives
them. The grant in the trace is the planner's ``TxopGrant`` itself.
Flip the TAMPER flag to forge one record and watch the audit name the
exact divergence.

Run:  python3 demos/signalling_walkthrough.py
"""

from coexsim.hap import TxopGrant, sa_txop_duration
from coexsim.signalling import (SaDrxFsm, SaDtxFsm, SignallingTrace,
                                TransitionRecord, UcaFsm, conformance_check,
                                fsm_step)

TAMPER = False

trace = SignallingTrace()


def beacon(fsm, time_us):
    """The events a beacon at time_us drives this machine through."""
    return [(time_us, event) for event in fsm.BEACON_PATH.get(fsm.state, ())]


def drive(fsm, script, n=None):
    """Step fsm through (time_us, event) pairs; n goes to a data-request."""
    print(f"-- {fsm.KIND} ({fsm.ue_id}), starts {fsm.state!r}")
    for time_us, event in script:
        before = fsm.state
        after = fsm_step(fsm, event, time_us,
                         n if event == "data-request" else None)
        print(f"   {time_us:>6} us  {before:<22} --{event}--> {after}")
    print()


# carrier-aggregation user: control plane on the licensed band, then
# the beacon that opens aggregation
uca = UcaFsm("lte-00", trace)
drive(uca, [
    (0, "assoc-request"),
    (10, "ul-grant"),
    (20, "identity"),
    (30, "rrc"),
])
drive(uca, beacon(uca, 500))

# standalone uplink user: the beacon associates it over the air, then
# one 6+4 cycle; a beacon mid-cycle finds no path and changes nothing
dtx = SaDtxFsm("lte-01", trace)
drive(dtx, beacon(dtx, 500))
grant = TxopGrant("lte-01", 1000, sa_txop_duration(6), n_subframes=6)
trace.grants.append(grant)
dtx_script = [(grant.start_us, "data-request")]
dtx_script += [(1000 + 1000 * (k + 1), "subframe-tick") for k in range(7)]
drive(dtx, dtx_script, n=grant.n_subframes)
print(f"   beacon while {dtx.state!r}: path {beacon(dtx, 8500)}, "
      f"schedulable={dtx.schedulable}\n")
drive(dtx, [(1000 + 1000 * (k + 1), "subframe-tick") for k in range(7, 10)])

# standalone downlink user: periodic control-channel checks, then the
# beacon path that configures it
drx = SaDrxFsm("lte-02", trace)
drive(drx, [
    (2000, "subframe-tick"),
    (2000, "pdcch-absent"),
])
drive(drx, beacon(drx, 3000))

if TAMPER:
    rec = trace.transitions[4]
    trace.transitions[4] = TransitionRecord(
        rec.time_us, rec.ue_id, rec.state_before, rec.event,
        "dtx-sleep", rec.detail)

report = conformance_check(trace)
print(f"conformance: {'PASS' if report.passed else 'FAIL'}"
      f"  ({report.transitions_checked} transitions, "
      f"{report.grants_checked} grants, {report.cycles_checked} cycles)")
if not report.passed:
    print(f"  first violation: {report.first_violation}")
