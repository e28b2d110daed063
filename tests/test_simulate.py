"""End-to-end scheme runs: throughput sanity, ledgers, and determinism.

Short durations keep the file fast; the statistical claims live in the
acceptance suite, which runs the full-length matrix.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coexsim.analytics import saturation_throughput
from coexsim.dcf import MacTiming, exchange_durations
from coexsim.engine import Simulator
from coexsim.hap import build_superframe
from coexsim.radio import ChannelParams
from coexsim.scenario import ConfigError, ScenarioConfig
from coexsim.signalling import conformance_check
from coexsim import simulate
from coexsim.simulate import CSV_COLUMNS, run_scenario
from reference_hap import ReferenceHapRun, reference_delivery

# short-range channel so LTE links run far from the noise floor
NEAR = ChannelParams(pathloss_exponent=2.0)


def _run(scheme, n, m, dur, seed=1, **kw):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=n, m_lte=m, duration_s=dur,
                         channel=NEAR, **kw)
    return run_scenario(cfg, seed=seed)


def test_csv_columns_fixed():
    assert CSV_COLUMNS == (
        "scheme", "n_wifi", "m_lte", "seed",
        "per_user_wifi_throughput_bps", "wifi_aggregate_bps",
        "lte_aggregate_bps", "total_bps", "collision_rate",
        "airtime_idle_frac", "airtime_success_frac",
        "airtime_collision_frac", "airtime_cfp_frac", "airtime_beacon_frac")


@pytest.mark.parametrize("timing", [MacTiming(slot_us=9),
                                    MacTiming(slot_us=20)],
                         ids=["slot9", "slot20"])
def test_single_station_throughput_near_oracle(timing):
    res = _run("wifi-only", 1, 0, 2.0, timing=timing)
    # no collisions possible, so even 2 s sits tight on the fixed point
    assert res.row.collision_rate == 0.0
    assert res.row.wifi_aggregate_bps == pytest.approx(
        saturation_throughput(1, timing), rel=0.01)


def test_clamped_window_throughput_near_oracle():
    # cw_max=64 clamps stages 2-6; the oracle must clamp them too
    timing = MacTiming(cw_max=64)
    res = _run("wifi-only", 30, 0, 5.0, timing=timing)
    assert res.row.wifi_aggregate_bps == pytest.approx(
        saturation_throughput(30, timing), rel=0.03)


def test_airtime_ledger_exact_for_every_scheme():
    for scheme, m, dur in (("wifi-only", 0, 0.5), ("lbt", 5, 0.5),
                           ("hap-sa", 5, 0.5), ("hap-uca", 5, 0.5)):
        res = _run(scheme, 10, m, dur)
        assert res.metrics.accounted_us == 500_000, scheme
        fr = res.row
        assert (fr.airtime_idle_frac + fr.airtime_success_frac
                + fr.airtime_collision_frac + fr.airtime_cfp_frac
                + fr.airtime_beacon_frac) == pytest.approx(1.0, abs=1e-12)


def test_two_lbt_nodes_share_the_channel_evenly():
    cfg = ScenarioConfig(scheme="lbt", n_wifi=0, m_lte=2, duration_s=5.0,
                         channel=NEAR,
                         lbt=dataclasses.replace(ScenarioConfig().lbt,
                                                 duty_off_factor=1))
    res = run_scenario(cfg, seed=3)
    shares = {uid: us / 5e6 for uid, us in res.metrics.lte_airtime_us.items()}
    assert len(shares) == 2
    # equal contention and equal duty-off: close to 50/50 of the busy time
    ratio = shares["lte-00"] / shares["lte-01"]
    assert 0.8 < ratio < 1.25


def test_lbt_airtime_share_bounded_by_population_fraction():
    res = _run("lbt", 10, 5, 1.0)
    for uid, us in res.metrics.lte_airtime_us.items():
        share = us / 1e6
        assert share <= 1.0 / 15.0 + 0.01, uid


def test_lbt_collided_bursts_deliver_nothing():
    # no backoff spread: every wake collides with the other node
    lbt = dataclasses.replace(ScenarioConfig().lbt, contention_window=1,
                              duty_off_factor=0)
    cfg = ScenarioConfig(scheme="lbt", n_wifi=0, m_lte=2, duration_s=0.5,
                         channel=NEAR, lbt=lbt)
    res = run_scenario(cfg, seed=1)
    assert res.row.lte_aggregate_bps == 0.0
    assert res.metrics.collision_events > 0


def test_hap_sa_cfp_fraction_matches_plan():
    res = _run("hap-sa", 30, 10, 0.5)
    # 3 x 8064 us of grants per 100 ms interval
    assert res.row.airtime_cfp_frac == pytest.approx(24192 / 100_000, abs=1e-12)
    assert res.row.airtime_beacon_frac == pytest.approx(500 / 100_000, rel=0.05)


def test_hap_sa_grants_follow_frame_rules():
    res = _run("hap-sa", 30, 10, 0.5)
    assert res.signalling is not None
    grants = res.signalling.grants
    assert grants, "no grants issued"
    for g in grants:
        assert g.n_subframes in (6, 7, 8)
    report = conformance_check(res.signalling)
    assert report.passed, report.first_violation


def test_hap_uca_conformance_and_no_subframe_constraint():
    res = _run("hap-uca", 30, 10, 0.5)
    report = conformance_check(res.signalling)
    assert report.passed, report.first_violation
    assert all(g.n_subframes is None for g in res.signalling.grants)


def test_hap_wifi_and_lte_never_overlap():
    res = _run("hap-sa", 10, 5, 0.5)
    lte = sorted(res.lte_tx_intervals)
    wifi = sorted(res.wifi_tx_intervals)
    i = 0
    for ws, we in wifi:
        for ls, le in lte:
            if ls < we and ws < le:
                pytest.fail(f"wifi [{ws},{we}) overlaps lte [{ls},{le})")


def _bench_workloads():
    """The benchmark's run checks, coexbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "coexbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_audit_flags_a_wifi_period_inside_a_cfp():
    audit = _bench_workloads().audit
    cfg = ScenarioConfig(scheme="hap-sa", n_wifi=5, m_lte=3, duration_s=0.5,
                         channel=NEAR)
    res = run_scenario(cfg, seed=1)
    assert audit(cfg, res) == []
    start, end = res.cfp_intervals[len(res.cfp_intervals) // 2]
    res.wifi_tx_intervals.append((start + 1, end - 1))
    assert audit(cfg, res) == ["isolation: 1 Wi-Fi tx in CFP, 0 LTE tx in CP"]


# Random small coordinated configs: any interval and beacon, the planner's
# whole range of M and N, and any MAC timing whose exchange fits.
COORDINATED = dict(
    scheme=st.sampled_from(["hap-sa", "hap-uca"]),
    n=st.integers(0, 4), m=st.integers(1, 8),
    interval_us=st.sampled_from([10_000, 20_000, 50_000, 100_000]),
    beacon_us=st.sampled_from([100, 500, 2000, None]),
    intervals=st.integers(2, 5),
    slot_us=st.sampled_from([9, 20]), cw_min=st.integers(1, 32),
    cw_doublings=st.integers(0, 6), max_stage=st.integers(0, 7),
    access_mode=st.sampled_from(["basic", "rts-cts"]),
    bit_rate_mbps=st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 130.0)),
    payload_bytes=st.integers(1, 2304),
    seed=st.integers(1, 1000))


def _coordinated_fields(scheme, n, m, interval_us, beacon_us, intervals,
                        slot_us, cw_min, cw_doublings, max_stage,
                        access_mode, bit_rate_mbps, payload_bytes):
    """ScenarioConfig fields for one draw of COORDINATED, and whether a
    Wi-Fi exchange fits the contention period of a full CFP."""
    timing = MacTiming(slot_us=slot_us, cw_min=cw_min,
                       cw_max=cw_min << cw_doublings,
                       max_backoff_stage=max_stage,
                       bit_rate_mbps=bit_rate_mbps,
                       payload_bytes=payload_bytes)
    beacon_us = beacon_us or interval_us // 2   # None: half the interval
    fields = dict(scheme=scheme, n_wifi=n, m_lte=m,
                  duration_s=intervals * interval_us / 1e6,
                  interval_us=interval_us, beacon_us=beacon_us,
                  access_mode=access_mode, timing=timing, channel=NEAR)
    exchange = exchange_durations(timing, access_mode).t_success_ticks
    cp_us = interval_us - beacon_us - build_superframe(
        m, n, interval_us, "uca" if scheme == "hap-uca" else "standalone",
        beacon_us=beacon_us).cfp_us
    return fields, not (n and exchange > cp_us)


@given(**COORDINATED)
@settings(max_examples=40, deadline=None)
def test_coordinated_runs_keep_ledger_isolation_and_conformance(seed, **draw):
    fields, fits = _coordinated_fields(**draw)
    if not fits:
        with pytest.raises(ConfigError, match="does not fit"):
            ScenarioConfig(**fields)
        return
    cfg = ScenarioConfig(**fields)
    res = run_scenario(cfg, seed=seed)
    assert res.metrics.accounted_us == cfg.duration_us
    report = conformance_check(res.signalling)
    assert report.passed, report.first_violation
    cfp = res.cfp_intervals
    reserved = cfp + res.beacon_intervals
    for s, e in res.lte_tx_intervals:
        assert any(a <= s and e <= b for a, b in cfp), (s, e)
    for s, e in res.wifi_tx_intervals:
        assert not any(s < b and a < e for a, b in reserved), (s, e)


def _recorded_run(cfg, seed, cut_us, coordinator):
    """Run cfg with ``coordinator`` as the hap coordinator, advancing the
    engine to cut_us first if it is set. Returns the result, the last
    trace summary, and the fallbacks the one-pass coordinator took: a
    period cut short by an event queued earlier ("horizon") or by the end
    of ``run_until`` ("run end")."""
    run_until, lookahead = Simulator.run_until, Simulator.lookahead
    schedule = Simulator.schedule
    ends, summaries, passes = [], [], []     # passes: [horizon, cut]

    def in_pieces(sim, t_end):
        if cut_us is not None and cut_us < t_end:
            ends.append(cut_us)
            run_until(sim, cut_us)
        ends.append(t_end)
        summaries.append(run_until(sim, t_end))
        return summaries[-1]

    def recorded_lookahead(sim):
        horizon, log = lookahead(sim)
        passes.append([horizon, None])
        return horizon, log

    def recorded_schedule(sim, time, kind, target, fn=None):
        if kind == "cfp-end" and passes and passes[-1][1] is None:
            # a queued cfp-end: the pass stopped at its horizon
            cut_by_end = passes[-1][0][0] > ends[-1]
            passes[-1][1] = "run end" if cut_by_end else "horizon"
        schedule(sim, time, kind, target, fn)

    patches = [(simulate, "_HapRun", coordinator),
               (Simulator, "run_until", in_pieces),
               (Simulator, "lookahead", recorded_lookahead),
               (Simulator, "schedule", recorded_schedule)]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        res = simulate.run_scenario(cfg, seed)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    return res, summaries[-1], {cut for _, cut in passes if cut}


def test_the_one_pass_coordinator_fires_as_the_queue_would():
    # The reference queues every event of a period and the engine fires
    # them in (time, rank, seq) order; firing them in one pass from the
    # beacon must change nothing a run reports. A run advanced in two
    # run_until calls cuts a period at the first call's end.
    reached = set()

    @given(cut=st.one_of(st.none(), st.floats(0.0, 1.0)), **COORDINATED)
    # a tick of the last period overhangs the next one's first events
    @example(cut=None, scheme="hap-sa", n=0, m=3, interval_us=10_000,
             beacon_us=100, intervals=3, slot_us=9, cw_min=16,
             cw_doublings=6, max_stage=6, access_mode="basic",
             bit_rate_mbps=54.0, payload_bytes=1500, seed=1)
    # the first run_until ends inside a period
    @example(cut=0.3, scheme="hap-uca", n=1, m=2, interval_us=20_000,
             beacon_us=500, intervals=2, slot_us=9, cw_min=16,
             cw_doublings=6, max_stage=6, access_mode="rts-cts",
             bit_rate_mbps=54.0, payload_bytes=1500, seed=1)
    @settings(max_examples=100, deadline=None)
    def check(cut, seed, **draw):
        fields, fits = _coordinated_fields(**draw)
        assume(fits)
        cfg = ScenarioConfig(**fields)
        cut_us = None if cut is None else round(cut * cfg.duration_us)
        ref, ref_summary, _ = _recorded_run(cfg, seed, cut_us,
                                            ReferenceHapRun)
        res, summary, fallbacks = _recorded_run(cfg, seed, cut_us,
                                                simulate._HapRun)
        reached.update(fallbacks)
        assert res.trace_hash == ref.trace_hash
        assert summary.processed == ref_summary.processed
        assert res.signalling == ref.signalling
        assert res.cfp_intervals == ref.cfp_intervals
        assert res.beacon_intervals == ref.beacon_intervals
        assert res.wifi_tx_intervals == ref.wifi_tx_intervals
        assert res.lte_tx_intervals == ref.lte_tx_intervals
        assert res.metrics == ref.metrics
        assert list(res.metrics.lte_bits) == list(ref.metrics.lte_bits)
        assert res.row.csv_values() == ref.row.csv_values()
        # each grant delivered as if it drew its own gains when it ended
        bits, airtime = reference_delivery(cfg, seed, res.signalling.grants)
        assert [(uid, b.hex()) for uid, b in res.metrics.lte_bits.items()] \
            == [(uid, b.hex()) for uid, b in bits.items()]
        assert res.metrics.lte_airtime_us == airtime

    check()
    assert reached == {"horizon", "run end"}


@given(scheme=st.sampled_from(["wifi-only", "lbt"]),
       n=st.integers(1, 10), m=st.integers(1, 5),
       slot_us=st.sampled_from([9, 20]), cw_min=st.integers(1, 32),
       cw_doublings=st.integers(0, 6), max_stage=st.integers(0, 7),
       access_mode=st.sampled_from(["basic", "rts-cts"]),
       duty_off_factor=st.one_of(st.none(), st.integers(0, 3)),
       duration_ms=st.integers(100, 300), seed=st.integers(1, 1000))
@settings(max_examples=20, deadline=None)
def test_uncoordinated_runs_keep_ledger_and_repeat_exactly(
        scheme, n, m, slot_us, cw_min, cw_doublings, max_stage, access_mode,
        duty_off_factor, duration_ms, seed):
    timing = MacTiming(slot_us=slot_us, cw_min=cw_min,
                       cw_max=cw_min << cw_doublings,
                       max_backoff_stage=max_stage)
    cfg = ScenarioConfig(
        scheme=scheme, n_wifi=n, m_lte=m if scheme == "lbt" else 0,
        duration_s=duration_ms / 1000, access_mode=access_mode, timing=timing,
        channel=NEAR, lbt=dataclasses.replace(ScenarioConfig().lbt,
                                              duty_off_factor=duty_off_factor))
    a = run_scenario(cfg, seed=seed)
    assert a.metrics.accounted_us == cfg.duration_us
    b = run_scenario(cfg, seed=seed)
    assert (b.trace_hash, b.row) == (a.trace_hash, a.row)


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_a_hap_run_queues_one_beacon_at_a_time(scheme, monkeypatch):
    # Each exchange pushes its tx-end into the event heap, so every beacon
    # queued ahead of time deepens that push's sift. Queueing a beacon only
    # when the one before it fires keeps at most one in the heap, and the
    # heap about one entry deep at a tx-end push (0.85 for hap-sa and 0.80
    # for hap-uca here). Queueing every beacon at the start would hold 5
    # on this run and about 2.0 entries at a push (49.6 on a 10 s run).
    # These are counts, so host speed cannot move them.
    schedule = Simulator.schedule
    heap_at_tx_end, beacons_queued = [], []

    def counted(sim, time, kind, target, fn=None):
        if kind == "tx-end":
            heap_at_tx_end.append(len(sim._heap))
        schedule(sim, time, kind, target, fn)
        if kind == "beacon":
            beacons_queued.append(sum(e[3] == "beacon" for e in sim._heap))

    monkeypatch.setattr(Simulator, "schedule", counted)
    _run(scheme, 30, 10, 0.5)
    assert max(beacons_queued) == 1
    assert sum(heap_at_tx_end) / len(heap_at_tx_end) <= 1.0


def test_same_seed_same_row_and_trace():
    a = _run("hap-sa", 10, 5, 0.5, seed=7)
    b = _run("hap-sa", 10, 5, 0.5, seed=7)
    assert a.row == b.row
    assert a.trace_hash == b.trace_hash
    c = _run("hap-sa", 10, 5, 0.5, seed=8)
    assert c.trace_hash != a.trace_hash


def test_wifi_only_ignores_channel_geometry():
    # identical Wi-Fi outcome under different radio environments
    a = _run("wifi-only", 5, 0, 0.5)
    far = ChannelParams(pathloss_exponent=5.0)
    cfg = ScenarioConfig(scheme="wifi-only", n_wifi=5, m_lte=0,
                         duration_s=0.5, channel=far)
    b = run_scenario(cfg, seed=1)
    assert a.row.wifi_aggregate_bps == b.row.wifi_aggregate_bps


def test_csv_value_formatting():
    res = _run("wifi-only", 2, 0, 0.5)
    values = res.row.csv_values()
    assert len(values) == len(CSV_COLUMNS)
    assert values[0] == "wifi-only"
    assert values[1] == "2" and values[3] == "1"
    # floats carry exactly six decimals
    assert all("." in v and len(v.split(".")[1]) == 6 for v in values[4:])
