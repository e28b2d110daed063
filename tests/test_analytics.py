"""Fixed-point solver, throughput oracle values, ledger, and aggregation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coexsim.analytics import (
    AggregateRow,
    FixedPointError,
    MetricsAccumulator,
    aggregate,
    saturation_throughput,
    solve_fixed_point,
)
from coexsim.dcf import MacTiming


def test_single_station_attempts_with_closed_form_probability():
    # n = 1 never collides, so p = 0 and tau = 2/(W+1) = 2/17
    tau, p = solve_fixed_point(1)
    assert p == pytest.approx(0.0, abs=1e-12)
    assert tau == pytest.approx(2.0 / 17.0, abs=1e-10)


def test_two_slot_window_degenerate_case():
    # W = 2, no doubling: tau = 2/(W+1) = 2/3 at p solving the pair for n = 1
    tau, p = solve_fixed_point(1, MacTiming(cw_min=2, max_backoff_stage=0))
    assert tau == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert p == pytest.approx(0.0, abs=1e-12)


# frozen solver outputs from an independent 60-digit Decimal bisection
# run once offline; the package must land on the same point
FROZEN = {
    1: (0.11764705882352941, 0.0),
    5: (0.07614890223468790, 0.27153629761168803),
    10: (0.05247989444115395, 0.38440383330108578),
    20: (0.03391699780018586, 0.48087209044219805),
    30: (0.02588998856888123, 0.53266081346859367),
    40: (0.02130204410570874, 0.56818416032016272),
}


@pytest.mark.parametrize("n", sorted(FROZEN))
def test_fixed_point_matches_frozen_solutions(n):
    tau, p = solve_fixed_point(n)
    ref_tau, ref_p = FROZEN[n]
    assert tau == pytest.approx(ref_tau, rel=1e-7)
    assert p == pytest.approx(ref_p, rel=1e-6, abs=1e-9)


# same offline solve pushed through exact Fraction exchange durations
FROZEN_THROUGHPUT = {
    1: 44223954.642098,
    5: 47001447.818195,
    10: 44764261.558784,
    20: 42040261.995488,
    30: 40265980.152749,
    40: 38911278.805050,
}


@pytest.mark.parametrize("n", sorted(FROZEN_THROUGHPUT))
def test_saturation_throughput_frozen_values(n):
    assert saturation_throughput(n) == pytest.approx(FROZEN_THROUGHPUT[n], rel=1e-6)


def test_saturation_throughput_rts_mode_differs():
    basic = saturation_throughput(30, access_mode="basic")
    rts = saturation_throughput(30, access_mode="rts-cts")
    assert rts != pytest.approx(basic, rel=1e-3)
    # at 130 Mb/s the four-way handshake costs more than the collisions it saves
    assert rts < basic


def test_solver_rejects_zero_stations():
    with pytest.raises(ValueError):
        solve_fixed_point(0)


@given(n=st.integers(min_value=1, max_value=64))
@settings(max_examples=64, deadline=None)
def test_fixed_point_residual_and_attempt_probability_shrinks(n):
    tau, p = solve_fixed_point(n)
    assert 0.0 < tau < 1.0
    assert 0.0 <= p < 1.0
    # consistency: both defining equations hold to solver precision
    w, m = 16, 6
    rhs = 2.0 * (1.0 - 2.0 * p) / ((1.0 - 2.0 * p) * (w + 1) + p * w * (1.0 - (2.0 * p) ** m))
    assert tau == pytest.approx(rhs, abs=1e-8)
    assert p == pytest.approx(1.0 - (1.0 - tau) ** (n - 1), abs=1e-12)
    if n > 1:
        prev_tau, _ = solve_fixed_point(n - 1)
        assert tau < prev_tau  # more contenders, rarer attempts
    assert saturation_throughput(n) > 0.0


def test_ledger_accepts_exact_partition():
    m = MetricsAccumulator(idle_us=10, success_us=20, collision_us=5,
                           cfp_us=60, beacon_us=5)
    m.assert_ledger(100)
    assert m.accounted_us == 100


def test_ledger_rejects_any_gap():
    m = MetricsAccumulator(idle_us=99)
    with pytest.raises(AssertionError, match="airtime ledger off"):
        m.assert_ledger(100)


def test_metrics_accumulator_counters():
    m = MetricsAccumulator()
    m.add_lte_bits("lte-00", 1.5e6)
    m.add_lte_airtime("lte-00", 8064)
    assert m.lte_bits["lte-00"] == pytest.approx(1.5e6)
    assert m.lte_airtime_us == {"lte-00": 8064}


def _row(scheme, n, m, seed, thpt):
    return {
        "scheme": scheme, "n_wifi": n, "m_lte": m, "seed": seed,
        "per_user_wifi_throughput_bps": thpt, "wifi_aggregate_bps": thpt * n,
        "lte_aggregate_bps": 0.0, "total_bps": thpt * n, "collision_rate": 0.1,
    }


def test_aggregate_mean_and_interval():
    rows = [_row("wifi-only", 10, 0, 1, 4.0), _row("wifi-only", 10, 0, 2, 6.0)]
    out = aggregate(rows)
    assert len(out) == 1
    agg = out[0]
    assert isinstance(agg, AggregateRow)
    assert agg.n_seeds == 2
    assert agg.means["per_user_wifi_throughput_bps"] == pytest.approx(5.0)
    # sample stdev of {4, 6} is sqrt(2)
    assert agg.ci95["per_user_wifi_throughput_bps"] == pytest.approx(
        1.96 * math.sqrt(2.0) / math.sqrt(2.0))


def test_aggregate_single_seed_zero_width():
    out = aggregate([_row("lbt", 10, 5, 1, 4.0)])
    assert out[0].ci95["total_bps"] == 0.0


def test_aggregate_groups_and_sorts_by_scenario():
    rows = [
        _row("wifi-only", 20, 0, 1, 1.0),
        _row("lbt", 10, 5, 1, 1.0),
        _row("wifi-only", 10, 0, 1, 1.0),
        _row("lbt", 10, 5, 2, 2.0),
    ]
    out = aggregate(rows)
    keys = [(a.scheme, a.n_wifi, a.m_lte) for a in out]
    assert keys == [("lbt", 10, 5), ("wifi-only", 10, 0), ("wifi-only", 20, 0)]
    assert out[0].n_seeds == 2
