"""Superframe planning: TXOP grid, grant layout, packing, delivery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coexsim.hap as hap
from coexsim.hap import (
    TxopGrant,
    build_superframe,
    cfp_budget_us,
    cfp_transmit,
    round_txop,
    sa_txop_duration,
)
from coexsim.radio import ChannelParams, LinkBudget


# -- TXOP grid -------------------------------------------------------------

def test_round_txop_examples():
    assert round_txop(6000) == 6016
    assert round_txop(8160) == 8160
    assert round_txop(1) == 32
    assert round_txop(32) == 32
    assert round_txop(33) == 64


def test_round_txop_rejects_out_of_range():
    with pytest.raises(ValueError):
        round_txop(8200)
    with pytest.raises(ValueError):
        round_txop(0)
    with pytest.raises(ValueError):
        round_txop(-5)


@given(us=st.integers(min_value=1, max_value=8160))
def test_round_txop_is_minimal_covering_multiple(us):
    r = round_txop(us)
    assert r % 32 == 0
    assert r >= us
    assert r - us < 32


def test_sa_txop_durations():
    # 32 header + n * 1000 + 32 ack, already on the 32 us grid
    assert sa_txop_duration(8) == 8064
    assert sa_txop_duration(7) == 7072
    assert sa_txop_duration(6) == 6080


# -- grant layout ----------------------------------------------------------

def test_txop_grant_validation():
    TxopGrant("lte-00", 500, 8064)
    with pytest.raises(ValueError):
        TxopGrant("lte-00", 500, 8065)   # off grid
    with pytest.raises(ValueError):
        TxopGrant("lte-00", 500, 8192)   # above cap
    with pytest.raises(ValueError):
        TxopGrant("lte-00", 500, 0)
    g = TxopGrant("lte-00", 500, 64)
    assert g.end_us == 564


def test_standalone_grant_n_range():
    # n in [6, 8]: at least 6 keeps sync subframes 0 and 5 active, at most
    # 8 keeps header + data + ack under the 8160 us cap
    for n in (6, 7, 8):
        TxopGrant("lte-00", 500, sa_txop_duration(n), n_subframes=n)
    for n in (0, 1, 5, 9, 10):
        with pytest.raises(ValueError, match="6 <= n <= 8"):
            TxopGrant("lte-00", 500, 8064, n_subframes=n)


def test_standalone_grant_duration_matches_its_frame():
    with pytest.raises(ValueError, match="must last 7072"):
        TxopGrant("lte-00", 500, 8064, n_subframes=7)


def test_grant_data_window():
    # standalone: the n subframes only; header, ack and grid padding carry
    # no data
    for n, dur in ((8, 8064), (7, 7072), (6, 6080)):
        assert TxopGrant("lte-00", 500, dur, n_subframes=n).data_us == n * 1000
    # aggregation: the whole grant
    assert TxopGrant("lte-00", 500, 1504).data_us == 1504


# -- budget and packing ----------------------------------------------------

def test_cfp_budget_examples():
    assert cfp_budget_us(10, 30, 100_000, 500) == 24_875
    assert cfp_budget_us(0, 30, 100_000, 500) == 0
    assert cfp_budget_us(5, 5, 100_000, 500) == 49_750
    with pytest.raises(ValueError):
        cfp_budget_us(0, 0, 100_000, 500)


def test_standalone_packing_ten_users_thirty_stations():
    plan = build_superframe(10, 30)
    assert [g.n_subframes for g in plan.grants] == [8, 8, 8]
    assert [g.duration_us for g in plan.grants] == [8064, 8064, 8064]
    assert plan.remainder_us == 24_875 - 3 * 8064 == 683
    assert plan.cfp_us == 24_192
    # grants tile the CFP contiguously from the end of the beacon
    assert plan.grants[0].start_us == 500
    assert plan.grants[1].start_us == plan.grants[0].end_us


def test_standalone_rotation_serves_every_user_equally():
    rotation = 0
    served = {f"lte-{i:02d}": 0 for i in range(10)}
    for k in range(10):
        plan = build_superframe(10, 30, start_us=k * 100_000, rotation=rotation)
        for g in plan.grants:
            served[g.user_id] += 1
        rotation = plan.next_rotation
    # 10 intervals x 3 grants, cursor walks all users: 3 each
    assert all(v == 3 for v in served.values())


def test_standalone_eligibility_skips_sleeping_users():
    eligible = {"lte-00": 10_000_000, "lte-01": 0, "lte-02": 0}
    plan = build_superframe(3, 0, user_ids=["lte-00", "lte-01", "lte-02"],
                            eligible_at=eligible)
    grantees = [g.user_id for g in plan.grants]
    assert "lte-00" not in grantees
    assert "lte-01" in grantees


def test_uca_packing_even_split():
    plan = build_superframe(10, 30, mode="uca")
    per_user = {}
    for g in plan.grants:
        assert g.n_subframes is None
        per_user[g.user_id] = per_user.get(g.user_id, 0) + g.duration_us
    # floor(24875/10) = 2487 -> 2464 on the 32 us grid
    assert all(v == 2464 for v in per_user.values())
    assert len(per_user) == 10
    assert plan.remainder_us == 24_875 - 24_640 == 235


def test_uca_chunks_large_shares_under_the_cap():
    # one user, no Wi-Fi: share = 99500 -> 99488 on grid, split into 8160 pieces
    plan = build_superframe(1, 0, mode="uca")
    assert all(g.duration_us <= 8160 for g in plan.grants)
    assert sum(g.duration_us for g in plan.grants) == 99_488
    assert [g.duration_us for g in plan.grants[:-1]] == [8160] * 12
    assert plan.grants[-1].duration_us == 99_488 - 12 * 8160


def test_superframe_with_no_lte_users_is_all_contention():
    plan = build_superframe(0, 30)
    assert plan.grants == ()
    assert plan.cfp_us == 0
    assert plan.remainder_us == 0


def test_build_superframe_argument_validation():
    with pytest.raises(ValueError):
        build_superframe(10, 30, mode="fdd")
    with pytest.raises(ValueError):
        build_superframe(10, 30, user_ids=["lte-00"])


@given(m=st.integers(1, 12), n=st.integers(0, 40),
       mode=st.sampled_from(["standalone", "uca"]),
       rotation=st.integers(0, 11))
@settings(max_examples=120, deadline=None)
def test_packing_conserves_budget_and_never_overlaps(m, n, mode, rotation):
    plan = build_superframe(m, n, mode=mode, rotation=rotation % m)
    budget = cfp_budget_us(m, n, 100_000, 500)
    used = sum(g.duration_us for g in plan.grants)
    assert used + plan.remainder_us == budget or plan.grants == ()
    assert used <= budget
    for a, b in zip(plan.grants, plan.grants[1:]):
        assert a.end_us <= b.start_us
    for g in plan.grants:
        assert g.duration_us % 32 == 0
        assert 32 <= g.duration_us <= 8160
    assert plan.cfp_us + plan.remainder_us == budget


def test_overlapping_grants_raise(monkeypatch):
    monkeypatch.setattr(hap, "_pack_uca", lambda budget, ids, start: [
        TxopGrant(ids[0], start, 64), TxopGrant(ids[1], start + 32, 64)])
    with pytest.raises(RuntimeError, match="overlapping"):
        build_superframe(2, 2, mode="uca")


# -- delivery --------------------------------------------------------------

RATE_AT_SNR_1 = 17142857.142857143   # bit/s at SNR 1 (0 dB), no fading


def test_cfp_transmit_standalone_without_fading():
    link = LinkBudget("lte-00", 10.0, 66.4, 1.0)
    channel = ChannelParams(fading="none")
    grant = TxopGrant("lte-00", 500, 8064, n_subframes=8)
    bits = cfp_transmit(grant, link, channel, np.random.default_rng(0))
    assert bits == pytest.approx(8 * RATE_AT_SNR_1 * 1e-3, rel=1e-12)


@pytest.mark.parametrize("n", [6, 7])
def test_standalone_grant_delivers_exactly_n_subframes(n, monkeypatch):
    # n=6 and n=7 grants are padded to 6080 and 7072 us on the 32 us grid;
    # the padding carries no bits and draws no fading gain
    link = LinkBudget("lte-00", 10.0, 66.4, 1.0)
    grant = TxopGrant("lte-00", 500, sa_txop_duration(n), n_subframes=n)
    bits = cfp_transmit(grant, link, ChannelParams(fading="none"),
                        np.random.default_rng(0))
    assert bits == pytest.approx(n * RATE_AT_SNR_1 * 1e-3, rel=1e-12)

    drawn = []
    real_gains = hap.fading_gains

    def counting_gains(rng, count, channel):
        drawn.append(count)
        return real_gains(rng, count, channel)

    monkeypatch.setattr(hap, "fading_gains", counting_gains)
    cfp_transmit(grant, link, ChannelParams(), np.random.default_rng(0))
    assert drawn == [n]


def test_cfp_transmit_partial_tail_subframe():
    link = LinkBudget("lte-00", 10.0, 66.4, 1.0)
    channel = ChannelParams(fading="none")
    grant = TxopGrant("lte-00", 0, 1504)   # uca style: 1.504 ms, no header
    bits = cfp_transmit(grant, link, channel, np.random.default_rng(0))
    assert bits == pytest.approx(RATE_AT_SNR_1 * 1504e-6, rel=1e-12)


def test_cfp_transmit_zero_snr_delivers_nothing():
    link = LinkBudget("lte-00", 10.0, 66.4, 0.0)
    grant = TxopGrant("lte-00", 500, 8064, n_subframes=8)
    bits = cfp_transmit(grant, link, ChannelParams(), np.random.default_rng(0))
    assert bits == 0.0
