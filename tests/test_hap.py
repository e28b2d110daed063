"""Superframe planning: TXOP grid, grant layout, packing, delivery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coexsim.hap as hap
from coexsim.engine import make_stream
from coexsim.hap import (
    SA_N_CHOICES,
    SA_TXOP_US,
    TxopGrant,
    build_superframe,
    cfp_budget_us,
    cfp_transmit,
    round_txop,
    sa_txop_duration,
)
from coexsim.radio import SUBFRAME_US, ChannelParams
from reference_hap import grant_bits


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
    plan = build_superframe(3, 0, user_ids=["lte-00", "lte-01", "lte-02"],
                            busy={"lte-00"})
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
    def packer(offsets):
        # grants of 64 µs at these offsets from the CFP start
        return lambda budget, ids, start, *_: [
            TxopGrant(ids[k], start + off, 64)
            for k, off in enumerate(offsets)]

    monkeypatch.setattr(hap, "_pack_uca", packer([0, 32]))
    with pytest.raises(RuntimeError, match="overlapping"):
        build_superframe(2, 2, mode="uca")
    # a grant that reaches back into the beacon overlaps it
    monkeypatch.setattr(hap, "_pack_uca", packer([-32]))
    with pytest.raises(RuntimeError, match="overlapping"):
        build_superframe(2, 2, mode="uca")
    # grants that only touch are laid end to end
    monkeypatch.setattr(hap, "_pack_uca", packer([0, 64]))
    assert build_superframe(2, 2, mode="uca").cfp_us == 128
    standalone = packer([0, 10])
    monkeypatch.setattr(hap, "_pack_standalone",
                        lambda *args: (standalone(*args), 0))
    with pytest.raises(RuntimeError, match="overlapping"):
        build_superframe(2, 2)


# -- delivery --------------------------------------------------------------

RATE_AT_SNR_1 = 17142857.142857143   # bit/s at SNR 1 (0 dB), no fading


def _rng():
    return np.random.default_rng(0)


@pytest.fixture
def draws(monkeypatch):
    """The counts of the fading_gains calls cfp_transmit makes."""
    counts = []
    real_gains = hap.fading_gains

    def counting_gains(rng, count, channel):
        counts.append(count)
        return real_gains(rng, count, channel)

    monkeypatch.setattr(hap, "fading_gains", counting_gains)
    return counts


def _expected_bits(grants, snr, rng, channel) -> float:
    """Each grant's bits from its own draw, added in grant order."""
    total = 0.0
    for grant in grants:
        total += grant_bits(grant, snr, rng, channel)
    return total


def test_cfp_transmit_standalone_without_fading():
    channel = ChannelParams(fading="none")
    grant = TxopGrant("lte-00", 500, 8064, n_subframes=8)
    bits = cfp_transmit([grant], 1.0, _rng(), channel)
    assert bits == pytest.approx(8 * RATE_AT_SNR_1 * 1e-3, rel=1e-12)


@pytest.mark.parametrize("n", [6, 7])
def test_standalone_grant_delivers_exactly_n_subframes(n, draws):
    # n=6 and n=7 grants are padded to 6080 and 7072 us on the 32 us grid;
    # the padding carries no bits and reads no fading gain
    grant = TxopGrant("lte-00", 500, sa_txop_duration(n), n_subframes=n)
    bits = cfp_transmit([grant], 1.0, _rng(), ChannelParams(fading="none"))
    assert bits == pytest.approx(n * RATE_AT_SNR_1 * 1e-3, rel=1e-12)
    cfp_transmit([grant], 1.0, _rng(), ChannelParams())
    assert draws == [n, n]


def test_cfp_transmit_partial_tail_subframe():
    channel = ChannelParams(fading="none")
    grant = TxopGrant("lte-00", 0, 1504)   # uca style: 1.504 ms, no header
    bits = cfp_transmit([grant], 1.0, _rng(), channel)
    assert bits == pytest.approx(RATE_AT_SNR_1 * 1504e-6, rel=1e-12)


def test_cfp_transmit_zero_snr_delivers_nothing():
    grant = TxopGrant("lte-00", 500, 8064, n_subframes=8)
    assert cfp_transmit([grant] * 3, 0.0, _rng(), ChannelParams()) == 0.0


# aggregation grants with and without a tail, and a standalone one
_SEGMENT_GRANTS = [TxopGrant("lte-00", 0, d) for d in (8000, 1504, 32, 2464)]
_SEGMENT_GRANTS.append(TxopGrant("lte-00", 0, SA_TXOP_US[6], n_subframes=6))


@pytest.mark.parametrize("grants", [[g] for g in _SEGMENT_GRANTS]
                         + [_SEGMENT_GRANTS],
                         ids=[f"{g.data_us}us" for g in _SEGMENT_GRANTS]
                         + ["all"])
@pytest.mark.parametrize("snr", [0.0, 1.0, 37.5, 1e9])
def test_cfp_transmit_is_the_sum_of_lte_rate_per_segment(grants, snr,
                                                         draws):
    # bit for bit: the rate of each 1 ms segment (the last one pro rata)
    # at its faded SNR, summed in segment order, then grant by grant;
    # all of the grants' gains come from one draw
    channel = ChannelParams(pathloss_exponent=2.0, control_overhead=0.1)
    expected = _expected_bits(grants, snr, np.random.default_rng(7),
                              channel)
    bits = cfp_transmit(grants, snr, np.random.default_rng(7), channel)
    assert bits.hex() == expected.hex()
    assert draws == [sum([-(-g.data_us // SUBFRAME_US) for g in grants])]


@st.composite
def _channel_and_snr(draw):
    cap = draw(st.one_of(st.just(6.0), st.floats(0.5, 12.0)))
    channel = ChannelParams(spectral_efficiency_cap=cap,
                            fading=draw(st.sampled_from(["rayleigh",
                                                         "none"])))
    # 1 + snr reaches 2**cap at snr = 2**cap - 1: a few ulps either side
    edge = 2.0 ** cap - 1.0
    for _ in range(draw(st.integers(0, 3))):
        edge = math.nextafter(edge, draw(st.sampled_from([0.0, math.inf])))
    snr = draw(st.one_of(st.just(0.0), st.just(edge),
                         st.floats(0.0, 1e6, allow_subnormal=False)))
    return channel, snr


_GRANT = st.one_of(
    # standalone: 6-8 whole subframes
    st.sampled_from(SA_N_CHOICES).map(
        lambda n: TxopGrant("lte-00", 0, SA_TXOP_US[n], n_subframes=n)),
    # aggregation without a tail: the 32 us multiples of 1 ms
    st.sampled_from([4000, 8000]).map(lambda d: TxopGrant("lte-00", 0, d)),
    # aggregation, nearly always ending mid subframe
    st.integers(1, 255).map(lambda q: TxopGrant("lte-00", 0, 32 * q)))


@given(draw=_channel_and_snr(), grants=st.lists(_GRANT, min_size=1,
                                                max_size=40),
       seed=st.integers(0, 2**32 - 1))
@example(draw=(ChannelParams(), 37.5), seed=1,
         grants=[TxopGrant("lte-00", 0, SA_TXOP_US[8], n_subframes=8)] * 20)
@example(draw=(ChannelParams(fading="none"), 63.0), seed=2,
         grants=[TxopGrant("lte-00", 0, 8160), TxopGrant("lte-00", 0, 8000),
                 TxopGrant("lte-00", 0, 3104)] * 10)
@settings(max_examples=200, deadline=None)
def test_one_draw_delivers_each_grant_as_its_own_draw_did(draw, grants,
                                                          seed):
    # A user's grants take their gains from one draw, in grant order,
    # and must deliver the bits they would if each grant drew its own
    # gains, one per subframe segment, from the same stream in turn.
    channel, snr = draw
    expected = _expected_bits(grants, snr, make_stream(seed, "lte-00"),
                              channel)
    bits = cfp_transmit(grants, snr, make_stream(seed, "lte-00"), channel)
    assert bits.hex() == expected.hex()
