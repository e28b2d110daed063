"""Path loss, SNR budget, fading draws, placement, and the rate map."""

import math

import numpy as np
import pytest

from coexsim.radio import (
    ChannelParams,
    NodePosition,
    fading_gains,
    link_budget,
    lte_rate,
    mean_snr,
    path_loss_db,
    place_users,
    segment_bits,
)

DEFAULT = ChannelParams()


def test_path_loss_reference_value_at_10m():
    # 46.4 + 10 * 5 * log10(10) with the default exponent of 5
    assert path_loss_db(10.0, DEFAULT) == pytest.approx(96.4, abs=1e-12)


def test_path_loss_clamps_below_one_metre():
    assert path_loss_db(0.0, DEFAULT) == path_loss_db(1.0, DEFAULT) == pytest.approx(46.4)
    assert path_loss_db(0.5, DEFAULT) == path_loss_db(1.0, DEFAULT)


def test_path_loss_exponent_override():
    p = ChannelParams(pathloss_exponent=2.0)
    assert path_loss_db(100.0, p) == pytest.approx(46.4 + 20 * 2.0, abs=1e-12)


def test_noise_power_is_density_integrated_over_bandwidth():
    expected = -174.0 + 10.0 * math.log10(2.0e7)
    assert DEFAULT.noise_power_dbm == pytest.approx(expected, abs=1e-12)
    assert DEFAULT.noise_power_dbm == pytest.approx(-100.98970004336019, abs=1e-10)


def test_link_budget_mean_snr_matches_hand_computation():
    p = ChannelParams(pathloss_exponent=2.0)
    pos = NodePosition("lte-00", 30.0, 40.0)  # 3-4-5 triangle, d = 50
    lb = link_budget(pos, p)
    pl = 46.4 + 20.0 * math.log10(50.0)
    snr_db = p.tx_power_dbm - pl - p.noise_power_dbm
    assert lb.distance_m == pytest.approx(50.0)
    assert lb.pathloss_db == pytest.approx(pl)
    assert lb.mean_snr == pytest.approx(10 ** (snr_db / 10.0))
    assert lb.mean_snr == pytest.approx(mean_snr(50.0, p))
    assert lb.node_id == "lte-00"


def test_lte_rate_at_unit_snr():
    # 20 MHz * log2(2) * 12/14
    assert lte_rate(1.0, DEFAULT) == pytest.approx(17142857.142857143, rel=1e-12)


def test_lte_rate_spectral_efficiency_cap():
    capped = lte_rate(1e9, DEFAULT)
    assert capped == pytest.approx(20e6 * 6.0 * 12.0 / 14.0, rel=1e-12)
    assert capped == pytest.approx(102857142.85714285, rel=1e-12)
    assert lte_rate(63.0, DEFAULT) == pytest.approx(capped)  # log2(64) hits the cap exactly


def test_lte_rate_zero_snr_and_negative_snr():
    assert lte_rate(0.0, DEFAULT) == 0.0
    with pytest.raises(ValueError):
        lte_rate(-0.1, DEFAULT)


def test_lte_rate_control_overhead_scaling():
    p = ChannelParams(control_overhead=0.0)
    assert lte_rate(1.0, p) == pytest.approx(20e6, rel=1e-12)


def test_place_users_geometry():
    rng = np.random.default_rng(0)
    users = place_users(10000, 100.0, rng)
    assert len(users) == 10000
    assert users[0].node_id == "lte-00" and users[99].node_id == "lte-99"
    radii = np.array([u.distance_m for u in users])
    assert radii.max() <= 100.0
    # uniform on a disk: E[r] = 2R/3
    assert radii.mean() == pytest.approx(200.0 / 3.0, rel=0.01)


def test_place_users_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        place_users(-1, 100.0, rng)
    with pytest.raises(ValueError):
        place_users(3, 0.0, rng)


def test_place_users_empty_is_fine():
    assert place_users(0, 100.0, np.random.default_rng(0)) == []


# with 4.7/0.3 and 7.1/2/14 a capped segment's bits change if the four
# factors are multiplied in another order
@pytest.mark.parametrize("cap,overhead", [(6.0, 0.1), (4.7, 0.3),
                                          (7.1, 2.0 / 14.0)])
@pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("gain", [1.0, 0.25])
def test_segment_bits_is_lte_rate_at_the_cap_edge(cap, overhead, step,
                                                  gain):
    # 1 + snr * g one ulp below 2**cap, at it and one ulp above it: the
    # capped branch must give what min(log2(...), cap) gives, bit for bit
    channel = ChannelParams(spectral_efficiency_cap=cap,
                            control_overhead=overhead)
    edge = 2.0 ** cap
    if step:
        edge = math.nextafter(edge, math.inf * step)
    snr = (edge - 1.0) / gain
    assert 1.0 + snr * gain == edge
    # and far above it, where the capped branch is taken
    for mean in (snr, 1e9):
        for seconds in (1e-3, 104e-6):
            got = segment_bits(mean, [gain], seconds, channel)
            assert [x.hex() for x in got] == [
                (lte_rate(mean * gain, channel) * seconds).hex()]


def test_fading_gains_none_mode_is_all_ones():
    p = ChannelParams(fading="none")
    g = fading_gains(np.random.default_rng(0), 5, p)
    assert (g == 1.0).all() and g.shape == (5,)


def test_fading_gains_rayleigh_power_is_unit_mean_exponential():
    g = fading_gains(np.random.default_rng(1), 1_000_000, DEFAULT)
    assert g.mean() == pytest.approx(1.0, rel=5e-3)
    assert g.min() >= 0.0


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(fading="rician")
    with pytest.raises(ValueError):
        ChannelParams(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        ChannelParams(control_overhead=1.0)
    with pytest.raises(ValueError):
        ChannelParams(control_overhead=-0.1)
    for cap in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ChannelParams(spectral_efficiency_cap=cap)


def test_channel_params_reject_a_snr_past_the_float_range():
    for kwargs in ({"pathloss_exponent": -0.5},
                   {"pathloss_exponent": 1e308},   # 10x overflows: NaN SNR
                   {"tx_power_dbm": 4000.0},
                   {"reference_loss_1m_db": -4000.0},
                   {"bandwidth_hz": 1e-320}):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)
    # the largest SNR a link can see is at 1 m; a huge finite one is fine
    loud = ChannelParams(tx_power_dbm=3000.0, pathloss_exponent=0.0)
    assert math.isfinite(mean_snr(1.0, loud))
    assert mean_snr(50.0, loud) == mean_snr(1.0, loud)
