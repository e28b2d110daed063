"""Scenario configuration parsing, validation, and sweep expansion."""

import dataclasses
import json
import math
import typing

import pytest

from coexsim.scenario import (
    SCHEMES,
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    expand_sweep,
    load_config,
)


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.scheme == "wifi-only"
    assert cfg.n_wifi == 30 and cfg.m_lte == 0
    assert cfg.duration_s == 10.0 and cfg.seeds == (1,)
    assert cfg.radius_m == 100.0 and cfg.access_mode == "basic"
    assert cfg.duration_us == 10_000_000
    assert cfg.interval_us == 100_000 and cfg.beacon_us == 500


def test_schemes_tuple_and_sa_mode():
    assert SCHEMES == ("wifi-only", "lbt", "hap-sa", "hap-uca")
    assert ScenarioConfig(scheme="hap-uca", m_lte=1).sa_mode == "uca"
    assert ScenarioConfig(scheme="hap-sa", m_lte=1).sa_mode == "standalone"


def test_scheme_membership_enforced():
    with pytest.raises(ConfigError, match="scheme"):
        ScenarioConfig(scheme="laa")


def test_wifi_only_discards_lte_users_with_warning():
    with pytest.warns(UserWarning, match="ignores"):
        cfg = ScenarioConfig(scheme="wifi-only", m_lte=5)
    assert cfg.m_lte == 0


def test_population_and_duration_validation():
    with pytest.raises(ConfigError, match="n_wifi"):
        ScenarioConfig(n_wifi=-1)
    with pytest.raises(ConfigError, match="at least one user"):
        ScenarioConfig(n_wifi=0, m_lte=0)
    with pytest.raises(ConfigError, match="duration_s"):
        ScenarioConfig(duration_s=0.0)
    with pytest.raises(ConfigError, match="radius_m"):
        ScenarioConfig(radius_m=0.0)



@pytest.mark.parametrize("scheme,m_lte", [("wifi-only", 0), ("hap-sa", 1)])
def test_a_duration_of_no_run_is_rejected(scheme, m_lte):
    # 0.4 µs rounds to no run at all
    with pytest.raises(ConfigError, match="duration_s: rounds to 0"):
        ScenarioConfig(scheme=scheme, m_lte=m_lte, duration_s=4e-7)
    for endless in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="duration_s: .*finite"):
            ScenarioConfig(scheme=scheme, m_lte=m_lte, duration_s=endless)
    assert ScenarioConfig(duration_s=1e-6).duration_us == 1


def test_seed_validation_excludes_bools_and_negatives():
    with pytest.raises(ConfigError, match="seeds"):
        ScenarioConfig(seeds=())
    with pytest.raises(ConfigError, match="seeds"):
        ScenarioConfig(seeds=(1, -2))
    with pytest.raises(ConfigError, match="seeds"):
        ScenarioConfig(seeds=(True,))
    # a repeated seed would count one run twice in the cross-seed stats
    with pytest.raises(ConfigError, match="seeds: must not repeat"):
        ScenarioConfig(seeds=(1, 1, 2))


def test_beacon_schemes_need_whole_intervals():
    ScenarioConfig(scheme="hap-sa", m_lte=10, duration_s=0.5)
    with pytest.raises(ConfigError, match="duration_s"):
        ScenarioConfig(scheme="hap-sa", m_lte=10, duration_s=0.25001)
    with pytest.raises(ConfigError, match="beacon_us"):
        ScenarioConfig(scheme="hap-uca", m_lte=10, beacon_us=0)
    with pytest.raises(ConfigError, match="beacon_us"):
        ScenarioConfig(scheme="hap-uca", m_lte=10, beacon_us=100_000)
    # non-beacon schemes are free to use any duration
    ScenarioConfig(scheme="lbt", m_lte=3, duration_s=0.123)


def test_config_from_dict_round_trip(tmp_path):
    payload = {
        "scheme": "hap-sa", "n_wifi": 10, "m_lte": 4, "duration_s": 0.2,
        "seeds": [3, 4], "radius_m": 50.0,
        "timing": {"payload_bytes": 1000},
        "channel": {"pathloss_exponent": 2.0},
        "lbt": {"burst_us": 4064},
    }
    cfg = config_from_dict(payload)
    assert cfg.scheme == "hap-sa" and cfg.seeds == (3, 4)
    assert cfg.timing.payload_bytes == 1000
    assert cfg.channel.pathloss_exponent == 2.0
    assert cfg.lbt.burst_us == 4064
    # untouched nested fields keep their defaults
    assert cfg.timing.slot_us == 9

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    assert load_config(p) == cfg


def test_config_from_dict_error_paths():
    with pytest.raises(ConfigError, match=r"lbt\.cca"):
        config_from_dict({"m_lte": 1, "scheme": "lbt", "lbt": {"cca": 9}})
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict({"bandwidth": 1})
    with pytest.raises(ConfigError, match="n_wifi"):
        config_from_dict({"n_wifi": "ten"})
    with pytest.raises(ConfigError, match="n_wifi"):
        config_from_dict({"n_wifi": True})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"seeds": 7})
    with pytest.raises(ConfigError, match="timing"):
        config_from_dict({"timing": [9]})
    with pytest.raises(ConfigError, match="top level"):
        config_from_dict([1, 2])


def _wrong_kinds():
    """A JSON value of the wrong kind for every field of every config class."""
    hints = typing.get_type_hints(ScenarioConfig)
    blocks = [("", ScenarioConfig)] + [
        (f.name, hints[f.name]) for f in dataclasses.fields(ScenarioConfig)
        if dataclasses.is_dataclass(hints[f.name])]
    for block, cls in blocks:
        kinds = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = kinds[f.name]
            if dataclasses.is_dataclass(kind):
                wrong = [True, "x", [1]]
            elif typing.get_origin(kind) is tuple:
                wrong = [True, "1", 2.5]
            elif kind is str:
                wrong = [True, 1, 2.5]
            elif kind is float:
                wrong = [True, "1", math.nan, math.inf, -math.inf, 10 ** 400]
            elif kind in (int, int | None):
                wrong = [True, "1", 2.5]
            else:
                raise AssertionError(f"no wrong kinds for {kind}")
            path = f"{block}.{f.name}" if block else f.name
            for value in wrong:
                payload = {block: {f.name: value}} if block else {f.name: value}
                yield pytest.param(payload, path,
                                   id=f"{path}={repr(value)[:12]}")


@pytest.mark.parametrize("payload,path", _wrong_kinds())
def test_every_field_rejects_a_value_of_the_wrong_kind(payload, path):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(payload)
    assert exc.value.path == path


# One field per single-field range check of each block, a value out of
# range and a value of the wrong kind.
RANGE_ERRORS = [
    ("timing", "slot_us", 0, "x"),
    ("timing", "bit_rate_mbps", 0, "x"),
    ("timing", "payload_bytes", 0, 2.5),
    ("timing", "sifs_us", -1, "x"),
    ("timing", "rts_bits", -1, 2.5),
    ("timing", "cw_max", 2 ** 33, "x"),
    ("timing", "max_backoff_stage", -1, 2.5),
    ("channel", "fading", "rician", 1),
    ("channel", "bandwidth_hz", 0, "x"),
    ("channel", "spectral_efficiency_cap", 0, "x"),
    ("channel", "control_overhead", 1.0, "x"),
    ("channel", "pathloss_exponent", -1, "x"),
    ("lbt", "contention_window", 0, 2.5),
    ("lbt", "burst_us", 10, "x"),
    ("lbt", "cca_us", -1, "x"),
    ("lbt", "duty_off_factor", -1, 2.5),
]


@pytest.mark.parametrize("block,name,out_of_range,wrong_kind", RANGE_ERRORS,
                         ids=[f"{b}.{n}" for b, n, *_ in RANGE_ERRORS])
def test_a_range_error_and_a_type_error_in_one_field_share_its_path(
        block, name, out_of_range, wrong_kind):
    paths = []
    for value in (out_of_range, wrong_kind):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({block: {name: value}})
        paths.append(exc.value.path)
    assert paths == [f"{block}.{name}"] * 2
    assert not str(exc.value).startswith(f"{block}.{name}: {name}")


@pytest.mark.parametrize("block,payload,message", [
    ("timing", {"cw_min": 0}, "need 1 <= cw_min <= cw_max"),
    ("channel", {"tx_power_dbm": 4000}, "tx_power_dbm, reference_loss_1m_db"),
])
def test_a_check_across_fields_reports_at_its_block(block, payload, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({block: payload})
    assert exc.value.path == block
    assert str(exc.value).startswith(f"{block}: {message}")


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(),
    ScenarioConfig(scheme="hap-sa", m_lte=4, duration_s=0.2, seeds=(3, 4),
                   lbt=dataclasses.replace(ScenarioConfig().lbt,
                                           duty_off_factor=2)),
], ids=["defaults", "hap-sa"])
def test_a_written_config_parses_back_to_itself(cfg):
    # the resolved config a run records in its meta file
    payload = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert config_from_dict(payload) == cfg


def test_load_config_reports_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


def test_expand_sweep_cross_product():
    base = ScenarioConfig(scheme="lbt", n_wifi=10, m_lte=5, duration_s=1.0)
    with pytest.warns(UserWarning):   # the wifi-only legs shed their LTE users
        out = expand_sweep(base, "n_wifi", [10, 20], schemes=["lbt", "wifi-only"])
    assert len(out) == 4
    assert {(c.scheme, c.n_wifi) for c in out} == {
        ("lbt", 10), ("lbt", 20), ("wifi-only", 10), ("wifi-only", 20)}
    # wifi-only members drop the LTE population
    assert all(c.m_lte == 0 for c in out if c.scheme == "wifi-only")
    assert all(c.m_lte == 5 for c in out if c.scheme == "lbt")


def test_expand_sweep_validation():
    base = ScenarioConfig()
    with pytest.raises(ConfigError, match="axis"):
        expand_sweep(base, "radius_m", [1])
    with pytest.raises(ConfigError, match="values"):
        expand_sweep(base, "n_wifi", [])
    with pytest.raises(ConfigError, match="values"):
        expand_sweep(base, "n_wifi", [-3])
    with pytest.raises(ConfigError, match="values: must not repeat"):
        expand_sweep(base, "n_wifi", [3, 3])
    with pytest.raises(ConfigError, match="schemes: must be non-empty"):
        expand_sweep(base, "n_wifi", [3], schemes=[])
    with pytest.raises(ConfigError, match="schemes: must not repeat"):
        expand_sweep(base, "n_wifi", [3], schemes=["wifi-only", "wifi-only"])
    with pytest.raises(ConfigError, match="unknown scheme 'laa'"):
        expand_sweep(base, "n_wifi", [3], schemes=["laa"])
