"""Scenario configuration: defaults, JSON ingestion, validation, sweeps.

A scenario pins one coexistence scheme with its population sizes and
radio/MAC parameter overrides. Config files are flat JSON with optional
nested override blocks. The config dataclasses' annotations are the
schema, checked at every depth; every validation error names the
offending field path so sweep scripts fail loudly and early.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dcf import ACCESS_MODES, MacTiming, exchange_durations
from .hap import DEFAULT_BEACON_US, DEFAULT_INTERVAL_US, build_superframe
from .lbt import LbtParams
from .radio import ChannelParams

SCHEMES = ("wifi-only", "lbt", "hap-sa", "hap-uca")


class ConfigError(ValueError):
    """Validation failure carrying the JSON field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ScenarioConfig:
    scheme: str = "wifi-only"
    n_wifi: int = 30
    m_lte: int = 0
    duration_s: float = 10.0
    seeds: tuple[int, ...] = (1,)
    radius_m: float = 100.0
    access_mode: str = "basic"
    timing: MacTiming = field(default_factory=MacTiming)
    channel: ChannelParams = field(default_factory=ChannelParams)
    lbt: LbtParams = field(default_factory=LbtParams)
    interval_us: int = DEFAULT_INTERVAL_US
    beacon_us: int = DEFAULT_BEACON_US

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}, "
                                        f"must be one of {SCHEMES}")
        if self.n_wifi < 0:
            raise ConfigError("n_wifi", "must be >= 0")
        if self.m_lte < 0:
            raise ConfigError("m_lte", "must be >= 0")
        if self.scheme == "wifi-only" and self.m_lte > 0:
            warnings.warn("wifi-only scheme ignores the configured "
                          f"{self.m_lte} LTE users", stacklevel=2)
            object.__setattr__(self, "m_lte", 0)
        if self.n_wifi + self.m_lte < 1:
            raise ConfigError("n_wifi", "need at least one user in total")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("duration_s", "must be positive and finite")
        if self.duration_us == 0:
            raise ConfigError("duration_s", "rounds to 0 µs")
        if not self.seeds:
            raise ConfigError("seeds", "must be non-empty")
        if any(not isinstance(s, int) or isinstance(s, bool) or s < 0
               for s in self.seeds):
            raise ConfigError("seeds", "must all be non-negative integers")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds", "must not repeat a seed")
        if not self.radius_m > 0:
            raise ConfigError("radius_m", "must be positive")
        if self.access_mode not in ACCESS_MODES:
            raise ConfigError("access_mode",
                              f"must be one of {ACCESS_MODES}")
        if self.scheme in ("hap-sa", "hap-uca"):
            if not 0 < self.beacon_us < self.interval_us:
                raise ConfigError("beacon_us",
                                  "must lie inside the interval")
            if self.duration_us % self.interval_us:
                raise ConfigError(
                    "duration_s",
                    "must be a whole number of repetition intervals "
                    f"({self.interval_us} µs each) for beacon schemes")
            # A beacon defers by less than one exchange and no CFP is
            # longer than this one, planned with no user busy,
            # so each CFP then ends before the next beacon and no
            # exchange outlasts the run.
            exchange = exchange_durations(
                self.timing, self.access_mode).t_success_ticks
            cp_us = self.interval_us - self.beacon_us - build_superframe(
                self.m_lte, self.n_wifi, self.interval_us, self.sa_mode,
                beacon_us=self.beacon_us).cfp_us
            if self.n_wifi and exchange > cp_us:
                raise ConfigError(
                    "timing", f"a Wi-Fi exchange of {exchange} µs does not "
                              f"fit the {cp_us} µs contention period")

    @property
    def duration_us(self) -> int:
        return round(self.duration_s * 1_000_000)

    @property
    def sa_mode(self) -> str:
        return "uca" if self.scheme == "hap-uca" else "standalone"


_field_types = functools.cache(typing.get_type_hints)


def _parse(kind, value, path: str):
    """Check one JSON value against the annotation of the field it sets."""
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(path, "must be an object of overrides")
        return _from_dict(kind, value, path)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, "must be a list")
        return tuple(value)
    # a float field takes a JSON integer too; int | None also takes null
    if isinstance(value, bool) or not isinstance(
            value, float | int if kind is float else kind):
        raise ConfigError(path, f"expected {getattr(kind, '__name__', kind)}"
                                f", got {value!r}")
    # NaN, infinities and integers past the float range all fail this
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"must be finite, got {value!r}")
    return value


def _from_dict(cls, payload: dict, path: str):
    """Build config class `cls` from a JSON object, one field at a time."""
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(where, "unknown field")
        kwargs[key] = _parse(_field_types(cls)[key], value, where)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        # A range check that opens with one of the block's field names
        # reports at that field, as a type error there does; a check
        # across fields reports at the block.
        field_name, _, rest = str(exc).partition(" ")
        if field_name in names and rest:
            raise ConfigError(f"{path}.{field_name}" if path else field_name,
                              rest) from exc
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(payload: dict) -> ScenarioConfig:
    if not isinstance(payload, dict):
        raise ConfigError("$", "top level must be a JSON object")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        return _from_dict(ScenarioConfig, payload, "")


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        # a UnicodeDecodeError, a JSONDecodeError or an over-long integer
        raise ConfigError("$", f"not valid JSON: {exc}") from exc
    return config_from_dict(payload)


def expand_sweep(base: ScenarioConfig, axis: str, values: list[int],
                 schemes: list[str] | None = None) -> list[ScenarioConfig]:
    """Cross product of sweep values and schemes over one base config,
    each distinct config once (wifi-only pins m_lte to 0, so an m_lte
    axis gives it one config), first occurrence kept."""
    if axis not in ("n_wifi", "m_lte"):
        raise ConfigError("axis", "must be n_wifi or m_lte")
    if not values:
        raise ConfigError("values", "must be non-empty")
    for value in values:
        if not isinstance(value, int) or value < 0:
            raise ConfigError("values", f"bad sweep value {value!r}")
    if len(set(values)) < len(values):
        raise ConfigError("values", "must not repeat a value")
    if schemes is None:
        schemes = [base.scheme]
    elif not schemes:
        raise ConfigError("schemes", "must be non-empty")
    if len(set(schemes)) < len(schemes):
        raise ConfigError("schemes", "must not repeat a scheme")
    return list(dict.fromkeys(replace(base, scheme=scheme, **{axis: value})
                              for scheme in schemes for value in values))
