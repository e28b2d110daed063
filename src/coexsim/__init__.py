"""Discrete-event simulator for Wi-Fi / LTE-U coexistence on one
unlicensed channel.

Three access schemes over a common slotted medium: pure Wi-Fi DCF, LTE-U
bursts via duty-cycled listen-before-talk, and a coordinated scheme where
an access point embeds centrally scheduled LTE-U transmission windows in
the contention-free period of a beacon superframe. A closed-form
fixed-point model of DCF saturation throughput serves as the oracle the
simulator is validated against.

Module map:

* ``engine``: integer-microsecond event queue, deterministic ordering,
  named RNG streams, trace hashing.
* ``radio``: placement, path loss, fading, SNR, LTE spectral rate.
* ``dcf``: Wi-Fi MAC timing, exchange durations, station backoff state.
* ``contention``: slotted shared-medium driver (renewal jumps).
* ``lbt``: duty-cycled LTE-U nodes contending alongside Wi-Fi.
* ``hap``: beacon/CFP/CP superframe planning and TXOP packing.
* ``signalling``: association and duty-cycle FSMs plus conformance audit.
* ``analytics``: fixed-point oracle, airtime ledger, cross-seed stats.
* ``scenario``: config schema, JSON ingestion, sweep expansion.
* ``simulate``: per-scheme wiring of one run.
* ``cli``: run / sweep / oracle / report subcommands.
"""

__version__ = "0.1.0"

from .analytics import (FixedPointError, MetricsAccumulator, aggregate,
                        saturation_throughput, solve_fixed_point)
from .dcf import MacTiming, WifiStation, exchange_durations
from .engine import SchedulingError, Simulator, make_stream
from .hap import TxopGrant, build_superframe, cfp_transmit, round_txop
from .lbt import LbtNode, LbtParams, burst_transmit
from .radio import (ChannelParams, LinkBudget, NodePosition, lte_rate,
                    link_budget, path_loss_db, place_users)
from .scenario import (ConfigError, ScenarioConfig, config_from_dict,
                       expand_sweep, load_config)
from .signalling import (ConformanceReport, ProtocolViolation, SaDrxFsm,
                         SaDtxFsm, SignallingTrace, UcaFsm,
                         conformance_check, fsm_step)
from .simulate import CSV_COLUMNS, ResultRow, RunResult, run_scenario

__all__ = [
    "FixedPointError", "MetricsAccumulator", "aggregate",
    "saturation_throughput", "solve_fixed_point",
    "MacTiming", "WifiStation", "exchange_durations",
    "SchedulingError", "Simulator", "make_stream",
    "TxopGrant", "build_superframe", "cfp_transmit", "round_txop",
    "LbtNode", "LbtParams", "burst_transmit",
    "ChannelParams", "LinkBudget", "NodePosition", "lte_rate",
    "link_budget", "path_loss_db", "place_users",
    "ConfigError", "ScenarioConfig", "config_from_dict", "expand_sweep",
    "load_config",
    "ConformanceReport", "ProtocolViolation", "SaDrxFsm", "SaDtxFsm",
    "SignallingTrace", "UcaFsm", "conformance_check", "fsm_step",
    "CSV_COLUMNS", "ResultRow", "RunResult", "run_scenario",
    "__version__",
]
