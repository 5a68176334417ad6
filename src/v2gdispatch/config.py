"""Scenario configuration: schema, validation, defaults, instance assembly.

The config file is JSON with a versioned schema; unknown keys are rejected
and validation errors name the offending key. An empty file (or empty JSON
object) yields the fully defaulted scenario: 100 EVs on AC level-2 points
(0 to 6.6 kW), unit price 0.02, ten candidate rates, 150 iterations per
optimization epoch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .baselines import PenaltyConfig
from .costs import AggCostParams, CostSet, sample_ev_cost_params
from .fleet import DEFAULT_KM_PER_KWH, Fleet, FleetDistributions, available_ids, sample_fleet
from .orchestrator import DepartureEvent
from .topology import POLICIES

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration file missing, malformed, or out of contract."""


@dataclass(frozen=True)
class ScenarioConfig:
    schema_version: int = CONFIG_SCHEMA_VERSION
    seed: int = 42
    n_evs: int = 100

    # fleet sampling bounds
    soc_range: tuple[float, float] = (0.8, 0.9)
    soc_min_range: tuple[float, float] = (0.1, 0.2)
    capacity_range_kwh: tuple[float, float] = (15.0, 30.0)
    eta_range: tuple[float, float] = (0.85, 0.95)
    rate_min_kw: float = 0.0
    rate_max_kw: float = 6.6

    # per-EV cost coefficient ranges and the shared unit price
    price: float = 0.02
    alpha_range: tuple[float, float] = (0.001, 0.002)
    beta_range: tuple[float, float] = (0.001, 0.003)
    gamma_range: tuple[float, float] = (0.005, 0.015)
    other_range: tuple[float, float] = (0.005, 0.02)

    # aggregator cost coefficients
    gen_a: float = 5e-6
    gen_b: float = 0.001
    gen_c: float = 0.5
    omega: float = 0.1

    # optimizer
    m_whales: int = 10
    k_max: int = 150
    shuffle_enabled: bool = True
    unit_bits: int = 40
    topology_policy: str = "one-random-neighbor"

    # time loop
    dt_h: float = 0.1
    horizon_h: float = 6.0
    km_per_kwh: float = DEFAULT_KM_PER_KWH
    # each entry: {"time_h": t, "ids": [...]} or {"time_h": t, "count": n}
    departures: tuple[dict, ...] = ()

    # baseline penalty
    penalty_cap: float = 10.0
    penalty_tolerance_kw: float = 1e-6
    penalty_spread_scale_kw: float | None = None

    out_dir: str = "runs"

    def fleet_distributions(self) -> FleetDistributions:
        return FleetDistributions(
            soc=self.soc_range,
            soc_min=self.soc_min_range,
            capacity_kwh=self.capacity_range_kwh,
            eta=self.eta_range,
            rate_min_kw=self.rate_min_kw,
            rate_max_kw=self.rate_max_kw,
        )

    def penalty(self) -> PenaltyConfig:
        return PenaltyConfig(
            cap=self.penalty_cap,
            tolerance_kw=self.penalty_tolerance_kw,
            spread_scale_kw=self.penalty_spread_scale_kw,
        )


_RANGE_KEYS = (
    "soc_range",
    "soc_min_range",
    "capacity_range_kwh",
    "eta_range",
    "alpha_range",
    "beta_range",
    "gamma_range",
    "other_range",
)


def _validate(config: ScenarioConfig) -> ScenarioConfig:
    if config.schema_version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {config.schema_version}"
        )
    if config.n_evs < 1:
        raise ConfigError(f"n_evs: must be >= 1, got {config.n_evs}")
    for key in _RANGE_KEYS:
        lo, hi = getattr(config, key)
        if lo > hi:
            raise ConfigError(f"{key}: inverted bounds ({lo}, {hi})")
    try:
        config.fleet_distributions()
    except ValueError as exc:
        raise ConfigError(f"fleet bounds: {exc}") from exc
    if config.price < 0.0:
        raise ConfigError(f"price: must be >= 0, got {config.price}")
    if config.alpha_range[0] <= 0.0:
        raise ConfigError(f"alpha_range: lower bound must be > 0, got {config.alpha_range[0]}")
    if config.gen_a <= 0.0:
        raise ConfigError(f"gen_a: must be > 0, got {config.gen_a}")
    if config.omega < 0.0:
        raise ConfigError(f"omega: must be >= 0, got {config.omega}")
    if config.m_whales < 1:
        raise ConfigError(f"m_whales: must be >= 1, got {config.m_whales}")
    if config.k_max < 0:
        raise ConfigError(f"k_max: must be >= 0, got {config.k_max}")
    if not 8 <= config.unit_bits <= 48:
        raise ConfigError(f"unit_bits: must be within [8, 48], got {config.unit_bits}")
    if config.topology_policy not in POLICIES:
        raise ConfigError(
            f"topology_policy: {config.topology_policy!r} not one of {POLICIES}"
        )
    if config.dt_h <= 0.0:
        raise ConfigError(f"dt_h: must be > 0, got {config.dt_h}")
    if config.horizon_h <= 0.0:
        raise ConfigError(f"horizon_h: must be > 0, got {config.horizon_h}")
    if config.km_per_kwh <= 0.0:
        raise ConfigError(f"km_per_kwh: must be > 0, got {config.km_per_kwh}")
    for i, spec in enumerate(config.departures):
        if not isinstance(spec, dict) or "time_h" not in spec:
            raise ConfigError(f"departures[{i}]: needs a time_h")
        if ("ids" in spec) == ("count" in spec):
            raise ConfigError(f"departures[{i}]: give exactly one of ids/count")
    try:
        config.penalty()
    except ValueError as exc:
        raise ConfigError(f"penalty: {exc}") from exc
    return config


def _coerce(key: str, value):
    if key in _RANGE_KEYS:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{key}: expected a [lo, hi] pair")
        return (float(value[0]), float(value[1]))
    if key == "departures":
        if not isinstance(value, list):
            raise ConfigError("departures: expected a list of events")
        return tuple(value)
    return value


def parse_config(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain dict."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    kwargs = {key: _coerce(key, value) for key, value in data.items()}
    try:
        config = ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return _validate(config)


def load_config(path) -> ScenarioConfig:
    """Load a JSON scenario config; an empty file means all defaults."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return _validate(ScenarioConfig())
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(data)


class Instance(NamedTuple):
    """One concrete sampled scenario: the fleet and its cost functions."""

    fleet: Fleet
    costs: CostSet


def build_instance(config: ScenarioConfig) -> Instance:
    """Sample the fleet and all cost coefficients from the instance seed."""
    fleet_ss, cost_ss = np.random.SeedSequence(config.seed).spawn(2)
    fleet = sample_fleet(
        config.n_evs, np.random.default_rng(fleet_ss), config.fleet_distributions()
    )
    ev_params = sample_ev_cost_params(
        config.n_evs,
        np.random.default_rng(cost_ss),
        price=config.price,
        alpha_range=config.alpha_range,
        beta_range=config.beta_range,
        gamma_range=config.gamma_range,
        other_range=config.other_range,
    )
    agg = AggCostParams(
        gen_a=config.gen_a,
        gen_b=config.gen_b,
        gen_c=config.gen_c,
        omega=config.omega,
        eta=fleet.eta,
    )
    return Instance(fleet=fleet, costs=CostSet(ev=ev_params, agg=agg))


def resolve_departures(config: ScenarioConfig, fleet: Fleet) -> tuple[DepartureEvent, ...]:
    """Turn config departure specs into concrete id lists, in config order.

    Specs are resolved in time order (ties in config order). A ``count``
    spec removes that many EVs from the top of the ids still present: those
    available now and not removed by an earlier event (deterministic and
    independent of sampling order).
    """
    present = available_ids(fleet)
    order = sorted(range(len(config.departures)),
                   key=lambda j: float(config.departures[j]["time_h"]))
    events: list[DepartureEvent | None] = [None] * len(order)
    for j in order:
        spec = config.departures[j]
        if "ids" in spec:
            ids = tuple(int(i) for i in spec["ids"])
        else:
            count = int(spec["count"])
            ids = tuple(present[-count:]) if count > 0 else ()
        for i in ids:
            if not 0 <= i < len(fleet):
                raise ConfigError(f"departures: EV id {i} out of range")
        gone = set(ids)
        present = [i for i in present if i not in gone]
        events[j] = DepartureEvent(time_h=float(spec["time_h"]), ev_ids=ids)
    return tuple(events)
