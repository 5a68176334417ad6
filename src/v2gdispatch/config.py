"""Scenario configuration: schema, validation, defaults, instance assembly.

The config file is JSON with a versioned schema; unknown keys are rejected
and validation errors name the offending key. An empty file (or empty JSON
object) yields the fully defaulted scenario: 100 EVs on AC level-2 points
(0 to 6.6 kW), unit price 0.02, ten candidate rates, 150 iterations per
optimization epoch.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .costs import AggCostParams, CostSet, sample_ev_cost_params
from .fleet import Fleet, FleetDistributions, sample_fleet
from .orchestrator import DepartureEvent, check_run_settings, ev_id_array, step_count

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
    # each entry: {"time_h": t, "ids": [...]} or {"time_h": t, "count": n}
    departures: tuple[dict, ...] = ()

    out_dir: str = "runs"

    def fleet_distributions(self) -> FleetDistributions:
        """The fleet's sampling bounds: the keys of the same names."""
        return FleetDistributions(**{f.name: getattr(self, f.name)
                                     for f in fields(FleetDistributions)})

    def solver_kwargs(self) -> dict:
        """The five solver settings, as keywords of ``run_optimization`` and
        ``run_scenario``."""
        return dict(m_whales=self.m_whales, k_max=self.k_max,
                    shuffle_enabled=self.shuffle_enabled,
                    topology_policy=self.topology_policy, unit_bits=self.unit_bits)


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)
_RANGE_KEYS = tuple(key for key, hint in _FIELD_TYPES.items() if hint == tuple[float, float])


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field type: an int is no bool, a float is
    any number but a bool, a tuple is a list or tuple of conforming items."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _float(key: str, value) -> float:
    """``float(value)``, or a ConfigError naming ``key`` when that is NaN or
    infinite or ``value`` is an integer too large for a float."""
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{key}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {number!r}")
    return number


def _checked(prefix: str, check, *args):
    """``check(*args)``, its ValueError raised again as a ConfigError whose
    message is ``prefix`` and the error's own, which names the setting."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _validate(config: ScenarioConfig) -> ScenarioConfig:
    if config.schema_version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {config.schema_version}"
        )
    _checked("seed: ", np.random.SeedSequence, config.seed)
    if config.n_evs < 1:
        raise ConfigError(f"n_evs: must be >= 1, got {config.n_evs}")
    for key in _RANGE_KEYS:
        lo, hi = getattr(config, key)
        if lo > hi:
            raise ConfigError(f"{key}: inverted bounds ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"{key}: bounds ({lo}, {hi}) too far apart to sample between")
    _checked("", config.fleet_distributions)
    if config.price < 0.0:
        raise ConfigError(f"price: must be >= 0, got {config.price}")
    if config.alpha_range[0] <= 0.0:
        raise ConfigError(f"alpha_range: lower bound must be > 0, got {config.alpha_range[0]}")
    if config.other_range[0] < 0.0:
        raise ConfigError(f"other_range: lower bound must be >= 0, got {config.other_range[0]}")
    _checked("", AggCostParams, config.gen_a, config.gen_b, config.gen_c, config.omega)
    _checked("", check_run_settings, config.n_evs, config.m_whales, config.k_max,
             config.topology_policy, config.unit_bits)
    _checked("", step_count, config.dt_h, config.horizon_h)
    for i, spec in enumerate(config.departures):
        if not isinstance(spec, dict) or "time_h" not in spec:
            raise ConfigError(f"departures[{i}]: needs a time_h")
        unknown = next((key for key in spec if key not in ("time_h", "ids", "count")), None)
        if unknown is not None:
            raise ConfigError(f"departures[{i}]: unknown key {unknown!r}")
        time_h = spec["time_h"]
        if not _conforms(time_h, float):
            raise ConfigError(f"departures[{i}]: time_h must be a finite number, got {time_h!r}")
        _float(f"departures[{i}]: time_h", time_h)
        if ("ids" in spec) == ("count" in spec):
            raise ConfigError(f"departures[{i}]: give exactly one of ids/count")
        ids = spec.get("ids", ())
        if not isinstance(ids, (list, tuple)):
            raise ConfigError(f"departures[{i}]: ids must be a list of ints, got {ids!r}")
        _departure_ids(i, ids, config.n_evs)
        count = spec.get("count", 0)
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ConfigError(f"departures[{i}]: count must be an int >= 0, got {count!r}")
    return config


def parse_config(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain dict; every value
    must fit its field's type, and a float field's numbers are taken as
    floats."""
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    kwargs = {}
    for key, value in data.items():
        hint = _FIELD_TYPES[key]
        if not _conforms(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{key}: expected {name}, got {value!r}")
        if hint is float:
            value = _float(key, value)
        elif key in _RANGE_KEYS:
            value = (_float(key, value[0]), _float(key, value[1]))
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return _validate(ScenarioConfig(**kwargs))


def load_config(path) -> ScenarioConfig:
    """Load a JSON scenario config from a UTF-8 file; an empty file means all
    defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return _validate(ScenarioConfig())
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too many digits or too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(data)


class Instance(NamedTuple):
    """One concrete sampled scenario: the fleet and its cost functions."""

    fleet: Fleet
    costs: CostSet


def build_instance(config: ScenarioConfig) -> Instance:
    """Sample the fleet and the EVs' cost coefficients from the instance seed.

    The EV cost table's ``eta`` is a copy of the fleet's column, so the two
    agree bit for bit; the aggregator gets the config's four coefficients.
    """
    fleet_ss, cost_ss = np.random.SeedSequence(config.seed).spawn(2)
    fleet = sample_fleet(
        config.n_evs, np.random.default_rng(fleet_ss), config.fleet_distributions()
    )
    ev_params = sample_ev_cost_params(
        fleet.eta,
        np.random.default_rng(cost_ss),
        price=config.price,
        alpha_range=config.alpha_range,
        beta_range=config.beta_range,
        gamma_range=config.gamma_range,
        other_range=config.other_range,
    )
    agg = AggCostParams(config.gen_a, config.gen_b, config.gen_c, config.omega)
    return Instance(fleet=fleet, costs=CostSet(ev=ev_params, agg=agg))


def _departure_ids(j: int, ids, n: int) -> np.ndarray:
    """The ids of departure spec ``j`` as ``ev_id_array`` gives them, or a
    ConfigError naming the first that is not an integer in [0, n)."""
    array = ev_id_array(ids, n)
    if array is None:
        i = next(i for i in ids if ev_id_array((i,), n) is None)
        raise ConfigError(f"departures[{j}]: EV id {i!r} out of range: "
                          f"need an integer in [0, {n})")
    return array


def resolve_departures(config: ScenarioConfig, fleet: Fleet) -> tuple[DepartureEvent, ...]:
    """Turn config departure specs into concrete id lists, in config order.

    Specs are resolved in time order (ties in config order) against one
    boolean mask of the EVs still present: those available now and not
    removed by an earlier event. An ``ids`` spec keeps its ids as given,
    duplicates and ids already gone included, once each is checked to be an
    integer in [0, N). A ``count`` spec takes the ``count`` highest ids
    still present (all of them when fewer are left), so it is deterministic
    and does not depend on sampling order. Either way the event's ids leave the mask.
    Each event's ``ev_ids`` is a tuple of Python ints.
    """
    n = len(fleet)
    present = fleet.available()  # a fresh mask, cleared event by event
    order = sorted(range(len(config.departures)),
                   key=lambda j: float(config.departures[j]["time_h"]))
    events: list[DepartureEvent | None] = [None] * len(order)
    for j in order:
        spec = config.departures[j]
        if "ids" in spec:
            ids = _departure_ids(j, spec["ids"], n)
        else:
            still = np.flatnonzero(present)
            ids = still[max(still.size - int(spec["count"]), 0):]
        present[ids] = False
        events[j] = DepartureEvent(time_h=float(spec["time_h"]), ev_ids=tuple(ids.tolist()))
    return tuple(events)
