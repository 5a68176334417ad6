"""Config loading, validation, defaults, and instance assembly."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2gdispatch.config import (
    ConfigError,
    ScenarioConfig,
    build_instance,
    load_config,
    parse_config,
    resolve_departures,
)
from v2gdispatch.costs import left_to_right_sum
from v2gdispatch.fleet import Fleet, available_ids
from v2gdispatch.orchestrator import DepartureEvent
from v2gdispatch.topology import POLICIES


def _write(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data) if not isinstance(data, str) else data)
    return str(path)


def test_defaults_match_the_shipped_scenario():
    cfg = ScenarioConfig()
    assert cfg.n_evs == 100
    assert cfg.rate_max_kw == 6.6
    assert cfg.price == 0.02
    assert cfg.soc_range == (0.8, 0.9)
    assert cfg.soc_min_range == (0.1, 0.2)
    assert cfg.capacity_range_kwh == (15.0, 30.0)


def test_empty_file_yields_full_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert load_config(path) == ScenarioConfig()
    path.write_text("{}")
    assert load_config(path) == ScenarioConfig()


def test_load_overrides(tmp_path):
    path = _write(tmp_path, {"n_evs": 10, "k_max": 25, "soc_range": [0.7, 0.95]})
    cfg = load_config(path)
    assert cfg.n_evs == 10
    assert cfg.k_max == 25
    assert cfg.soc_range == (0.7, 0.95)


def test_unknown_key_named_in_error(tmp_path):
    path = _write(tmp_path, {"n_ev": 10})
    with pytest.raises(ConfigError, match="n_ev"):
        load_config(path)


def test_inverted_bounds_named_in_error(tmp_path):
    path = _write(tmp_path, {"soc_min_range": [0.3, 0.1]})
    with pytest.raises(ConfigError, match="soc_min_range"):
        load_config(path)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(_write(tmp_path, "{not json"))
    with pytest.raises(ConfigError, match="object"):
        load_config(_write(tmp_path, "[1,2]"))


def test_schema_version_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config({"schema_version": 99})


@pytest.mark.parametrize(
    "data,key",
    [
        ({"n_evs": 0}, "n_evs"),
        ({"m_whales": 0}, "m_whales"),
        ({"k_max": -1}, "k_max"),
        ({"dt_h": 0.0}, "dt_h"),
        ({"horizon_h": -1.0}, "horizon_h"),
        ({"unit_bits": 60}, "unit_bits"),
        ({"topology_policy": "mesh"}, "topology_policy"),
        ({"price": -0.5}, "price"),
        ({"gen_a": 0.0}, "gen_a"),
        ({"alpha_range": [0.0, 0.1]}, "alpha_range"),
        ({"penalty_cap": 10.0}, "penalty"),  # unknown key since the penalty is fixed
        # the ids of this and the two capacity rows are from before the
        # fleet's range errors named their config key
        pytest.param({"soc_range": [0.8, 1.2]}, r"^soc_range: upper bound must be <= 1, got 1\.2$",
                     id="data11-fleet bounds"),
        ({"n_evs": "5"}, "n_evs"),
        ({"seed": 1.5}, "seed"),
        ({"shuffle_enabled": "no"}, "shuffle_enabled"),
        ({"k_max": True}, "k_max"),
        ({"price": True}, "price"),
        ({"soc_range": [0.8, "0.9"]}, "soc_range"),
        ({"horizon_h": 0.3, "dt_h": 0.25}, "horizon_h"),
        ({"price": float("nan")}, "price: must be finite"),
        ({"horizon_h": float("inf")}, "horizon_h: must be finite"),
        ({"dt_h": float("inf")}, "dt_h: must be finite"),
        ({"gen_b": float("-inf")}, "gen_b: must be finite"),
        ({"omega": float("nan")}, "omega: must be finite"),
        ({"rate_max_kw": float("inf")}, "rate_max_kw: must be finite"),
        ({"other_range": [-1.0, -0.5]}, "other_range: lower bound must be >= 0, got -1.0"),
        ({"soc_range": [float("nan"), 0.9]}, "soc_range: must be finite"),
        ({"capacity_range_kwh": [15.0, float("inf")]}, "capacity_range_kwh: must be finite"),
        ({"other_range": [-0.5, 0.02]}, "other_range: lower bound must be >= 0, got -0.5"),
        ({"dt_h": 1e-300, "horizon_h": 1e10}, "horizon_h"),
        ({"dt_h": 1e-290, "horizon_h": 1e10}, "horizon_h"),  # 1e300 steps: finite, uncountable
        ({"dt_h": 1.0, "horizon_h": 2.0**53}, "horizon_h"),
        pytest.param({"capacity_range_kwh": [0.0, 0.0]},
                     r"^capacity_range_kwh: lower bound must be > 0, got 0\.0$",
                     id="data32-capacity_kwh: lower bound must be > 0"),
        pytest.param({"capacity_range_kwh": [-5.0, 30.0]},
                     r"^capacity_range_kwh: lower bound must be > 0, got -5\.0$",
                     id="data33-capacity_kwh: lower bound must be > 0"),
        ({"beta_range": [-1e308, 1e308]}, "beta_range: bounds .* too far apart"),
        ({"dt_h": 1.0, "horizon_h": 0.4}, "horizon_h = 0.4 is not a whole number"),
        ({"dt_h": 0.1, "horizon_h": 0.25}, "horizon_h = 0.25 is not a whole number"),
        ({"seed": -1}, "seed: "),
        ({"departures": [{"time_h": 0.3, "count": 2, "idz": [1]}]},
         r"departures\[0\]: unknown key 'idz'"),
        ({"n_evs": 5, "m_whales": 2**60}, "m_whales"),
        ({"n_evs": 10**15}, "n_evs"),
        ({"n_evs": 5, "departures": [{"time_h": 0.1, "ids": [7]}]},
         r"^departures\[0\]: EV id 7 out of range: need an integer in \[0, 5\)$"),
        ({"n_evs": 5, "departures": [{"time_h": 0.1, "count": 1},
                                     {"time_h": 0.2, "ids": [0, -1]}]},
         r"^departures\[1\]: EV id -1 out of range"),
        ({"departures": [{"time_h": 0.1, "ids": [2**70]}]}, r"EV id 1180591620717411303424 "),
        # JSON integers too large for a float
        ({"price": 10**400}, r"^price: must be finite, got an integer too large for a float$"),
        ({"soc_range": [0.8, 10**400]}, r"^soc_range: must be finite"),
        ({"departures": [{"time_h": 10**400, "count": 1}]}, r"^departures\[0\]: time_h"),
        ({"departures": [{"time_h": float("nan"), "count": 1}]},
         r"^departures\[0\]: time_h: must be finite, got nan$"),
        ({"omega": -0.1}, r"^omega must be >= 0, got -0\.1$"),
        ({"soc_range": 0.8}, r"^soc_range: expected tuple\[float, float\], got 0\.8$"),
    ],
)
def test_validation_names_offending_key(data, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(data)


def test_departure_specs_validated():
    with pytest.raises(ConfigError, match="departures"):
        parse_config({"departures": [{"count": 5}]})  # missing time_h
    with pytest.raises(ConfigError, match="departures"):
        parse_config({"departures": [{"time_h": 1.0}]})  # neither ids nor count
    with pytest.raises(ConfigError, match="departures"):
        parse_config({"departures": [{"time_h": 1.0, "ids": [1], "count": 2}]})
    for count in (-3, 2.5, "2", True):
        with pytest.raises(ConfigError, match="departures"):
            parse_config({"departures": [{"time_h": 1.0, "count": count}]})
    for time_h in ("soon", None, True, float("nan"), float("inf"), [0.5]):
        with pytest.raises(ConfigError, match=r"departures\[0\]"):
            parse_config({"departures": [{"time_h": time_h, "count": 2}]})
    for ids in ([1.7, True], [True], [1, "2"], "12", 3, [None]):
        with pytest.raises(ConfigError, match=r"departures\[1\]"):
            parse_config({"departures": [{"time_h": 0.5, "ids": [0]}, {"time_h": 0.5, "ids": ids}]})
    config = parse_config({"departures": [{"time_h": 1, "ids": [3, 4]}, {"time_h": 0.5, "count": 0}]})
    assert config.departures[0]["ids"] == [3, 4]


def test_horizon_of_whole_steps_accepted():
    assert parse_config({}).horizon_h == 6.0  # 60 steps of 0.1 h, not exact in binary
    assert parse_config({"horizon_h": 1.0, "dt_h": 0.01}).dt_h == 0.01
    with pytest.raises(ConfigError, match="horizon_h"):
        parse_config({"horizon_h": 0.05, "dt_h": 0.1})  # under one step


def test_range_shape_checked():
    with pytest.raises(ConfigError, match="soc_range"):
        parse_config({"soc_range": [0.8]})


def test_build_instance_is_deterministic_and_consistent(assert_same_fleet):
    cfg = ScenarioConfig(n_evs=17, seed=77)
    a = build_instance(cfg)
    b = build_instance(cfg)
    assert_same_fleet(a.fleet, b.fleet)
    assert a.costs == b.costs
    assert len(a.costs.ev) == 17
    assert a.costs.ev.eta.tolist() == a.fleet.eta.tolist()


def test_cost_table_eta_is_the_fleets_bit_for_bit():
    # the two homes of the efficiencies: the fleet's column (grid power) and
    # the cost table's (the aggregator's row) must not drift apart
    instance = build_instance(ScenarioConfig(n_evs=40, seed=5))
    fleet = instance.fleet
    fleet.departed[[3, 17, 18, 39]] = True
    fleet.soc[7] = fleet.soc_min[7] / 2
    avail = available_ids(fleet)
    assert len(avail) == 35
    assert instance.costs.ev.eta.tobytes() == fleet.eta.tobytes()
    eta_sum = left_to_right_sum(fleet.eta[fleet.available()])
    assert instance.costs.restrict(avail).ev.eta_sum == eta_sum


def test_resolve_departures_by_count_takes_top_ids():
    cfg = ScenarioConfig(
        n_evs=10, seed=3, departures=({"time_h": 1.0, "count": 4},)
    )
    instance = build_instance(cfg)
    (event,) = resolve_departures(cfg, instance.fleet)
    assert event.time_h == 1.0
    assert event.ev_ids == (6, 7, 8, 9)


def test_resolve_departures_counts_against_evs_still_present():
    cfg = ScenarioConfig(
        n_evs=10, seed=3,
        departures=({"time_h": 1.0, "count": 3}, {"time_h": 2.0, "count": 3}),
    )
    first, second = resolve_departures(cfg, build_instance(cfg).fleet)
    assert first.ev_ids == (7, 8, 9)
    assert second.ev_ids == (4, 5, 6)


def test_resolve_departures_in_time_order():
    # listed out of time order: the earlier ids event removes EV 9 first
    cfg = ScenarioConfig(
        n_evs=10, seed=3,
        departures=({"time_h": 2.0, "count": 2}, {"time_h": 1.0, "ids": [9]}),
    )
    late, early = resolve_departures(cfg, build_instance(cfg).fleet)
    assert early.ev_ids == (9,)
    assert late.ev_ids == (7, 8)


def test_resolve_departures_by_ids_and_range_check():
    cfg = ScenarioConfig(n_evs=5, seed=3, departures=({"time_h": 0.5, "ids": [0, 4]},))
    instance = build_instance(cfg)
    (event,) = resolve_departures(cfg, instance.fleet)
    assert event.ev_ids == (0, 4)
    bad = ScenarioConfig(n_evs=5, seed=3, departures=({"time_h": 0.5, "ids": [9]},))
    with pytest.raises(ConfigError, match="out of range"):
        resolve_departures(bad, build_instance(bad).fleet)


@pytest.mark.parametrize("bad_id", [-1, 5, 2**63, 2**70, -(2**70)])
def test_departure_id_out_of_range_names_the_event_and_the_id(bad_id):
    # JSON holds any integer, so ids past int64 must come out as a ConfigError too
    data = {"n_evs": 5, "departures": [{"time_h": 0.2, "ids": [1]},
                                       {"time_h": 0.1, "ids": [0, 4, bad_id, 7]}]}
    message = rf"^departures\[1\]: EV id {bad_id} out of range: need an integer in \[0, 5\)$"
    with pytest.raises(ConfigError, match=message):
        parse_config(json.loads(json.dumps(data)))
    # a config built directly reaches resolve_departures, which refuses it alike
    config = ScenarioConfig(n_evs=5, departures=tuple(data["departures"]))
    with pytest.raises(ConfigError, match=message):
        resolve_departures(config, build_instance(config).fleet)


@pytest.mark.parametrize("bad_id", [1.5, 2.9, "2", True])
def test_departure_id_that_is_no_integer_is_refused_by_name(bad_id):
    # parse_config refuses these; a config built directly reaches resolve_departures
    config = ScenarioConfig(n_evs=5, departures=({"time_h": 0.1, "ids": [0, bad_id]},))
    with pytest.raises(ConfigError, match=rf"departures\[0\]: EV id {re.escape(repr(bad_id))} "):
        resolve_departures(config, build_instance(config).fleet)


def _resolve_by_lists(config, fleet):
    """Reference: the departure resolution as a loop over Python id lists."""
    present = np.flatnonzero(fleet.available()).tolist()
    order = sorted(range(len(config.departures)),
                   key=lambda j: float(config.departures[j]["time_h"]))
    events = [None] * len(order)
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


@st.composite
def _fleets_and_departures(draw):
    n = draw(st.integers(1, 12))
    soc = draw(st.lists(st.sampled_from((0.05, 0.2, 0.8)), min_size=n, max_size=n))
    departed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    fleet = Fleet(capacity_kwh=np.full(n, 20.0), soc=soc, soc_min=np.full(n, 0.2),
                  rate_min_kw=np.zeros(n), rate_max_kw=np.full(n, 6.6), eta=np.full(n, 0.9))
    fleet.departed[:] = departed
    time_h = st.sampled_from((0.5, 1, 1.0, 2.5))  # equal times, as int and float too
    ids = st.lists(st.integers(0, n - 1), max_size=2 * n)  # duplicates, ids already gone
    if draw(st.booleans()):
        ids = st.lists(st.integers(-2, n + 2), max_size=4)  # sometimes out of range
    departure = (st.fixed_dictionaries({"time_h": time_h, "ids": ids})
                 | st.fixed_dictionaries({"time_h": time_h, "count": st.integers(0, n + 3)}))
    return fleet, tuple(draw(st.lists(departure, max_size=5)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_fleets_and_departures())
def test_resolve_departures_matches_the_list_loop(case):
    fleet, departures = case
    config = ScenarioConfig(n_evs=len(fleet), departures=departures)
    try:
        expected = _resolve_by_lists(config, fleet)
    except ConfigError:
        with pytest.raises(ConfigError, match="out of range"):
            resolve_departures(config, fleet)
        return
    events = resolve_departures(config, fleet)
    assert events == expected
    assert all(type(i) is int for event in events for i in event.ev_ids)
    assert all(type(event.time_h) is float for event in events)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _pair(lo, hi):
    return st.lists(_finite(lo, hi), min_size=2, max_size=2).map(lambda p: tuple(sorted(p)))


@st.composite
def _valid_configs(draw):
    soc_min_lo, soc_min_hi, soc_lo, soc_hi = sorted(draw(st.lists(_finite(0.0, 1.0), min_size=4,
                                                                   max_size=4)))
    rate_min, rate_max = draw(_pair(0.0, 1e3))
    dt_h = draw(_finite(1e-3, 10.0))
    n_evs = draw(st.integers(1, 10**6))
    time_h = st.integers(-10, 10) | _finite(-1e3, 1e3)
    departure = (st.fixed_dictionaries({"time_h": time_h,
                                        "ids": st.lists(st.integers(0, n_evs - 1), max_size=4)})
                 | st.fixed_dictionaries({"time_h": time_h, "count": st.integers(0, 10**6)}))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**64)),
        n_evs=n_evs,
        soc_range=(soc_lo, soc_hi),
        soc_min_range=(soc_min_lo, soc_min_hi),
        capacity_range_kwh=draw(_pair(1e-3, 1e3)),
        eta_range=draw(_pair(1e-3, 1.0)),
        rate_min_kw=rate_min,
        rate_max_kw=rate_max,
        price=draw(_finite(0.0, 1e3)),
        alpha_range=draw(_pair(1e-9, 1e3)),
        beta_range=draw(_pair(-1e3, 1e3)),
        gamma_range=draw(_pair(-1e3, 1e3)),
        other_range=draw(_pair(0.0, 1e3)),
        gen_a=draw(_finite(1e-12, 1e3)),
        gen_b=draw(_finite(-1e3, 1e3)),
        gen_c=draw(_finite(-1e3, 1e3)),
        omega=draw(_finite(0.0, 1e3)),
        m_whales=draw(st.integers(1, 100)),
        k_max=draw(st.integers(0, 10**4)),
        shuffle_enabled=draw(st.booleans()),
        unit_bits=draw(st.integers(8, 48)),
        topology_policy=draw(st.sampled_from(POLICIES)),
        dt_h=dt_h,
        horizon_h=dt_h * draw(st.integers(1, 1000)),
        departures=tuple(draw(st.lists(departure, max_size=3))),
        out_dir=draw(st.text(max_size=12)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(config=_valid_configs())
@example(config=ScenarioConfig())
def test_valid_config_round_trips_through_json(config):
    assert parse_config(json.loads(json.dumps(dataclasses.asdict(config)))) == config
