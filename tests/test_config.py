"""Config loading, validation, defaults, and instance assembly."""

import json

import pytest

from v2gdispatch.config import (
    ConfigError,
    ScenarioConfig,
    build_instance,
    load_config,
    parse_config,
    resolve_departures,
)


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
        ({"penalty_cap": 0.0}, "penalty"),
        ({"soc_range": [0.8, 1.2]}, "fleet bounds"),
        ({"n_evs": "5"}, "n_evs"),
        ({"seed": 1.5}, "seed"),
        ({"shuffle_enabled": "no"}, "shuffle_enabled"),
        ({"k_max": True}, "k_max"),
        ({"price": True}, "price"),
        ({"soc_range": [0.8, "0.9"]}, "soc_range"),
        ({"horizon_h": 0.3, "dt_h": 0.25}, "horizon_h"),
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


def test_build_instance_is_deterministic_and_consistent():
    cfg = ScenarioConfig(n_evs=17, seed=77)
    a = build_instance(cfg)
    b = build_instance(cfg)
    assert a.fleet.evs == b.fleet.evs
    assert a.costs == b.costs
    assert len(a.costs.ev) == 17
    assert a.costs.agg.eta == tuple(ev.eta for ev in a.fleet.evs)


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
