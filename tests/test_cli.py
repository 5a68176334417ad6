"""Command line interface: verbs, outputs, exit codes."""

import json

import pytest

from v2gdispatch.cli import build_parser, main
from v2gdispatch.config import build_instance, load_config
from v2gdispatch.harness import SWEEPABLE
from v2gdispatch.orchestrator import run_optimization
from v2gdispatch.records import export_run, import_run
from v2gdispatch.shuffle import ProtocolError

SMALL = {
    "n_evs": 6,
    "seed": 11,
    "m_whales": 3,
    "k_max": 15,
    "horizon_h": 0.5,
    "dt_h": 0.1,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = dict(SMALL)
    cfg["out_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_trace(config_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    record = import_run(out)
    assert record.steps and record.iterations
    assert "final rate" in capsys.readouterr().out


def test_run_defaults_to_out_dir(config_path, tmp_path):
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "run.csv").exists()


def test_oracle_without_a_config_uses_the_defaults(capsys):
    assert main(["oracle"]) == 0
    assert capsys.readouterr().out.startswith("oracle rate ")


def test_run_without_a_config_or_out_writes_the_default_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run"]) == 0
    assert (tmp_path / "runs" / "run.csv").is_file()


def test_sweep_writes_stats(config_path, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code = main([
        "sweep", "--config", str(config_path), "--param", "m_whales",
        "--values", "1,3", "--runs", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "m_whales=1" in capsys.readouterr().out


def test_oracle_prints_ground_truth(config_path, capsys):
    assert main(["oracle", "--config", str(config_path)]) == 0
    assert "oracle rate" in capsys.readouterr().out


def test_compare_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--config", str(config_path), "--seeds", "2",
        "--iterations", "20", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3
    assert "oracle objective" in capsys.readouterr().out


def test_compare_seed_count_below_1_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--config", str(config_path), "--seeds", "-1", "--out", str(out)])
    assert code == 2
    assert "n_seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_a_negative_k_max_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code = main(["sweep", "--config", str(config_path), "--values", "-5", "--runs", "2",
                 "--out", str(out)])
    assert code == 2
    assert "k_max must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_a_negative_whale_count_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code = main(["sweep", "--config", str(config_path), "--param", "m_whales", "--values=-3",
                 "--runs", "2", "--out", str(out)])
    assert code == 2
    assert "m_whales must be >= 1, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_a_fractional_value_names_the_param_and_exits_2(config_path, tmp_path,
                                                                   capsys):
    out = tmp_path / "stats.csv"
    for values in ("2.5", "nan", "10,inf"):
        code = main(["sweep", "--config", str(config_path), "--values", values, "--runs", "2",
                     "--out", str(out)])
        assert code == 2
        assert "k_max values must be whole numbers" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_over_a_value_that_is_no_number_names_the_param_and_exits_2(config_path, tmp_path,
                                                                          capsys):
    out = tmp_path / "stats.csv"
    for values in ("abc", ",5"):
        code = main(["sweep", "--config", str(config_path), "--values", values, "--runs", "2",
                     "--out", str(out)])
        assert code == 2
        assert "k_max values must be numbers" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_param_choices_are_the_sweepable_settings(capsys):
    for param in SWEEPABLE:
        assert build_parser().parse_args(["sweep", "--param", param]).param == param
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--param", "price"])
    assert repr(SWEEPABLE[0]) in capsys.readouterr().err  # the choices listed


def test_compare_counts_a_tie_in_the_last_bits_as_holding(tmp_path, capsys):
    # rate_min_kw == rate_max_kw: all three solvers return 3.0 kW, and the
    # protocol's objective and the baselines' fitness differ only in rounding
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps({"n_evs": 6, "rate_min_kw": 3.0, "rate_max_kw": 3.0,
                                "k_max": 5, "horizon_h": 0.2, "out_dir": str(tmp_path)}))
    assert main(["compare", "--config", str(path), "--seeds", "3"]) == 0
    assert "decentralized <= cwoa <= gwo on 3/3 seeds" in capsys.readouterr().out
    assert len((tmp_path / "compare.csv").read_text().splitlines()) == 4


def test_zero_width_rate_range_runs_in_every_verb(tmp_path, capsys):
    # rate_min_kw == rate_max_kw: every solver's search range has width 0
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps({"n_evs": 6, "rate_min_kw": 3.0, "rate_max_kw": 3.0,
                                "k_max": 5, "horizon_h": 0.2, "out_dir": str(tmp_path)}))
    for args in (["run"], ["oracle"], ["compare", "--seeds", "2"]):
        assert main([*args, "--config", str(path)]) == 0, capsys.readouterr().err


def test_penalty_key_exits_1_from_every_verb(tmp_path, capsys):
    # the baselines' penalty is a fixed rule: its former settings are unknown keys
    path = tmp_path / "bad.json"
    for key, value in (("penalty_cap", 10.0), ("penalty_tolerance_kw", 1e-6),
                       ("penalty_spread_scale_kw", None)):
        path.write_text(json.dumps({**SMALL, key: value, "out_dir": str(tmp_path / "out")}))
        for verb in ("run", "sweep", "oracle", "compare"):
            assert main([verb, "--config", str(path)]) == 1
            assert f"config error: unknown config key: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# reports that could pass 2**63 units in a column
WIRE = {"n_evs": 16, "seed": 5, "m_whales": 4, "k_max": 5, "gen_c": 3000.0, "unit_bits": 48,
        "other_range": [2000.0, 2001.0], "horizon_h": 0.2}
# a first epoch whose aggregator row reaches 2**63 units at 32 unit bits, but not at 31
HEAVY = {"n_evs": 10, "gen_a": 1e6}
FITS_31 = "beyond the int64 wire at 40 unit bits; the largest that fits is 31"
# a config gives every EV one rate_max_kw, so no epoch after a departure bounds
# its reports above the first epoch's: the edge refuses by the first epoch
HEAVY_DEPARTING = {**HEAVY, "departures": [{"time_h": 0.1, "count": 5}]}
# a departure of EV 7 in a fleet of 5: every verb loads the config, so every verb refuses it
DEPARTURE_ID = {"n_evs": 5, "k_max": 5, "horizon_h": 0.2,
                "departures": [{"time_h": 0.1, "ids": [7]}]}
OUT_OF_RANGE = "departures[0]: EV id 7 out of range: need an integer in [0, 5)"
# config files that are no UTF-8 text, or hold an integer of more digits than Python
# converts, or lists nested deeper than its recursion limit
NOT_UTF8 = b'{"n_evs": 5, "x": "\xff"}'
LONG_INT = b'{"n_evs": ' + b"1" * 5001 + b"}"
DEEP = b'{"departures": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


# a CLI check that a refused input exits by its code and names its cause is a row here
@pytest.mark.parametrize("verb, cfg, code, word", [
    (["run"], {"seed": -1}, 1, "seed"),
    (["run"], {"departures": [{"time_h": 0.3, "count": 2, "idz": [1]}]}, 1, "idz"),
    (["run"], {"other_range": [-1.0, -0.5]}, 1, "other_range"),
    (["run"], WIRE, 1, "beyond the int64 wire at 48 unit bits; the largest that fits is 47"),
    (["run"], HEAVY, 1, FITS_31),
    (["run"], HEAVY_DEPARTING, 1, FITS_31),
    (["sweep", "--values", "5", "--runs", "2"], HEAVY, 1, FITS_31),
    (["compare", "--seeds", "2"], HEAVY, 1, FITS_31),
    (["run"], {**HEAVY, "gen_a": 1e20}, 1, "beyond the int64 wire at 40 unit bits; no value in "
                                           "[8, 48] fits"),
    (["sweep", "--param", "m_whales", f"--values={2**60}", "--runs", "2"], {"n_evs": 5}, 2,
     "m_whales"),
    (["run"], DEPARTURE_ID, 1, OUT_OF_RANGE),
    (["oracle"], DEPARTURE_ID, 1, OUT_OF_RANGE),
    (["compare", "--seeds", "2"], DEPARTURE_ID, 1, OUT_OF_RANGE),
    (["sweep", "--values", "5", "--runs", "2"], DEPARTURE_ID, 1, OUT_OF_RANGE),
    (["run"], {"dt_h": 10**400}, 1, "dt_h: must be finite"),
    (["run"], {"alpha_range": [0.001, 10**400]}, 1, "alpha_range: must be finite"),
    (["run"], {"departures": [{"time_h": 10**400, "count": 1}]}, 1, "departures[0]: time_h"),
    (["run"], NOT_UTF8, 1, "cfg.json"),
    (["run"], LONG_INT, 1, "cfg.json"),
    (["run"], DEEP, 1, "cfg.json"),
], ids=["negative-seed", "departure-key", "other_range", "int64-wire", "unit-bits-run",
        "unit-bits-departing", "unit-bits-sweep", "unit-bits-compare", "no-unit-bits-fit",
        "sweep-whale-count", "departure-id-run", "departure-id-oracle", "departure-id-compare",
        "departure-id-sweep", "huge-int-key", "huge-int-range", "huge-int-departure", "not-utf8",
        "long-int", "deep-json"])
def test_refusal_exits_by_its_code_names_its_cause_and_writes_nothing(tmp_path, capsys, verb,
                                                                       cfg, code, word):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    # oracle prints its result and has no --out
    out_args = [] if verb == ["oracle"] else ["--out", str(out)]
    assert main([*verb, "--config", str(path), *out_args]) == code
    assert word in capsys.readouterr().err
    assert not out.exists()


def test_the_edge_and_the_epoch_refuse_a_fleet_beyond_the_wire_for_one_reason(tmp_path, capsys):
    # the edge keeps no rule of its own: it prints the first epoch's
    # ProtocolError, which names the epoch and unit_bits, as a config error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(WIRE))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    instance = build_instance(load_config(path))
    with pytest.raises(ProtocolError) as refused:
        run_optimization(instance.fleet, instance.costs, unit_bits=48)
    assert str(refused.value).startswith("epoch 0: unit_bits: reports of up to ")
    assert err == f"config error: {refused.value}\n"


def test_a_departure_at_time_0_is_judged_on_the_first_epochs_evs(tmp_path, capsys):
    # the aggregator's row grows with the fleet's total rate: all 10 EVs reach
    # 2**63 at 40 unit bits, but the 5 left after a departure at time 0 do not
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    whole = {"n_evs": 10, "gen_a": 4000.0, "k_max": 5, "horizon_h": 0.2}
    path.write_text(json.dumps(whole))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "the largest that fits is 39" in capsys.readouterr().err
    path.write_text(json.dumps({**whole, "departures": [{"time_h": 0.0, "count": 5}]}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert {seg.n_available for seg in import_run(out).iterations.segments} == {5}


def test_a_departed_fleet_writes_no_flag_line_and_its_trace_round_trips(tmp_path):
    # the whole fleet departs, and its empty epoch adds no line
    path, out, again = tmp_path / "gone.json", tmp_path / "gone.csv", tmp_path / "again.csv"
    path.write_text(json.dumps({"n_evs": 6, "k_max": 5, "horizon_h": 0.6,
                                "departures": [{"time_h": 0.3, "count": 6}]}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert not any(line.startswith("flag,") for line in out.read_text().splitlines())
    export_run(import_run(out), again)
    assert again.read_bytes() == out.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_evs": -3}))
    assert main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_config_value_of_wrong_type_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_evs": "5"}))
    assert main(["run", "--config", str(path)]) == 1
    assert "n_evs" in capsys.readouterr().err


def test_bad_departure_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for spec in ({"time_h": "soon", "count": 2}, {"time_h": 0.5, "ids": [1.7, True]},
                 {"time_h": 0.2, "ids": [0, -1]}, {"time_h": 0.2, "ids": [0, 2**70]}):
        path.write_text(json.dumps({**SMALL, "departures": [spec]}))
        assert main(["run", "--config", str(path)]) == 1
        assert "departures[0]" in capsys.readouterr().err


def test_zero_capacity_range_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, "capacity_range_kwh": [0.0, 0.0]}))
    assert main(["run", "--config", str(path)]) == 1
    assert "capacity_range_kwh: lower bound must be > 0, got 0.0" in capsys.readouterr().err


def test_non_finite_config_value_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for key, value in (("price", "NaN"), ("horizon_h", "Infinity"), ("dt_h", "Infinity")):
        path.write_text(f'{{"{key}": {value}}}')
        assert main(["run", "--config", str(path)]) == 1
        assert f"{key}: must be finite" in capsys.readouterr().err


def test_step_count_overflow_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dt_h": 1e-300, "horizon_h": 1e10}))
    assert main(["run", "--config", str(path)]) == 1
    assert "horizon_h" in capsys.readouterr().err


def test_step_count_of_2_to_the_53_or_more_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dt_h": 1e-290, "horizon_h": 1e10}))
    assert main(["run", "--config", str(path)]) == 1
    assert "horizon_h" in capsys.readouterr().err


def test_oracle_step_that_is_not_finite_and_positive_exits_2(config_path, capsys):
    for step in ("0", "nan", "-0.1", "inf"):
        assert main(["oracle", "--config", str(config_path), "--step", step]) == 2
        assert "error: step must be a finite number > 0" in capsys.readouterr().err


def test_oracle_step_too_small_to_count_the_grid_exits_2(config_path, capsys):
    # 1e-300 counts a finite grid, but one of 2**53 or more points; 1e-12
    # counts one of 6.6e12 points, far above the 2**27-point cap
    for step in ("1e-320", "1e-300", "1e-12"):
        assert main(["oracle", "--config", str(config_path), "--step", step]) == 2
        assert f"error: step = {step} is too small" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    # exporting onto a directory path fails after config parsing succeeded
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err
