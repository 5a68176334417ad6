"""Stats harness: seed isolation, row structure, exports, solver comparison."""

import numpy as np
import pytest

from v2gdispatch import harness
from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.harness import (
    CompareRow,
    compare_solvers,
    export_comparison,
    export_stats,
    oracle_rate,
    run_seed,
    solver_order_holds,
    stats_harness,
)
from v2gdispatch.costs import grid_search_rate
from v2gdispatch.fleet import available_ids
from v2gdispatch.orchestrator import run_optimization
from v2gdispatch.records import RunRecord, import_run

CFG = ScenarioConfig(n_evs=8, seed=19, m_whales=3, k_max=20)


def test_stats_rows_structure():
    rows = stats_harness(CFG, "k_max", [10, 20], runs=3)
    assert [row.value for row in rows] == [10, 20]
    for row in rows:
        assert row.param == "k_max"
        assert row.runs == 3
        assert np.isfinite(row.mean_rate_kw)
        assert row.std_rate_kw >= 0.0
        assert row.mean_time_s > 0.0


def test_stats_harness_validates_arguments():
    with pytest.raises(ValueError):
        stats_harness(CFG, "k_max", [10], runs=1)
    with pytest.raises(ValueError):
        stats_harness(CFG, "price", [1], runs=2)
    for value in (2.7, 1e-3, -0.5, float("nan"), float("inf"), -float("inf"), "5", True):
        with pytest.raises(ValueError, match="k_max values must be whole numbers"):
            stats_harness(CFG, "k_max", [10, value], 2)
    for runs in (2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="^runs must be an integer"):
            stats_harness(CFG, "k_max", [2], runs)
    assert [row.value for row in stats_harness(CFG, "k_max", [2.0, np.int64(3)], 2)] == [2, 3]


def test_sweep_runs_are_seed_isolated():
    # run j inside the sweep equals the same run executed alone
    instance = build_instance(CFG)
    rows = stats_harness(CFG, "m_whales", [3], runs=4, instance=instance)
    alone = []
    for j in range(4):
        rate, _ = run_optimization(
            instance.fleet, instance.costs, m_whales=3, k_max=CFG.k_max,
            seed=run_seed(CFG.seed, j),
        )
        alone.append(rate)
    assert rows[0].mean_rate_kw == pytest.approx(float(np.mean(alone)), abs=0.0)
    assert rows[0].std_rate_kw == pytest.approx(float(np.std(alone)), abs=0.0)


def test_mean_and_std_recomputable_from_reruns():
    rows_a = stats_harness(CFG, "k_max", [15], runs=3)
    rows_b = stats_harness(CFG, "k_max", [15], runs=3)
    assert rows_a[0].mean_rate_kw == rows_b[0].mean_rate_kw
    assert rows_a[0].std_rate_kw == rows_b[0].std_rate_kw


def test_export_stats(tmp_path):
    rows = stats_harness(CFG, "k_max", [10], runs=2)
    path = tmp_path / "stats.csv"
    export_stats(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,mean_rate_kw,std_rate_kw,mean_time_s,runs"
    assert len(lines) == 2
    assert lines[1].startswith("k_max,10,")
    row = rows[0]
    assert lines[1] == (f"k_max,10,{row.mean_rate_kw!r},{row.std_rate_kw!r},"
                        f"{row.mean_time_s!r},2")


def test_stats_recomputable_from_per_run_traces(tmp_path):
    rows = stats_harness(CFG, "k_max", [12], runs=3, trace_dir=tmp_path)
    files = sorted(tmp_path.glob("k_max_12_run*.csv"))
    assert len(files) == 3
    finals = [import_run(f).iterations[-1].best_rate_kw for f in files]
    assert rows[0].mean_rate_kw == float(np.mean(finals))
    assert rows[0].std_rate_kw == float(np.std(finals))


def test_sweep_timing_is_interleaved_across_values(monkeypatch):
    # every stub epoch does the same work, one time unit, but the machine
    # runs at half speed for the second half of the sweep: timed value by
    # value, the later value would read slower; interleaved, both alike
    clock = {"now": 0.0, "epochs": 0}
    runs, values = 4, [1, 3]

    def stub_epoch(fleet, costs, seed, **kwargs):
        clock["epochs"] += 1
        clock["now"] += 1.0 if clock["epochs"] <= runs * len(values) // 2 else 2.0
        return 1.0, RunRecord()

    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock["now"])
    monkeypatch.setattr(harness, "run_optimization", stub_epoch)
    rows = stats_harness(CFG, "m_whales", values, runs=runs, instance=build_instance(CFG))
    assert [row.mean_time_s for row in rows] == [1.5, 1.5]


def test_oracle_rate_matches_direct_grid_search():
    instance = build_instance(CFG)
    rate, value = oracle_rate(instance)
    avail = available_ids(instance.fleet)
    costs = instance.costs.restrict(avail)
    direct = grid_search_rate(costs.ev, costs.agg, 0.0, 6.6)
    assert (rate, value) == direct


def test_compare_solvers_rows(tmp_path):
    rows, oracle_objective = compare_solvers(CFG, n_seeds=2, k_max=30, population=8)
    assert len(rows) == 2
    assert np.isfinite(oracle_objective)
    for row in rows:
        assert np.isfinite(row.decentralized_objective)
        assert np.isfinite(row.cwoa_objective)
        assert np.isfinite(row.gwo_objective)
        # objectives can never beat the consensus optimum by more than
        # the heterogeneity slack; sanity-check ordering against oracle
        assert row.decentralized_objective >= oracle_objective - 1e-9
    path = tmp_path / "cmp.csv"
    export_comparison(rows, oracle_objective, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("seed,")


def test_export_comparison_bytes(tmp_path):
    rows = [CompareRow(0, 0.1 + 0.2, 1e-20, 2.5), CompareRow(7, -0.0, 1.0, 123456789.123456789)]
    path = tmp_path / "cmp.csv"
    export_comparison(rows, 1 / 3, path)
    assert path.read_bytes() == (
        b"seed,decentralized_objective,cwoa_objective,gwo_objective,oracle_objective\n"
        b"0,0.30000000000000004,1e-20,2.5,0.3333333333333333\n"
        b"7,-0.0,1.0,123456789.12345679,0.3333333333333333\n"
    )


def test_compare_solvers_needs_a_seed():
    for n_seeds in (0, -1):
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            compare_solvers(CFG, n_seeds=n_seeds, k_max=5, population=4)
    for n_seeds in (True, 1.0):
        with pytest.raises(ValueError, match="^n_seeds must be an integer"):
            compare_solvers(CFG, n_seeds=n_seeds, k_max=5, population=4)


def test_compare_refuses_a_population_below_gwos_pack_before_any_solver(monkeypatch):
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("run_optimization", "cwoa_solve", "gwo_solve"):
        monkeypatch.setattr(harness, name, solver)
    for population in (0, 1, 2):
        with pytest.raises(ValueError, match=rf"^population must be >= 3 .*, got {population}$"):
            compare_solvers(CFG, n_seeds=1, k_max=5, population=population)
    with pytest.raises(ValueError, match=r"^population must be an integer, got 30\.0$"):
        compare_solvers(CFG, n_seeds=1, k_max=5, population=30.0)


def test_oracle_and_compare_need_an_available_ev():
    instance = build_instance(CFG)
    for ev in instance.fleet.evs:
        ev.departed = True
    with pytest.raises(ValueError, match="no available EVs"):
        oracle_rate(instance)
    with pytest.raises(ValueError, match="no available EVs"):
        compare_solvers(CFG, n_seeds=1, k_max=5, population=4, instance=instance)


@pytest.mark.parametrize("rate_min,rate_max,message", [
    (3.0, 2.0, r"no common feasible rate: \[3\.0, 2\.0\]"),
    (-1.0, 6.6, r"discharge rate must be >= 0, got a lower bound of -1\.0"),
    (0.0, np.inf, r"^common rate bounds must be finite, got an upper bound of inf$"),
], ids=["empty", "negative", "infinite"])
def test_oracle_and_compare_refuse_the_rate_bounds_a_run_refuses(rate_min, rate_max, message):
    instance = build_instance(CFG)
    instance.fleet.rate_min_kw[:] = rate_min  # past the Fleet's own per-EV check
    instance.fleet.rate_max_kw[:] = rate_max
    with pytest.raises(ValueError, match=message):
        run_optimization(instance.fleet, instance.costs, k_max=5)
    with pytest.raises(ValueError, match=message):
        oracle_rate(instance)
    with pytest.raises(ValueError, match=message):
        compare_solvers(CFG, n_seeds=1, k_max=5, population=4, instance=instance)


def test_one_finite_rate_limit_bounds_a_fleet_of_unlimited_evs():
    instance = build_instance(CFG)
    instance.fleet.rate_max_kw[:] = np.inf
    instance.fleet.rate_max_kw[3] = 2.5
    rate, _ = run_optimization(instance.fleet, instance.costs, k_max=5)
    assert 0.0 <= rate <= 2.5
    assert 0.0 <= oracle_rate(instance)[0] <= 2.5


def test_solver_order_holds_within_rounding_only():
    tie = 0.09973861073983782, 0.09973861073983777  # one rate, two summation orders
    assert solver_order_holds(CompareRow(0, tie[0], tie[1], tie[1]), n_evs=6)
    assert solver_order_holds(CompareRow(0, tie[0], tie[0], tie[1]), n_evs=6)
    assert solver_order_holds(CompareRow(0, -2.0, -1.0, 0.5), n_evs=6)
    # beyond (N + 1) * 8 * eps * max(1, |value|) an order fails as before
    eps = np.finfo(float).eps
    assert not solver_order_holds(CompareRow(0, 1.0 + 7 * 8 * eps * 2, 1.0, 1.0), n_evs=6)
    assert not solver_order_holds(CompareRow(0, 1.0, 1.0, 1.0 - 7 * 8 * eps * 2), n_evs=6)
    assert not solver_order_holds(CompareRow(0, -1e6, -1e6 + 1.0, -1e6 - 1.0), n_evs=6)
