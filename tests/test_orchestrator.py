"""Protocol loop: selection, epochs, determinism, and the scenario time loop."""

import pytest

from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.costs import grid_search_rate
from v2gdispatch.fleet import available_ids
from v2gdispatch.orchestrator import (
    DepartureEvent,
    ecn_select_best,
    run_optimization,
    run_scenario,
)
from v2gdispatch.shuffle import ProtocolError

# small instance keeps the protocol tests fast
CFG = ScenarioConfig(n_evs=12, seed=5, m_whales=4, k_max=40)


@pytest.fixture()
def instance():
    return build_instance(CFG)


def test_select_best_picks_minimal_total():
    assert ecn_select_best([12.0, 30.0]) == 0
    assert ecn_select_best([30.0, 12.0]) == 1
    assert ecn_select_best([7.5]) == 0


def test_select_best_tie_breaks_to_lowest_index():
    assert ecn_select_best([3.0, 1.0, 1.0]) == 1


def test_select_best_rejects_incomplete_totals():
    with pytest.raises(ProtocolError):
        ecn_select_best([])
    with pytest.raises(ProtocolError):
        ecn_select_best([1.0, None, 2.0])
    with pytest.raises(ProtocolError):
        ecn_select_best([1.0, float("nan")])


def test_select_best_rejects_non_finite_totals():
    for totals in ([float("inf"), float("inf")], [1.0, float("inf")], [float("-inf"), 0.0]):
        with pytest.raises(ProtocolError):
            ecn_select_best(totals)


def test_iteration_beyond_int64_headroom_rejected():
    # at 48 bits each EV value (~2000 currency, ~5.6e17 units) and the
    # aggregator's (~3000, ~8.4e17) fit int64, but 16 EVs plus the aggregator
    # sum to ~9.9e18 units per candidate, past 2**63: the totals would wrap
    cfg = ScenarioConfig(n_evs=16, seed=5, m_whales=4, k_max=5, gen_c=3000.0, unit_bits=48,
                         other_range=(2000.0, 2001.0))
    inst = build_instance(cfg)
    with pytest.raises(ProtocolError):
        run_optimization(inst.fleet, inst.costs, m_whales=4, k_max=5, seed=0, unit_bits=48)


def test_large_fleet_within_int64_headroom_runs():
    # the aggregator row grows as N**2 (~2.8e3 currency, ~3.1e15 units at
    # N = 4000): N + 1 times the largest value passes 2**63, yet every
    # column sum stays far below it, so the epoch is exact
    inst = build_instance(ScenarioConfig(n_evs=4000, seed=5))
    rate, record = run_optimization(inst.fleet, inst.costs, m_whales=4, k_max=2, seed=0)
    assert 0.0 <= rate <= 6.6
    assert len(record.iterations) == 2


def test_run_optimization_converges_to_grid_oracle(instance):
    avail = available_ids(instance.fleet)
    costs = instance.costs.restrict(avail)
    oracle_rate, _ = grid_search_rate(costs.ev, costs.agg, 0.0, 6.6)
    rate, record = run_optimization(
        instance.fleet, instance.costs, m_whales=8, k_max=120, seed=1
    )
    assert abs(rate - oracle_rate) <= 1e-2
    assert record.iterations[-1].best_rate_kw == rate


def test_iteration_rows_and_accounting(instance):
    rate, record = run_optimization(
        instance.fleet, instance.costs, m_whales=4, k_max=40, seed=2
    )
    assert len(record.iterations) == 40
    assert [row.k for row in record.iterations] == list(range(40))
    assert all(row.epoch == 0 for row in record.iterations)
    assert all(row.n_available == 12 for row in record.iterations)
    assert all(0 <= row.selected_index < 4 for row in record.iterations)
    # every agent prices every candidate at every iteration
    assert record.oracle_calls_ev == 12 * 4 * 40
    assert record.oracle_calls_agg == 4 * 40
    # elitist best total never increases
    totals = [row.best_total_cost for row in record.iterations]
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_kmax_zero_evaluates_initial_pool_once(instance):
    rate, record = run_optimization(
        instance.fleet, instance.costs, m_whales=6, k_max=0, seed=3
    )
    assert len(record.iterations) == 1
    assert record.iterations[0].k == 0
    assert 0.0 <= rate <= 6.6


def test_empty_fleet_returns_zero_with_flag(instance):
    for ev in instance.fleet.evs:
        ev.departed = True
    rate, record = run_optimization(instance.fleet, instance.costs, seed=4)
    assert rate == 0.0
    assert record.empty_fleet
    assert not record.iterations


def test_determinism_same_seed_same_record(instance):
    r1, rec1 = run_optimization(instance.fleet, instance.costs, seed=11)
    r2, rec2 = run_optimization(instance.fleet, instance.costs, seed=11)
    assert r1 == r2
    for a, b in zip(rec1.iterations, rec2.iterations):
        assert (a.selected_index, a.best_rate_kw, a.best_total_cost) == (
            b.selected_index, b.best_rate_kw, b.best_total_cost
        )


def test_shuffle_toggle_never_changes_selection(instance):
    for seed in range(5):
        r_on, rec_on = run_optimization(
            instance.fleet, instance.costs, m_whales=4, k_max=40,
            seed=seed, shuffle_enabled=True,
        )
        r_off, rec_off = run_optimization(
            instance.fleet, instance.costs, m_whales=4, k_max=40,
            seed=seed, shuffle_enabled=False,
        )
        assert r_on == r_off
        assert [r.selected_index for r in rec_on.iterations] == [
            r.selected_index for r in rec_off.iterations
        ]
        assert [r.best_total_cost for r in rec_on.iterations] == [
            r.best_total_cost for r in rec_off.iterations
        ]


def test_rate_respects_tightest_bounds(instance):
    instance.fleet.evs[0].rate_max_kw = 2.0
    rate, _ = run_optimization(instance.fleet, instance.costs, seed=6)
    assert 0.0 <= rate <= 2.0


def test_infeasible_bounds_rejected(instance):
    instance.fleet.evs[0].rate_min_kw = 3.0
    instance.fleet.evs[0].rate_max_kw = 3.0
    instance.fleet.evs[1].rate_max_kw = 2.0
    with pytest.raises(ValueError):
        run_optimization(instance.fleet, instance.costs, seed=0)


def test_negative_rate_bound_rejected(instance):
    # candidates are drawn in [lower, upper]: a negative lower bound is
    # refused before any candidate is scored
    instance.fleet.rate_min_kw[:] = -1.0
    with pytest.raises(ValueError, match=">= 0"):
        run_optimization(instance.fleet, instance.costs, seed=0)


def test_scenario_constant_rate_without_events(instance):
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.5,
        m_whales=4, k_max=40, seed=7,
    )
    assert len(record.steps) == 5
    rates = {row.rate_kw for row in record.steps}
    assert len(rates) == 1  # nothing changed, no re-optimization
    epochs = {row.epoch for row in record.iterations}
    assert epochs == {0}


def test_scenario_departure_triggers_reoptimization(instance):
    half = tuple(range(6, 12))
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.6,
        events=(DepartureEvent(time_h=0.3, ev_ids=half),),
        m_whales=4, k_max=40, seed=8,
    )
    epochs = sorted({row.epoch for row in record.iterations})
    assert epochs == [0, 1]
    steps = list(record.steps)
    early = {row.rate_kw for row in steps[:3]}
    late = {row.rate_kw for row in steps[3:]}
    assert len(early) == 1 and len(late) == 1
    assert early != late
    counts = {row.epoch: row.n_available for row in record.iterations}
    assert counts[0] == 12 and counts[1] == 6
    # departed EVs stop discharging: their soc freezes after the event
    soc_at_event = steps[3].soc
    soc_end = steps[-1].soc
    for i in half:
        assert soc_end[i] == soc_at_event[i]


def test_scenario_grid_power_identity(instance):
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.25, horizon_h=1.0,
        m_whales=4, k_max=30, seed=9,
    )
    fresh = build_instance(CFG).fleet  # same sampling, pre-discharge states
    soc_min = [ev.soc_min for ev in fresh.evs]
    etas = [ev.eta for ev in fresh.evs]
    for row in record.steps:
        avail_eta = sum(
            eta for eta, floor, soc in zip(etas, soc_min, row.soc) if soc >= floor
        )
        assert row.grid_power_kw == row.rate_kw * avail_eta


def test_scenario_soc_monotone_and_time_grid(instance):
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.2, horizon_h=1.0,
        m_whales=4, k_max=30, seed=10,
    )
    times = [row.time_h for row in record.steps]
    assert times == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])
    for i in range(len(instance.fleet.evs)):
        socs = [row.soc[i] for row in record.steps]
        assert all(a >= b for a, b in zip(socs, socs[1:]))


def test_scenario_validates_horizon(instance):
    with pytest.raises(ValueError):
        run_scenario(instance.fleet, instance.costs, horizon_h=0.0)
    with pytest.raises(ValueError):
        run_scenario(instance.fleet, instance.costs, dt_h=-0.1)
    with pytest.raises(ValueError, match="dt_h"):
        run_scenario(instance.fleet, instance.costs, dt_h=float("nan"))
    with pytest.raises(ValueError, match="horizon_h"):
        run_scenario(instance.fleet, instance.costs, horizon_h=float("nan"))
    with pytest.raises(ValueError, match="dt_h"):
        run_scenario(instance.fleet, instance.costs, dt_h=float("inf"))
    with pytest.raises(ValueError, match="horizon_h"):
        run_scenario(instance.fleet, instance.costs, horizon_h=float("inf"))
    with pytest.raises(ValueError, match="horizon_h.*dt_h"):
        run_scenario(instance.fleet, instance.costs, dt_h=1e-300, horizon_h=1e10)
    assert instance.fleet.time_h == 0.0


def test_scenario_rides_through_full_depletion():
    cfg = ScenarioConfig(n_evs=3, seed=13, m_whales=2, k_max=15)
    instance = build_instance(cfg)
    for ev in instance.fleet.evs:  # nearly drained fleet
        ev.soc = ev.soc_min + 0.005
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.5, horizon_h=2.0,
        m_whales=2, k_max=15, seed=1,
    )
    assert len(record.steps) == 4
    last = list(record.steps)[-1]
    assert last.rate_kw == 0.0
    assert last.grid_power_kw == 0.0


def test_scenario_clock_advances_through_empty_steps():
    # the fleet empties after its first step; the clock keeps going and the
    # empty steps record no rate, no power and frozen SOC
    cfg = ScenarioConfig(n_evs=6, seed=13, m_whales=2, k_max=15)
    instance = build_instance(cfg)
    fleet = instance.fleet
    fleet.soc[:] = fleet.soc_min + 0.005
    record = run_scenario(fleet, instance.costs, dt_h=0.5, horizon_h=2.0,
                          m_whales=2, k_max=15, seed=1)
    assert record.steps.time_h.tolist() == [0.0, 0.5, 1.0, 1.5]
    assert fleet.time_h == 2.0
    steps = list(record.steps)
    empty = [j for j, row in enumerate(steps)
             if not any(soc >= floor for soc, floor in zip(row.soc, fleet.soc_min))]
    assert empty and empty == list(range(empty[0], len(steps)))
    for row in steps[empty[0]:]:
        assert row.rate_kw == 0.0 and row.grid_power_kw == 0.0
        assert row.soc == steps[empty[0]].soc
