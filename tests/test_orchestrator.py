"""Protocol loop: selection, epochs, determinism, and the scenario time loop."""

import re
import warnings
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from v2gdispatch import orchestrator, shuffle
from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.costs import (
    AggCostParams,
    CostMatrix,
    CostSet,
    EvCostTable,
    agg_consensus_cost,
    grid_search_rate,
    magnitude_bound,
)
from v2gdispatch.fleet import available_ids, common_rate_bounds
from v2gdispatch.orchestrator import (
    DepartureEvent,
    ecn_select_best,
    run_optimization,
    run_scenario,
)
from v2gdispatch.records import FORMAT_TAG, HEADER, export_run, import_run
from v2gdispatch.shuffle import MaskBlocks, ProtocolError, from_units_array, wire_bound
from v2gdispatch.topology import build_topology

from test_dwoa import reference_advance, reference_pool

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


def test_select_best_runs_on_the_exact_int_totals():
    # int64 totals one unit apart above 2**53 map to one float, yet the
    # select reads them as Python ints and picks the smaller
    totals = np.array([2**53 + 1, 2**53], dtype=np.int64)
    assert from_units_array(totals, 0)[0] == from_units_array(totals, 0)[1]
    assert ecn_select_best(totals.tolist()) == 1
    assert ecn_select_best((totals * 4).tolist()) == 1


def test_epoch_selects_and_records_on_the_exact_totals(monkeypatch):
    # three int64 totals, the first two one unit apart above 2**53: as
    # floats they tie and index 0 would win; the epoch picks index 1 and
    # records that total's currency value
    inst = build_instance(ScenarioConfig(n_evs=5, seed=3))
    totals = np.array([2**53 + 1, 2**53, 2**54], dtype=np.int64)
    monkeypatch.setattr(orchestrator, "candidate_totals", lambda units: totals)
    _, record = run_optimization(inst.fleet, inst.costs, m_whales=3, k_max=1, seed=0)
    (row,) = record.iterations
    assert row.selected_index == 1
    assert row.best_total_cost == 2**53 * 2.0**-40


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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_wire_bound_holds_every_column_sum_of_units(data):
    # any signs the cost tables allow, each coefficient at its own scale so
    # that any one term can dominate, any rate bounds and candidates in them,
    # the upper bound among them: no column of quantised units sums beyond
    # the epoch's bound
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(1, 6), label="m")
    unit_bits = data.draw(st.integers(8, 48), label="unit_bits")

    def draw(label, size, lo, hi):
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label=f"{label} scale")
        return data.draw(hnp.arrays(np.float64, size, elements=st.floats(lo, hi)),
                         label=label) * scale

    ev = EvCostTable(draw("alpha", n, 1e-9, 1.0), draw("beta", n, -1.0, 1.0),
                     draw("gamma", n, -1.0, 1.0), draw("other", n, 0.0, 1.0),
                     *draw("price", 1, 0.0, 1.0),
                     data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 1.0)),
                               label="eta"))
    agg = AggCostParams(*draw("gen_a", 1, 1e-9, 1.0), *draw("gen_b", 1, -1.0, 1.0),
                        *draw("gen_c", 1, -1.0, 1.0), *draw("omega", 1, 0.0, 1.0))
    lower = data.draw(st.floats(0.0, 10.0), label="lower")
    upper = lower + data.draw(st.floats(0.0, 10.0), label="width")
    drawn = data.draw(hnp.arrays(np.float64, m - 1, elements=st.floats(lower, upper)),
                      label="rates")
    rates = np.append(drawn, upper)
    bound = wire_bound(magnitude_bound(ev, agg, upper), n + 1, unit_bits)
    # exact Python ints, wherever int64 would have wrapped
    scaled = np.rint(CostMatrix(ev, agg, m, unit_bits)(rates))
    for column in scaled.T.tolist():
        assert sum(abs(int(u)) for u in column) <= bound


def _instance_with_wire_bound(relative):
    """A 16-EV instance at default costs but gen_c, set so that its epoch's
    wire bound at 48 unit bits is 2**63 * (1 + relative). The aggregator's
    constant then dominates every column, so the reports sum to almost the
    bound at every candidate."""
    inst = build_instance(ScenarioConfig(n_evs=16, seed=5, m_whales=4, unit_bits=48))
    ev, agg = inst.costs.ev, inst.costs.agg
    upper = common_rate_bounds(inst.fleet, available_ids(inst.fleet))[1]
    rest = magnitude_bound(ev, replace(agg, gen_c=0.0), upper)
    target = (2.0**63 * (1.0 + relative) - 0.5 * 17) / (2.0**48 * (1.0 + 2.0**-20))
    costs = CostSet(ev, replace(agg, gen_c=target - rest))
    bound = wire_bound(magnitude_bound(ev, costs.agg, upper), 17, 48)
    assert bound == pytest.approx(2.0**63 * (1.0 + relative), rel=2.0**-45)
    return inst.fleet, costs


def test_epoch_with_wire_bound_just_below_int64_runs_exactly(monkeypatch):
    fleet, costs = _instance_with_wire_bound(-(2.0**-30))
    reports = []
    totals = orchestrator.candidate_totals

    def recording_totals(units):
        reports.append((units.tolist(), totals(units).tolist()))
        return totals(units)

    monkeypatch.setattr(orchestrator, "candidate_totals", recording_totals)
    records = [run_optimization(fleet, costs, m_whales=4, k_max=5, seed=0, unit_bits=48,
                                shuffle_enabled=shuffle_enabled)[1]
               for shuffle_enabled in (True, False)]
    assert len(reports) == 10
    for units, got in reports:
        assert got == [sum(column) for column in zip(*units)]
        assert min(got) > 2**62  # within a factor 2 of the int64 limit
    # masked or not, the reports add up to the same totals
    assert [got for _, got in reports[:5]] == [got for _, got in reports[5:]]
    assert records[0].iterations.segments[0].best_total_cost.tobytes() == \
        records[1].iterations.segments[0].best_total_cost.tobytes()


def test_epoch_with_wire_bound_just_above_int64_is_refused_before_the_pool(monkeypatch):
    fleet, costs = _instance_with_wire_bound(2.0**-30)
    calls = []
    monkeypatch.setattr(orchestrator, "init_pool", lambda *args: calls.append(args))
    with pytest.raises(ProtocolError, match="beyond the int64 wire at 48 unit bits"):
        run_optimization(fleet, costs, m_whales=4, k_max=5, seed=0, unit_bits=48)
    assert calls == []


def test_a_later_epoch_beyond_the_int64_wire_names_unit_bits():
    # EV 3's rate_max_kw of 1 kW caps the first epoch; once it departs, the
    # common upper bound rises to 6.6 kW and the aggregator's gen_a * D**2
    # with it, past the int64 wire at 48 unit bits
    inst = build_instance(ScenarioConfig(n_evs=16, seed=5, gen_a=50.0))
    fleet, costs = inst.fleet, inst.costs
    fleet.rate_max_kw[3] = 1.0
    rest = [i for i in range(16) if i != 3]
    fits = [wire_bound(magnitude_bound(costs.ev.take(ids), costs.agg, upper), len(ids) + 1, 48)
            < 2.0**63 for ids, upper in ((range(16), 1.0), (rest, 6.6))]
    assert fits == [True, False]
    with pytest.raises(ProtocolError, match=r"^epoch 1: unit_bits: reports .* beyond the int64 "
                                            r"wire at 48 unit bits; the largest that fits is 44$"):
        run_scenario(fleet, costs, dt_h=0.1, horizon_h=0.3, m_whales=4, k_max=5, seed=0,
                     events=(DepartureEvent(time_h=0.1, ev_ids=(3,)),), unit_bits=48)


@pytest.mark.parametrize("field, value", [("gen_c", 1e300), ("alpha_deg", 1e300),
                                          ("gen_a", 1e307), ("beta_deg", 1e307)])
def test_a_coefficient_that_overflows_when_scaled_is_refused_without_a_warning(field, value):
    # 1e300 * 2**48 is beyond float64: the wire bound refuses the epoch
    # before any coefficient is scaled, so nothing overflows in numpy; at
    # 1e307 a term of the bound itself is beyond float64, and the bound is inf
    inst = build_instance(CFG)
    costs = inst.costs
    if field.startswith("gen"):
        costs = CostSet(costs.ev, replace(costs.agg, **{field: value}))
    else:
        getattr(costs.ev, field)[2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError, match="^epoch 0: unit_bits: .* beyond the int64 wire "
                                                "at 48 unit bits; no value in \\[8, 48\\] fits$"):
            run_optimization(inst.fleet, costs, m_whales=4, k_max=3, seed=0, unit_bits=48)


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


def test_negative_k_max_raises(instance):
    for k_max in (-1, -5):
        with pytest.raises(ValueError, match=f"k_max must be >= 0, got {k_max}"):
            run_optimization(instance.fleet, instance.costs, m_whales=6, k_max=k_max, seed=3)


@pytest.mark.parametrize("setting, value", [
    ("m_whales", -3), ("m_whales", 0), ("k_max", -1), ("unit_bits", -1), ("unit_bits", 7),
    ("unit_bits", 49), ("topology_policy", "mesh"), ("m_whales", 2**60),
])
def test_run_settings_refused_before_the_fleet_is_read(instance, monkeypatch, setting, value):
    def unread(*args):
        raise AssertionError("the fleet was read")

    monkeypatch.setattr(orchestrator, "available_ids", unread)
    with pytest.raises(ValueError, match=setting):
        run_optimization(instance.fleet, instance.costs, seed=3, **{setting: value})
    with pytest.raises(ValueError, match=setting):
        run_scenario(instance.fleet, instance.costs, seed=3, **{setting: value})
    assert instance.fleet.time_h == 0.0


@pytest.mark.parametrize("setting, value", [("m_whales", 0), ("topology_policy", "mesh"),
                                            ("m_whales", 2**60)])
def test_run_settings_refused_on_an_empty_fleet(instance, setting, value):
    for ev in instance.fleet.evs:
        ev.departed = True
    with pytest.raises(ValueError, match=setting):
        run_optimization(instance.fleet, instance.costs, seed=4, **{setting: value})


def test_empty_fleet_returns_zero_with_flag(instance, tmp_path):
    # no flag: an empty fleet's record is the one with no iteration rows,
    # and its export is the header alone
    for ev in instance.fleet.evs:
        ev.departed = True
    rate, record = run_optimization(instance.fleet, instance.costs, seed=4)
    assert rate == 0.0
    assert not record.iterations
    path, again = tmp_path / "empty.csv", tmp_path / "again.csv"
    export_run(record, path)
    assert path.read_text() == f"{FORMAT_TAG}\n{HEADER}\n"
    export_run(import_run(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_pool_moves_only_between_evaluations(instance, monkeypatch):
    # max(k_max, 1) evaluations and one move between each two of them: none
    # after the last, which nothing would read
    moves = []
    advance = orchestrator.advance_pool

    def counting(pool, rng):
        moves.append(None)
        advance(pool, rng)

    monkeypatch.setattr(orchestrator, "advance_pool", counting)
    for k_max, expected in ((0, 0), (1, 0), (2, 1), (40, 39)):
        moves.clear()
        _, record = run_optimization(instance.fleet, instance.costs, m_whales=4, k_max=k_max,
                                     seed=6)
        assert len(record.iterations) == max(k_max, 1)
        assert len(moves) == expected


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


def test_an_epoch_that_does_not_mask_builds_no_topology(instance, monkeypatch):
    def epoch():
        rate, record = run_optimization(instance.fleet, instance.costs, m_whales=4, k_max=20,
                                        seed=3, shuffle_enabled=False)
        return rate, [row.selected_index for row in record.iterations]

    expected = epoch()

    def refuse(*args, **kwargs):
        raise AssertionError("build_topology called by an epoch that does not mask")

    monkeypatch.setattr(orchestrator, "build_topology", refuse)
    assert epoch() == expected


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


def test_two_epoch_record_indexes_as_its_exported_rows(instance, tmp_path):
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.6,
        events=(DepartureEvent(time_h=0.3, ev_ids=tuple(range(6, 12))),),
        m_whales=4, k_max=40, seed=8,
    )
    path = tmp_path / "run.csv"
    export_run(record, path)
    exported = [line.split(",")[1:7] for line in path.read_text().splitlines()
                if line.startswith("iter,")]
    log = record.iterations
    n = len(log)
    assert len(log.segments) == 2 and n == len(exported)

    def fields(row):
        return [str(row.epoch), str(row.k), str(row.selected_index), repr(row.best_rate_kw),
                repr(row.best_total_cost), str(row.n_available)]

    assert [fields(log[i]) for i in range(n)] == exported
    assert [fields(log[i - n]) for i in range(n)] == exported
    assert log[-1] == list(log)[-1]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            log[index]
    with pytest.raises(TypeError):
        log[1.5]
    # a slice gives its rows as a list, the same as slicing list(log)
    rows = list(log)
    for index in (slice(0, 2), slice(None), slice(1, None, 3), slice(-5, -1),
                  slice(None, None, -1), slice(-2, 2, -4), slice(n + 3, None), slice(2, 0)):
        assert log[index] == rows[index], index


def test_scenario_record_is_its_epochs_in_order(instance, monkeypatch):
    # two departures, three epochs: the scenario's iteration rows are the
    # epochs' rows back to back and its oracle calls are their sums
    epochs = []
    optimize = orchestrator.run_optimization

    def capture(*args, **kwargs):
        rate, record = optimize(*args, **kwargs)
        epochs.append((rate, record))
        return rate, record

    monkeypatch.setattr(orchestrator, "run_optimization", capture)
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.6,
        events=(DepartureEvent(time_h=0.2, ev_ids=(0, 1, 2)),
                DepartureEvent(time_h=0.4, ev_ids=(3, 4))),
        m_whales=4, k_max=40, seed=8,
    )
    assert len(epochs) == 3
    assert list(record.iterations) == [row for _, e in epochs for row in e.iterations]
    assert [row.epoch for row in record.iterations] == [0] * 40 + [1] * 40 + [2] * 40
    assert record.oracle_calls_ev == sum(e.oracle_calls_ev for _, e in epochs) > 0
    assert record.oracle_calls_agg == sum(e.oracle_calls_agg for _, e in epochs) > 0
    assert list(record.steps.rate_kw) == [rate for rate, _ in epochs for _ in range(2)]


def test_scenario_optimizes_on_every_change_the_empty_fleet_included(instance, monkeypatch):
    # three available sets, the last one empty: one epoch each
    calls = []
    optimize = orchestrator.run_optimization

    def counting(fleet, *args, **kwargs):
        calls.append(available_ids(fleet))
        return optimize(fleet, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_optimization", counting)
    record = run_scenario(
        instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.6,
        events=(DepartureEvent(time_h=0.2, ev_ids=tuple(range(6))),
                DepartureEvent(time_h=0.4, ev_ids=tuple(range(6, 12)))),
        m_whales=4, k_max=10, seed=8,
    )
    assert calls == [list(range(12)), list(range(6, 12)), []]
    assert [row.epoch for row in record.iterations] == [0] * 10 + [1] * 10
    assert list(record.steps.rate_kw)[4:] == [0.0, 0.0]


def test_a_fleet_that_departs_whole_leaves_the_epochs_before_it_unchanged():
    # the empty fleet's epoch adds no iteration row and no oracle call: the
    # run matches the same run cut off before the departure
    cfg = ScenarioConfig(n_evs=6, seed=3, m_whales=4, k_max=5)
    runs = []
    for horizon_h, events in ((0.6, (DepartureEvent(time_h=0.3, ev_ids=tuple(range(6))),)),
                              (0.3, ())):
        instance = build_instance(cfg)
        runs.append(run_scenario(instance.fleet, instance.costs, dt_h=0.1,
                                 horizon_h=horizon_h, events=events, m_whales=4, k_max=5,
                                 seed=8))
    whole, cut = runs
    assert len(whole.iterations) == 5
    assert list(whole.iterations) == list(cut.iterations)
    assert (whole.oracle_calls_ev, whole.oracle_calls_agg) == (cut.oracle_calls_ev,
                                                                cut.oracle_calls_agg)
    assert list(whole.steps.rate_kw) == list(cut.steps.rate_kw) + [0.0] * 3


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
    with pytest.raises(ValueError, match="horizon_h.*dt_h"):  # 1e300 steps would never end
        run_scenario(instance.fleet, instance.costs, dt_h=1e-290, horizon_h=1e10)
    assert instance.fleet.time_h == 0.0


@pytest.mark.parametrize("dt_h, horizon_h", [(1.0, 0.4), (0.1, 0.25)])
def test_scenario_refuses_a_horizon_of_no_whole_number_of_steps(instance, monkeypatch,
                                                                dt_h, horizon_h):
    # 0.4 steps and 2.5 steps would round to a horizon of 0 and of 2 steps
    fleet = instance.fleet
    before = [getattr(fleet, name).copy() for name in ("soc", "departed")]
    monkeypatch.setattr(orchestrator, "run_optimization",
                        lambda *args, **kwargs: pytest.fail("an epoch ran"))
    with pytest.raises(ValueError, match=f"horizon_h = {horizon_h} is not a whole number"):
        run_scenario(fleet, instance.costs, dt_h=dt_h, horizon_h=horizon_h)
    assert fleet.time_h == 0.0
    assert all(np.array_equal(getattr(fleet, name), col)
               for name, col in zip(("soc", "departed"), before))


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


@pytest.mark.parametrize("dt_h, time_h, step", [
    (0.1, 292.0, 2920),  # where the summed clock reads 291.9999999999979
    (0.01, 0.07, 7),  # 0.07 / 0.01 reads 7.000000000000001
])
def test_departure_fires_at_its_step(dt_h, time_h, step):
    instance = build_instance(ScenarioConfig(n_evs=2, seed=3, m_whales=2, k_max=2))
    fleet = instance.fleet
    fleet.rate_min_kw[:] = fleet.rate_max_kw[:] = 0.001  # pinned: the power tracks departures
    record = run_scenario(fleet, instance.costs, dt_h=dt_h, horizon_h=(step + 2) * dt_h,
                          events=(DepartureEvent(time_h=time_h, ev_ids=(1,)),),
                          m_whales=2, k_max=2, seed=1)
    power = record.steps.grid_power_kw.tolist()
    assert len(power) == step + 2
    assert power[step - 2] == power[step - 1] > power[step] == power[step + 1]
    assert {row.epoch: row.n_available for row in record.iterations} == {0: 2, 1: 1}


@pytest.mark.parametrize("event, problem", [
    (DepartureEvent(0.2, (-1,)), r"\[0, 12\)"),
    (DepartureEvent(0.2, (12,)), r"\[0, 12\)"),
    (DepartureEvent(0.2, (0, 12)), r"\[0, 12\)"),
    (DepartureEvent(0.2, (0, 2**70)), r"\[0, 12\)"),
    (DepartureEvent(0.5, (1.5,)), r"integers in \[0, 12\)"),
    (DepartureEvent(0.5, (2.9,)), r"integers in \[0, 12\)"),
    (DepartureEvent(0.5, ("2",)), r"integers in \[0, 12\)"),
    (DepartureEvent(0.5, (True,)), r"integers in \[0, 12\)"),
    (DepartureEvent(0.5, (0, np.bool_(True))), r"integers in \[0, 12\)"),
    (DepartureEvent(float("nan"), (3,)), "finite"),
    (DepartureEvent(float("inf"), (3,)), "finite"),
    (DepartureEvent(-float("inf"), (3,)), "finite"),
], ids=["id-1", "id-N", "ids-0-N", "id-2**70", "id-1.5", "id-2.9", "id-str", "id-True",
        "id-np.True", "nan", "inf", "-inf"])
def test_scenario_rejects_a_bad_departure_event(instance, event, problem):
    with pytest.raises(ValueError, match=re.escape(str(event)) + ".*" + problem):
        run_scenario(instance.fleet, instance.costs, dt_h=0.1, horizon_h=0.5,
                     events=(event,), m_whales=4, k_max=5, seed=7)
    assert instance.fleet.time_h == 0.0 and not instance.fleet.departed.any()


def test_scenario_takes_numpy_integer_departure_ids(instance):
    def departed_after(ids):
        fleet = build_instance(CFG).fleet
        run_scenario(fleet, instance.costs, dt_h=0.1, horizon_h=0.3,
                     events=(DepartureEvent(0.1, ids),), m_whales=2, k_max=2, seed=7)
        return np.flatnonzero(fleet.departed).tolist()

    assert departed_after((np.int64(3), np.uint8(5))) == departed_after((3, 5)) == [3, 5]


def _reference_masks(topology, m, fraction_rng, route_rng):
    """One round's masks drawn on their own, allocating as they go: every
    row's kept fractions, random((rows, m)), from the fraction stream, and
    one out-edge per candidate for the aggregator's row 0, integers(degree,
    size=m), from the route stream; every EV row sends to its one target."""
    indptr, targets = topology.indptr, topology.targets
    assert (np.diff(indptr)[1:] == 1).all()
    picked = targets[indptr[:-1], None].repeat(m, axis=1)
    picked[0] = targets[route_rng.integers(indptr[1], size=m)]
    return fraction_rng.random((len(topology.ids), m)), picked * m + np.arange(m)


def _reference_round(units, fractions, destinations):
    """One mask round: each row keeps rint(f * u) and sends the rest."""
    kept = np.rint(fractions * units).astype(np.int64)
    masked = kept.copy()
    np.add.at(masked.reshape(-1), destinations.reshape(-1), (units - kept).reshape(-1))
    return masked


def _reference_epoch(fleet, costs, m, k_max, seed, shuffle_enabled, policy, unit_bits):
    """One epoch with each step separate and freshly allocated: costs,
    quantisation, the exact per-column headroom check, one round, column
    sums. The masks are drawn a round at a time, in order, from the fraction
    and the route streams, and the pool starts from numpy's ``uniform`` and
    moves by ``test_dwoa``'s scalar reference, one numpy Generator draw at a
    time. Returns the rate, the record columns, the oracle calls and the
    reported matrix of every iteration."""
    avail = available_ids(fleet)
    lower, upper = common_rate_bounds(fleet, avail)
    topo_ss, dwoa_ss, fraction_ss, route_ss = np.random.SeedSequence(seed).spawn(4)
    dwoa_rng, fraction_rng, route_rng = map(np.random.default_rng, (dwoa_ss, fraction_ss,
                                                                  route_ss))
    topology = build_topology(fleet, policy, np.random.default_rng(topo_ss))
    ev, agg = costs.ev.take(avail), costs.agg
    alpha, beta, gamma, other = (column[:, None] for column in ev.columns())
    price = ev.price
    n_iterations = max(k_max, 1)
    pool = reference_pool(m, lower, upper, n_iterations, dwoa_rng)
    columns = (array("i"), array("d"), array("d"))
    reported = []
    for k in range(n_iterations):
        r = pool.positions
        ev_values = alpha * r * r + beta * r + gamma + other - price * r
        values = np.vstack([agg_consensus_cost(r, ev, agg), ev_values])
        scaled = np.rint(values * 2.0**unit_bits)
        if not np.abs(scaled).max() < 2.0**63:
            raise ProtocolError("beyond the int64 wire")
        units = scaled.astype(np.int64)
        if any(sum(abs(u) for u in column) >= 2**63 for column in units.T.tolist()):
            raise ProtocolError("beyond the int64 headroom")
        if shuffle_enabled:
            units = _reference_round(units, *_reference_masks(topology, m, fraction_rng,
                                                              route_rng))
        reported.append(units.tobytes())
        totals = units.sum(axis=0) * 2.0**-unit_bits
        selected = ecn_select_best(totals.tolist())
        pool.record_evaluation(totals, selected)
        for column, value in zip(columns, (selected, pool.best_rate, pool.best_value)):
            column.append(value)
        if k_max > 0:
            reference_advance(pool, dwoa_rng)
    calls = (len(avail) * m * n_iterations, m * n_iterations)
    return pool.best_rate, columns, calls, reported


_SIZES = [(n, m) for n in (1, 2, 5, 100, 1000) for m in (1, 2, 10, 30)]


@pytest.mark.parametrize(
    "n, m, unit_bits", [(n, m, (16, 40, 48)[i % 3]) for i, (n, m) in enumerate(_SIZES)]
)
def test_epoch_matches_the_written_out_reference(n, m, unit_bits, monkeypatch):
    # the epoch runs in buffers it holds; the reference allocates every step.
    # Both must agree on every reported matrix, not only on the totals the
    # record sees: the masking draws never reach the record.
    instance = build_instance(ScenarioConfig(n_evs=n, seed=n + m))
    reported = []
    totals = orchestrator.candidate_totals

    def recording_totals(units):
        reported.append(units.tobytes())
        return totals(units)

    monkeypatch.setattr(orchestrator, "candidate_totals", recording_totals)
    for policy in ("one-random-neighbor", "ring"):
        for shuffle_enabled in (True, False):
            for seed in range(3):
                args = (m, 6, seed, shuffle_enabled, policy, unit_bits)
                rate, columns, calls, expected = _reference_epoch(
                    instance.fleet, instance.costs, *args)
                reported.clear()
                got, record = run_optimization(
                    instance.fleet, instance.costs, m_whales=m, k_max=6, seed=seed,
                    shuffle_enabled=shuffle_enabled, topology_policy=policy,
                    unit_bits=unit_bits)
                assert got == rate
                (segment,) = record.iterations.segments
                assert [c.tobytes() for c in (segment.selected_index, segment.best_rate_kw,
                                              segment.best_total_cost)] == [
                    c.tobytes() for c in columns]
                assert (record.oracle_calls_ev, record.oracle_calls_agg) == calls
                assert reported == expected


def test_the_block_size_moves_neither_the_masks_nor_the_record(instance, monkeypatch,
                                                                tmp_path):
    # one round a block, the default blocks and one block for the whole epoch
    # read the fraction and route streams alike: the same reports, the same
    # record. At this k_max the default route block (BLOCK_CELLS // M
    # rounds) ends within the epoch, and so do 13 fraction blocks
    k_max = shuffle.BLOCK_CELLS // CFG.m_whales + 5
    reported = []
    totals = orchestrator.candidate_totals

    def recording_totals(units):
        reported.append(units.tobytes())
        return totals(units)

    monkeypatch.setattr(orchestrator, "candidate_totals", recording_totals)
    runs = []
    for cells in (1, shuffle.BLOCK_CELLS, k_max * (CFG.n_evs + 1) * CFG.m_whales):
        monkeypatch.setattr(shuffle, "BLOCK_CELLS", cells)
        reported.clear()
        rate, record = run_optimization(instance.fleet, instance.costs,
                                        m_whales=CFG.m_whales, k_max=k_max, seed=3)
        path = tmp_path / f"{cells}.csv"
        export_run(record, path)
        runs.append((rate, path.read_bytes(), record.oracle_calls_ev, record.oracle_calls_agg,
                     list(reported)))
    assert len(runs[0][-1]) == k_max
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n_evs, m", [(12, 4), (1000, 10)])
def test_the_mask_blocks_hold_at_most_two_block_cells(n_evs, m):
    # the fraction and route blocks together, at any k_max, but a round of
    # more than BLOCK_CELLS fractions (N = 1 000 at M = 10) is a block of its
    # own. Each block holds at least one round and at most the epoch's
    instance = build_instance(ScenarioConfig(n_evs=n_evs, seed=1))
    topology = build_topology(instance.fleet, "one-random-neighbor", 0)
    cells, round_cells = shuffle.BLOCK_CELLS, (n_evs + 1) * m
    rng = np.random.default_rng(0)
    for k_max in (0, 1, 150, 10**9):
        blocks = MaskBlocks(topology, m, max(k_max, 1), rng, rng)
        assert blocks.fractions.shape[1:] == (n_evs + 1, m)
        assert 1 <= len(blocks.fractions) <= max(k_max, 1)
        assert 1 <= len(blocks.routes) <= max(k_max, 1)
        assert blocks.fractions.size <= max(cells, round_cells)
        assert blocks.routes.size <= cells
        if round_cells <= cells:
            assert blocks.fractions.size + blocks.routes.size <= 2 * cells


def test_nan_cost_raises_protocol_error_without_a_warning():
    # the wire check runs before the int64 cast, which would warn on NaN
    instance = build_instance(CFG)
    instance.costs.ev.gamma_deg[3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError):
            run_optimization(instance.fleet, instance.costs, m_whales=4, k_max=3, seed=0)
