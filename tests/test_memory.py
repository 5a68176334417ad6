"""Retained memory of instances and run records, measured with tracemalloc.

Each figure is the traced memory still allocated after building the object
(held by the test) minus the memory before, after a warm-up call has filled
any process-wide caches. Deterministic: it counts allocations, not pages.
"""

import gc
import tracemalloc

import pytest

from v2gdispatch.baselines import cwoa_solve, gwo_solve, make_penalized_fitness
from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.costs import grid_search_rate
from v2gdispatch.fleet import sample_fleet
from v2gdispatch.harness import run_seed
from v2gdispatch.orchestrator import DepartureEvent, run_optimization, run_scenario
from v2gdispatch.records import export_run, import_run
from v2gdispatch.topology import build_topology

KB = 1024
MB = 1024 * KB


def _retained_bytes(make) -> int:
    make()  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return after - before


def test_default_instance_is_compact():
    size = _retained_bytes(lambda: build_instance(ScenarioConfig()))
    assert size < 16 * KB, size


def test_five_default_epoch_records_are_compact():
    instance = build_instance(ScenarioConfig())

    def five_records():
        return [run_optimization(instance.fleet, instance.costs, seed=run_seed(42, j))[1]
                for j in range(5)]

    size = _retained_bytes(five_records)
    assert size < 25 * KB, size


def _scenario_record():
    # 1000 EVs, 100 steps, a quarter of the fleet leaving at each of 0.25/0.5/0.75 h;
    # every EV's SOC is recorded at every step (800 KB as plain float64 rows)
    config = ScenarioConfig(n_evs=1000, horizon_h=1.0, dt_h=0.01)
    events = tuple(DepartureEvent(time_h=0.25 * (q + 1), ev_ids=tuple(range(250 * q, 250 * (q + 1))))
                   for q in range(3))
    instance = build_instance(config)
    return run_scenario(instance.fleet, instance.costs, dt_h=config.dt_h,
                        horizon_h=config.horizon_h, events=events, seed=config.seed)


def test_scenario_record_is_compact():
    size = _retained_bytes(_scenario_record)
    assert size < 100 * KB, size


def test_topology_is_integer_rows_and_leaves_nothing_behind():
    # 20 000 EVs: ids, indptr and targets are about 0.64 MB; no per-EV
    # object is built, so none is cached for later epochs either
    fleet = sample_fleet(20_000, 0)
    build_topology(sample_fleet(10, 0), rng=0)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        topology = build_topology(fleet, rng=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        del topology
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < MB, held
    assert left < 64 * KB, left


def _peak_bytes(call) -> int:
    """Traced peak during ``call()`` above the memory allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def test_record_export_and_import_stream(tmp_path):
    # the record above is a 1.9 MB CSV: writing and reading it holds one
    # row at a time, not the whole text or a list of its lines
    record = _scenario_record()
    path = tmp_path / "run.csv"
    export_run(record, path)  # warm-up
    assert _peak_bytes(lambda: export_run(record, path)) < MB
    assert path.stat().st_size > MB
    assert _peak_bytes(lambda: import_run(path)) < MB


def test_epoch_peak_is_bounded():
    # one epoch at N = 2 000, M = 10, where one (N+1) x M matrix is 160 KB:
    # the cost matrix holds eight (five spread coefficients and three
    # buffers), the wire three and the masks two (a one-round fraction block
    # and the flat share destinations), and an iteration may add about one
    # more. 2.26 MB (14.8 matrices) at the time of writing, 2.09 MB before the
    # fifth spread coefficient; two more wire buffers (separate kept shares
    # and sends) would take it past the bound
    instance = build_instance(ScenarioConfig(n_evs=2000))

    def epoch():
        return run_optimization(instance.fleet, instance.costs, k_max=20, seed=0)

    epoch()  # warm-up
    peak = _peak_bytes(epoch)
    assert peak <= 2.5 * MB, peak


def test_grid_oracle_peak_is_the_grid_plus_block_buffers():
    # N = 1 000 on [0, 6.6]: the 66 001-point grid is 528 KB, and the
    # objective runs on 16 384-point blocks, so each of its buffers is
    # 128 KiB. 1.32 MB at the time of writing
    costs = build_instance(ScenarioConfig(n_evs=1000)).costs

    def oracle():
        return grid_search_rate(costs.ev, costs.agg, 0.0, 6.6)

    oracle()  # warm-up
    peak = _peak_bytes(oracle)
    assert peak <= 1.5 * MB, peak


@pytest.mark.parametrize("solve, size, bound", [
    (gwo_solve, "pack_size", 340 * KB),  # 302 KiB at the time of writing
    (cwoa_solve, "m", 330 * KB),  # 293 KiB at the time of writing
], ids=["gwo", "cwoa"])
def test_baseline_solver_peak_is_bounded(solve, size, bound):
    # population 30 in 100 dimensions, where one (30, 100) array is 23.4 KiB:
    # GWO holds its (3, 2, 30, 100) draws (141 KiB) and the (3, 30, 100)
    # pulls, CWOA its (30, 201) draws and four (30, 100) work arrays
    costs = build_instance(ScenarioConfig(n_evs=100)).costs
    fitness = make_penalized_fitness(costs.ev, costs.agg, 0.0, 6.6)

    def run():
        return solve(100, fitness, **{size: 30}, k_max=300, seed=0)

    run()  # warm-up
    peak = _peak_bytes(run)
    assert peak <= bound, peak
