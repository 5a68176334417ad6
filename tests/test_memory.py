"""Retained memory of instances and run records, measured with tracemalloc.

Each figure is the traced memory still allocated after building the object
(held by the test) minus the memory before, after a warm-up call has filled
any process-wide caches. Deterministic: it counts allocations, not pages.
"""

import gc
import tracemalloc

from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.harness import run_seed
from v2gdispatch.orchestrator import DepartureEvent, run_optimization, run_scenario

KB = 1024


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


def test_scenario_record_is_compact():
    # 1000 EVs, 100 steps, a quarter of the fleet leaving at each of 0.25/0.5/0.75 h;
    # every EV's SOC is recorded at every step (800 KB as plain float64 rows)
    config = ScenarioConfig(n_evs=1000, horizon_h=1.0, dt_h=0.01)
    events = tuple(DepartureEvent(time_h=0.25 * (q + 1), ev_ids=tuple(range(250 * q, 250 * (q + 1))))
                   for q in range(3))

    def record():
        instance = build_instance(config)
        return run_scenario(instance.fleet, instance.costs, dt_h=config.dt_h,
                            horizon_h=config.horizon_h, events=events, seed=config.seed)

    size = _retained_bytes(record)
    assert size < 100 * KB, size
