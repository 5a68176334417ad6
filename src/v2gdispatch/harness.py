"""Statistical harness: hyper-parameter sweeps and solver comparisons.

Every run in a sweep owns an isolated seed derived from (config seed, run
index), so executing runs in any order, or in parallel, yields the same
rows. The scenario instance (fleet + cost draws) is sampled once per sweep
from the config seed and shared by all runs; only the algorithm randomness
varies, matching how converged-rate statistics are normally reported.
"""

from __future__ import annotations

import csv
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .baselines import cwoa_solve, gwo_solve, make_penalized_fitness
from .config import Instance, ScenarioConfig, build_instance
from .costs import consensus_objective, grid_search_rate
from .fleet import available_ids, common_rate_bounds
from .orchestrator import run_optimization
from .records import export_run

SWEEPABLE = ("k_max", "m_whales")


@dataclass(frozen=True)
class StatsRow:
    """Converged-rate statistics for one sweep point."""

    param: str
    value: int
    mean_rate_kw: float
    std_rate_kw: float
    mean_time_s: float
    runs: int


def run_seed(config_seed: int, run_index: int) -> np.random.SeedSequence:
    """Isolated algorithm seed for one run of a sweep."""
    return np.random.SeedSequence((config_seed, run_index))


def stats_harness(
    config: ScenarioConfig,
    param: str,
    values,
    runs: int,
    instance: Instance | None = None,
    trace_dir=None,
) -> list[StatsRow]:
    """Sweep ``param`` over ``values`` with ``runs`` isolated-seed runs each.

    With ``trace_dir`` set, every run's trace CSV is written there (one file
    per run), so the rate statistics can be recomputed from the raw traces.
    Each value must be a whole number and no bool, or ValueError names
    ``param``.
    Runs are timed interleaved across the values (run 0 of each value, then
    run 1, ...), so that a machine slowing down or speeding up part-way
    through the sweep does not bias one value's ``mean_time_s``.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs per sweep point, got {runs}")
    if param not in SWEEPABLE:
        raise ValueError(f"param must be one of {SWEEPABLE}, got {param!r}")
    values = list(values)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
               or isinstance(v, float) and v.is_integer() for v in values):
        raise ValueError(f"{param} values must be whole numbers, got {values}")
    values = [int(value) for value in values]
    if instance is None:
        instance = build_instance(config)
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    fixed = config.solver_kwargs()
    rates = np.empty((len(values), runs))
    times = np.empty((len(values), runs))
    # run j of every point, then run j + 1: a drift in machine speed over
    # the sweep then weighs on every point alike
    for j in range(runs):
        for i, value in enumerate(values):
            t0 = time.perf_counter()
            rate, record = run_optimization(
                instance.fleet, instance.costs, seed=run_seed(config.seed, j),
                **{**fixed, param: value},
            )
            times[i, j] = time.perf_counter() - t0
            rates[i, j] = rate
            if trace_dir is not None:
                export_run(record, trace_dir / f"{param}_{value}_run{j:04d}.csv")
    return [
        StatsRow(
            param=param,
            value=value,
            mean_rate_kw=float(rates[i].mean()),
            std_rate_kw=float(rates[i].std()),
            mean_time_s=float(times[i].mean()),
            runs=runs,
        )
        for i, value in enumerate(values)
    ]


def _write_rows(path, row_type, rows, **extra) -> None:
    """CSV of ``rows``: one column per field of ``row_type``, then one per
    ``extra`` value, the same on every row; floats written with ``repr``."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + list(extra))
        for row in rows:
            values = [getattr(row, name) for name in names] + list(extra.values())
            writer.writerow([repr(v) if isinstance(v, float) else v for v in values])


def export_stats(rows: list[StatsRow], path) -> None:
    _write_rows(path, StatsRow, rows)


def _available(instance: Instance):
    """The available EVs' ids, their restricted costs and their common-rate
    bounds; ValueError when no EV is available."""
    avail = available_ids(instance.fleet)
    if not avail:
        raise ValueError("no available EVs")
    return avail, instance.costs.restrict(avail), common_rate_bounds(instance.fleet, avail)


def oracle_rate(instance: Instance, step: float = 1e-4) -> tuple[float, float]:
    """Grid-search ground truth over the available EVs' common-rate interval."""
    _, costs, (lower, upper) = _available(instance)
    return grid_search_rate(costs.ev, costs.agg, lower, upper, step)


@dataclass(frozen=True)
class CompareRow:
    """Final objectives of the three solvers for one seed."""

    seed: int
    decentralized_objective: float
    cwoa_objective: float
    gwo_objective: float


def solver_order_holds(row: CompareRow, n_evs: int) -> bool:
    """Whether decentralized <= cwoa <= gwo holds on ``row``, up to rounding.

    The protocol is scored by ``consensus_objective`` and each baseline by
    its penalised fitness; these add the same N + 1 agent costs in another
    order, so one and the same rate can score a few ulps apart. Each ``<=``
    therefore holds within (N + 1) * 8 * eps * max(1, |a|, |b|).
    """
    def at_most(a: float, b: float) -> bool:
        tol = (n_evs + 1) * 8 * np.finfo(float).eps * max(1.0, abs(a), abs(b))
        return a <= b + tol

    return (at_most(row.decentralized_objective, row.cwoa_objective)
            and at_most(row.cwoa_objective, row.gwo_objective))


def compare_solvers(
    config: ScenarioConfig,
    n_seeds: int = 20,
    k_max: int = 300,
    population: int = 30,
    instance: Instance | None = None,
) -> tuple[list[CompareRow], float]:
    """Run the decentralized protocol against both centralized baselines.

    The decentralized result is scored by the true consensus objective at its
    returned rate; each baseline vector is scored by its penalized objective
    (equal to the true objective once the vector reaches consensus). Returns
    the per-seed rows plus the grid-oracle optimum objective. Before any
    solver runs it refuses ``n_seeds`` < 1 and a ``population`` below 3.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if population < 3:
        raise ValueError(f"population must be >= 3 (GWO's pack), got {population}")
    if instance is None:
        instance = build_instance(config)
    avail, costs, (lower, upper) = _available(instance)
    fitness = make_penalized_fitness(costs.ev, costs.agg, lower, upper)
    dim = len(avail)

    rows = []
    for s in range(n_seeds):
        seed_ss = run_seed(config.seed, s)
        rate, _ = run_optimization(instance.fleet, instance.costs, seed=seed_ss,
                                   **{**config.solver_kwargs(), "k_max": k_max})
        dwoa_obj = float(consensus_objective(rate, costs.ev, costs.agg))
        cwoa_vec, _ = cwoa_solve(
            dim, fitness, m=population, k_max=k_max,
            seed=np.random.SeedSequence((config.seed, 1, s)), lower=lower, upper=upper,
        )
        gwo_vec, _ = gwo_solve(
            dim, fitness, pack_size=population, k_max=k_max,
            seed=np.random.SeedSequence((config.seed, 2, s)), lower=lower, upper=upper,
        )
        rows.append(
            CompareRow(
                seed=s,
                decentralized_objective=dwoa_obj,
                cwoa_objective=float(fitness(cwoa_vec)),
                gwo_objective=float(fitness(gwo_vec)),
            )
        )
    _, oracle_objective = oracle_rate(instance)
    return rows, oracle_objective


def export_comparison(rows: list[CompareRow], oracle_objective: float, path) -> None:
    _write_rows(path, CompareRow, rows, oracle_objective=oracle_objective)
