"""Statistical harness: hyper-parameter sweeps and solver comparisons.

Every run in a sweep owns an isolated seed derived from (config seed, run
index), so executing runs in any order, or in parallel, yields the same
rows. The scenario instance (fleet + cost draws) is sampled once per sweep
from the config seed and shared by all runs; only the algorithm randomness
varies, matching how converged-rate statistics are normally reported.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import cwoa_solve, gwo_solve, make_penalized_fitness, penalized_fitness
from .config import Instance, ScenarioConfig, build_instance
from .costs import consensus_objective, grid_search_rate
from .fleet import available_ids, common_rate_bounds
from .orchestrator import run_optimization
from .records import IterationRow, RunRecord, export_run

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

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.std_rate_kw < 0.0:
            raise ValueError("std must be >= 0")


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
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs per sweep point, got {runs}")
    if param not in SWEEPABLE:
        raise ValueError(f"param must be one of {SWEEPABLE}, got {param!r}")
    if instance is None:
        instance = build_instance(config)
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        kwargs = {
            "m_whales": config.m_whales,
            "k_max": config.k_max,
            "shuffle_enabled": config.shuffle_enabled,
            "topology_policy": config.topology_policy,
            "unit_bits": config.unit_bits,
        }
        kwargs["k_max" if param == "k_max" else "m_whales"] = int(value)
        rates = np.empty(runs)
        times = np.empty(runs)
        for j in range(runs):
            t0 = time.perf_counter()
            rate, record = run_optimization(
                instance.fleet, instance.costs, seed=run_seed(config.seed, j), **kwargs
            )
            times[j] = time.perf_counter() - t0
            rates[j] = rate
            if trace_dir is not None:
                export_run(record, trace_dir / f"{param}_{int(value)}_run{j:04d}.csv")
        rows.append(
            StatsRow(
                param=param,
                value=int(value),
                mean_rate_kw=float(rates.mean()),
                std_rate_kw=float(rates.std()),
                mean_time_s=float(times.mean()),
                runs=runs,
            )
        )
    return rows


def export_stats(rows: list[StatsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", "mean_rate_kw", "std_rate_kw", "mean_time_s", "runs"])
        for row in rows:
            writer.writerow(
                [row.param, row.value, repr(row.mean_rate_kw), repr(row.std_rate_kw),
                 repr(row.mean_time_s), row.runs]
            )


def oracle_rate(instance: Instance, step: float = 1e-4) -> tuple[float, float]:
    """Grid-search ground truth over the available EVs' common-rate interval."""
    avail = available_ids(instance.fleet)
    if not avail:
        raise ValueError("no available EVs")
    costs = instance.costs.restrict(avail)
    lower, upper = common_rate_bounds(instance.fleet, avail)
    return grid_search_rate(costs.ev, costs.agg, lower, upper, step)


def baseline_trace_record(trace, n_available: int, epoch: int = 0) -> RunRecord:
    """Wrap a baseline solver's best-fitness trace in the run-record schema.

    The iteration rows carry the penalized objective per iteration so a
    baseline's convergence overlays directly on a protocol trace; the rate
    column is NaN because the baseline's best is a vector, not one rate.
    """
    record = RunRecord()
    for k, value in enumerate(trace):
        record.iterations.append(
            IterationRow(
                epoch=epoch, k=k, selected_index=0,
                best_rate_kw=float("nan"), best_total_cost=float(value),
                n_available=n_available,
            )
        )
    return record


@dataclass(frozen=True)
class CompareRow:
    """Final objectives of the three solvers for one seed."""

    seed: int
    decentralized_objective: float
    cwoa_objective: float
    gwo_objective: float


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
    the per-seed rows plus the grid-oracle optimum objective.
    """
    if instance is None:
        instance = build_instance(config)
    avail = available_ids(instance.fleet)
    costs = instance.costs.restrict(avail)
    lower, upper = common_rate_bounds(instance.fleet, avail)
    fitness = make_penalized_fitness(costs.ev, costs.agg, config.penalty(), lower, upper)
    dim = len(avail)

    rows = []
    for s in range(n_seeds):
        seed_ss = run_seed(config.seed, s)
        rate, _ = run_optimization(
            instance.fleet,
            instance.costs,
            m_whales=config.m_whales,
            k_max=k_max,
            seed=seed_ss,
            shuffle_enabled=config.shuffle_enabled,
            topology_policy=config.topology_policy,
            unit_bits=config.unit_bits,
        )
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
                cwoa_objective=penalized_fitness(cwoa_vec, costs, config.penalty(), lower, upper),
                gwo_objective=penalized_fitness(gwo_vec, costs, config.penalty(), lower, upper),
            )
        )
    _, oracle_objective = oracle_rate(instance)
    return rows, oracle_objective


def export_comparison(rows: list[CompareRow], oracle_objective: float, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "decentralized_objective", "cwoa_objective",
                         "gwo_objective", "oracle_objective"])
        for row in rows:
            writer.writerow(
                [row.seed, repr(row.decentralized_objective), repr(row.cwoa_objective),
                 repr(row.gwo_objective), repr(oracle_objective)]
            )
