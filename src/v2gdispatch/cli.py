"""Command line front end.

Verbs:
  run      simulate one scenario and export its trace CSV
  sweep    converged-rate statistics over a k_max or whale-count sweep
  oracle   grid-search ground truth for the configured instance
  compare  decentralized protocol vs both centralized baselines

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    Instance,
    ScenarioConfig,
    build_instance,
    load_config,
    resolve_departures,
)
from .fleet import available_ids, common_rate_bounds
from .harness import (
    SWEEPABLE,
    compare_solvers,
    export_comparison,
    export_stats,
    oracle_rate,
    solver_order_holds,
    stats_harness,
)
from .orchestrator import run_scenario, wire_refusal
from .records import export_run


def _load(args) -> ScenarioConfig:
    if args.config is None:
        return ScenarioConfig()
    return load_config(args.config)


def _build_instance(config: ScenarioConfig) -> Instance:
    """The config's instance, once its first epoch, over every available EV,
    fits the int64 wire at ``unit_bits``; else a ConfigError with the
    reason ``run_optimization`` would refuse it for (``wire_refusal``)."""
    instance = build_instance(config)
    avail = available_ids(instance.fleet)
    if avail:
        reason = wire_refusal(instance.costs.ev.take(avail), instance.costs.agg,
                              common_rate_bounds(instance.fleet, avail)[1], config.unit_bits)
        if reason is not None:
            raise ConfigError(reason)
    return instance


def _out_path(config: ScenarioConfig, override, default_name: str) -> Path:
    if override is not None:
        path = Path(override)
    else:
        path = Path(config.out_dir) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    config = _load(args)
    instance = _build_instance(config)
    events = resolve_departures(config, instance.fleet)
    record = run_scenario(
        instance.fleet,
        instance.costs,
        dt_h=config.dt_h,
        horizon_h=config.horizon_h,
        events=events,
        seed=config.seed,
        **config.solver_kwargs(),
    )
    path = _out_path(config, args.out, "run.csv")
    export_run(record, path)
    last_rate = record.steps.rate_kw[-1] if record.steps else 0.0
    print(f"wrote {path} ({len(record.iterations)} iteration rows, "
          f"{len(record.steps)} step rows; final rate {last_rate:.4f} kW)")
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ValueError(f"{args.param} values must be numbers, got {args.values!r}") from None
    rows = stats_harness(config, args.param, values, args.runs, instance=_build_instance(config))
    path = _out_path(config, args.out, f"sweep_{args.param}.csv")
    export_stats(rows, path)
    for row in rows:
        print(f"{row.param}={row.value}: mean {row.mean_rate_kw:.4f} kW, "
              f"std {row.std_rate_kw:.2e} kW, time {row.mean_time_s:.3f} s "
              f"({row.runs} runs)")
    print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args)
    instance = build_instance(config)
    rate, value = oracle_rate(instance, step=args.step)
    print(f"oracle rate {rate:.4f} kW, objective {value:.6f}")
    return 0


def _cmd_compare(args) -> int:
    config = _load(args)
    instance = _build_instance(config)
    rows, oracle_objective = compare_solvers(
        config, n_seeds=args.seeds, k_max=args.iterations, instance=instance
    )
    path = _out_path(config, args.out, "compare.csv")
    export_comparison(rows, oracle_objective, path)
    n_evs = len(available_ids(instance.fleet))
    wins = sum(solver_order_holds(row, n_evs) for row in rows)
    print(f"oracle objective {oracle_objective:.6f}")
    for row in rows:
        print(f"seed {row.seed}: decentralized {row.decentralized_objective:.6f}, "
              f"cwoa {row.cwoa_objective:.6f}, gwo {row.gwo_objective:.6f}")
    print(f"decentralized <= cwoa <= gwo on {wins}/{len(rows)} seeds; wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2g-bench",
        description="Fair privacy-aware V2G discharge dispatch simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--config", help="JSON scenario config (defaults if omitted)")
    p_run.add_argument("--out", help="trace CSV path")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="statistics over a hyper-parameter sweep")
    p_sweep.add_argument("--config", help="JSON scenario config")
    p_sweep.add_argument("--param", choices=SWEEPABLE, default="k_max")
    p_sweep.add_argument("--values", default="50,100,150,200",
                         help="comma-separated sweep values")
    p_sweep.add_argument("--runs", type=int, default=100, help="runs per sweep point")
    p_sweep.add_argument("--out", help="stats CSV path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force ground truth")
    p_oracle.add_argument("--config", help="JSON scenario config")
    p_oracle.add_argument("--step", type=float, default=1e-4, help="grid step in kW")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_cmp = sub.add_parser("compare", help="protocol vs centralized baselines")
    p_cmp.add_argument("--config", help="JSON scenario config")
    p_cmp.add_argument("--seeds", type=int, default=20, help="number of seeds")
    p_cmp.add_argument("--iterations", type=int, default=300,
                       help="iteration budget for every solver")
    p_cmp.add_argument("--out", help="comparison CSV path")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
