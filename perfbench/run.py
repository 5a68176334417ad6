"""Benchmark of the v2gdispatch protocol: end-to-end metrics or traced per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sweep-n100 --seed 42 --seconds 20 --trace 0

One process, one closed-loop client, no worker threads. ``--trace 0`` times
units of the workload for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs units untraced for half of ``--seconds``, then the same
units again with every layer boundary traced (see tracer.py), checks that
both passes produce identical output digests, and prints per-layer metrics
per unit plus the tracing overhead. Times are corrected for the machine's
speed at the moment they were taken (see speed.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it give every metric by name and unit, ungated ones marked so,
and a ``detail:`` JSON line (raw times, output digests, environment).
See NOTES.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the installed OpenBLAS is threaded, and the
# baselines' (30 x 100) matmuls would otherwise start worker threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import speed  # noqa: E402  (numpy loads here, after the pinning above)
import tracer as tracer_mod  # noqa: E402

SETUP_REPS = 9
SAMPLE_PERIOD_S = 0.1  # speed samples inside untraced units, see speed.py
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# Per-layer metrics read off the spans, per unit: "<span>.ms" is inclusive
# time, "<span>.self_ms" leaves out direct child spans, "<span>.calls" counts.
SPAN_METRICS = (
    "config.build_instance.ms",
    "costs.evaluate_many.ms", "costs.evaluate_many.calls",
    "costs.consensus_objective.ms", "costs.consensus_objective.calls",
    "shuffle.to_units_array.ms", "shuffle.to_units_array.calls",
    "shuffle.shuffle_round.self_ms", "shuffle.shuffle_round.calls",
    "shuffle.candidate_totals.ms", "shuffle.from_units_array.ms",
    "topology.build_topology.ms", "topology.build_topology.calls", "topology.deliver_round.ms",
    "dwoa.init_pool.ms", "dwoa.advance_pool.ms", "dwoa.advance_pool.calls",
    "dwoa.record_evaluation.ms",
    "orchestrator.run_optimization.self_ms", "orchestrator.ecn_select_best.ms",
    "orchestrator.run_scenario.self_ms",
    "fleet.apply_discharge.ms", "fleet.apply_discharge.calls",
    "fleet.available_ids.ms", "fleet.available_ids.calls", "fleet.grid_power_kw.ms",
    "records.export_run.ms", "records.import_run.ms",
    "harness.oracle_rate.ms", "harness.oracle_rate.calls", "harness.compare_solvers.self_ms",
    "baselines.cwoa_solve.ms", "baselines.gwo_solve.ms",
    "baselines.fitness.ms", "baselines.fitness.calls",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances, for the benchmark's own test")
    return p.parse_args(argv)


def import_package(root: Path):
    src = root / "src"
    if not (src / "v2gdispatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/v2gdispatch; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import v2gdispatch

    return v2gdispatch


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or None when that percentile would not exceed the median."""
    n = len(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank * 2 <= n:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


class Runner:
    """Executes units of one workload and keeps the outcome of every check."""

    def __init__(self, wl, tmp: Path, vd):
        self.wl = wl
        self.tmp = tmp
        self.vd = vd
        self.clock = speed.SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_s: list[tuple[float, float]] = []  # (raw, corrected)

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def setup(self):
        first = self.clock.mark()
        instance, events = self.wl.setup()
        last = self.clock.mark()
        self.setup_s.append(self.clock.between(first, last))
        return instance, events, last

    def units(self, indices=None, seconds=0.0, min_units=1, tracer=None):
        """Run the given unit indices, or units 0, 1, ... while the next one is
        expected to end within ``seconds`` of wall time, and at least
        ``min_units`` of them; then check every unit's output."""
        import workloads

        log = tracer_mod.EpochLog(self.clock)
        inner = tracer_mod.instrument(tracer, self.vd, self.clock) if tracer is not None else []
        done = []
        # the tracer wraps the library's functions first, so the epoch log's
        # speed marks fall outside every span; timed speed samples would land
        # inside spans, so a traced pass has only the boundary marks
        sampling = (self.clock.sampling(SAMPLE_PERIOD_S) if tracer is None
                    else contextlib.nullcontext())
        with tracer_mod.patched(inner), tracer_mod.patched(log.replacements(self.vd)), sampling:
            start = time.perf_counter()
            u = 0
            while True:
                if indices is not None:
                    if u >= len(indices):
                        break
                elif u >= min_units and (time.perf_counter() - start) * (u + 1) / u > seconds:
                    break
                index = u if indices is None else indices[u]
                u += 1
                self.attempted += 1
                try:
                    instance, events, first = self.setup()
                    n_before = len(log.epochs)
                    output = self.wl.unit(instance, events, index, self.tmp)
                    raw, corrected = self.clock.between(first, self.clock.mark())
                except Exception:
                    traceback.print_exc()
                    self.failed += 1
                    self.failures.append(f"unit {index} raised")
                    break
                epochs = [workloads.Epoch(*entry) for entry in log.epochs[n_before:]]
                done.append((workloads.Unit(index, raw, corrected, epochs, output), instance))
        units = []
        for unit, instance in done:
            self.attempted += 1
            try:
                self.wl.finish(unit, instance, self.tmp)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                self.failures.append(f"checks of unit {unit.index} raised")
                continue
            for name, ok in unit.checks:
                self.record(name, ok)
            units.append(unit)
        return units


def end_to_end(runner, units) -> tuple[dict, dict, dict]:
    """Gated metrics (BENCHMARK.json), ungated ones, and the detail report."""
    import workloads

    wl = runner.wl
    epochs = [e for u in units for e in u.epochs]
    gated = {
        "setup_s": (statistics.median(c for _, c in runner.setup_s), "s"),
        "run_s": (statistics.median(u.seconds for u in units), "s"),
        "epoch_ms_p50": (statistics.median(e.ms for e in epochs), "ms"),
    }
    extra = {}
    report = {
        "units": len(units),
        "epochs": len(epochs),
        "raw": {
            "setup_s": statistics.median(r for r, _ in runner.setup_s),
            "run_s": statistics.median(u.raw_seconds for u in units),
            "epoch_ms_p50": statistics.median(e.raw_ms for e in epochs),
        },
    }
    tl = tail([e.ms for e in epochs])
    if tl is not None:
        extra["epoch_ms_tail"] = (tl[1], "ms")
        report["epoch_ms_tail"] = {"percentile": tl[0], "samples": len(epochs)}
    measured = units[: wl.min_units]
    if len(measured) == wl.min_units:
        q = workloads.quality(measured)
        gated["converged_share"] = (q["converged_share"], "fraction")
        extra["oracle_gap_kw_p50"] = (q["oracle_gap_kw_p50"], "kW")
        extra["settle_iter_p50"] = (q["settle_iter_p50"], "iterations")
        if isinstance(wl, workloads.Compare):
            extra["dominance_share"] = (workloads.Compare.dominance_share(measured), "fraction")
        report["digest"] = [u.digest for u in measured]
    gated["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return gated, extra, report


def per_layer(runner, seconds) -> tuple[dict, dict, dict]:
    plain = runner.units(seconds=seconds / 2)
    tracer = tracer_mod.Tracer()
    traced = runner.units(indices=[u.index for u in plain], tracer=tracer)
    runner.record("traced digests equal untraced",
                  [a.digest for a in plain] == [b.digest for b in traced])
    n = max(len(traced), 1)
    raw_traced = sum(u.raw_seconds for u in traced)
    # span times are raw wall time; scale them like the traced units' times
    scale = sum(u.seconds for u in traced) / raw_traced if raw_traced > 0.0 else 1.0
    spans = tracer.summary()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    layer = {}
    for metric in SPAN_METRICS:
        span, key = metric.rsplit(".", 1)
        value = spans.get(span, {}).get(key, 0.0) / n
        layer[metric] = (value, "count") if key == "calls" else (value * scale, "ms")
    evaluate_calls = spans.get("costs.evaluate_many", {}).get("calls", 0.0)
    layer.update({
        "costs.oracle_calls": (c["costs.oracle_calls"] / n, "count"),
        "costs.values_per_call": (ratio(c["costs.oracle_calls"], evaluate_calls), "values/call"),
        "shuffle.unmasked_share": (ratio(c["shuffle.unmasked"], c["shuffle.values"]), "fraction"),
        "topology.envelopes_per_round": (ratio(c["topology.envelopes"], c["topology.rounds"]),
                                         "envelopes/round"),
        "topology.in_degree0_share": (ratio(c["topology.in_degree0"], c["topology.slots"]),
                                      "fraction"),
        "orchestrator.epochs": (spans.get("orchestrator.run_optimization", {}).get("calls", 0.0) / n,
                                "count"),
        "orchestrator.iterations": (c["orchestrator.iterations"] / n, "count"),
        "records.export_run.bytes": (c["records.export_run.bytes"] / n, "bytes"),
        "trace_overhead": (ratio(sum(u.seconds for u in traced), sum(u.seconds for u in plain)) - 1.0,
                           "fraction"),
    })
    report = {
        "units": len(traced),
        "spans": len(tracer.start),
        "speed_scale": scale,
        "digest_untraced": [u.digest for u in plain],
        "digest_traced": [u.digest for u in traced],
    }
    return layer, {}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    vd = import_package(root)
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # warm up on a tiny instance of the same workload: first calls stay out
        # of the numbers, and its checks count like any other
        runner = Runner(make(args.seed, True), tmp, vd)
        runner.units(indices=[0])
        runner.wl = make(args.seed, args.smoke)  # the measured workload; counts carry over
        runner.setup_s.clear()
        for _ in range(SETUP_REPS):
            runner.setup()
        if args.trace:
            metrics, extra, report = per_layer(runner, args.seconds)
        else:
            units = runner.units(seconds=args.seconds, min_units=runner.wl.min_units)
            metrics, extra, report = end_to_end(runner, units) if units else ({}, {}, {})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    extra["fail_share"] = (runner.failed / max(runner.attempted, 1), "fraction")
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=sorted(set(runner.failures)), environment=environment(np))
    metrics = {name: (float(value), unit) for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {float(value)!r} {unit} (not gated)")
    print("detail: " + json.dumps(report, sort_keys=True))
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
