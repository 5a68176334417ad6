"""The three benchmark workloads and the checks on their outputs.

Each workload is a deterministic sequence of units. Unit ``u`` builds a fresh
instance from the workload seed (set-up, outside the unit's wall time), then
does the unit's work through the package's public functions, looked up as
module attributes at call time so a traced pass sees every call. Inputs
depend only on ``(seed, u)``, so the untraced and the traced pass of one run,
and two runs with the same seed, must produce the same output digests.

Checks and quality figures use references to the package's functions taken
when this module is imported, so they never show up in a traced pass.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import v2gdispatch as vd
from v2gdispatch.config import ScenarioConfig
from v2gdispatch.costs import consensus_objective as _objective
from v2gdispatch.harness import oracle_rate as _oracle_rate
from v2gdispatch.records import export_run as _export_run, import_run as _import_run

RATE_TOL_KW = 1e-2  # "converged" and "settled" mean within this of the target


@dataclass
class Epoch:
    """One run_optimization call as the boundary wrapper saw it."""

    raw_ms: float
    ms: float  # corrected for machine speed, see speed.py
    rate: float
    record: object
    avail: tuple[int, ...] = ()
    oracle_kw: float = float("nan")


@dataclass
class Unit:
    index: int
    raw_seconds: float
    seconds: float  # corrected for machine speed
    epochs: list[Epoch]
    output: object = None
    digest: str = ""
    checks: list[tuple[str, bool]] = field(default_factory=list)


def settle_iter(record, final_rate: float) -> int:
    """Iterations until ``best_rate_kw`` stays within RATE_TOL_KW of the final rate."""
    rows = record.iterations
    for pos in range(len(rows) - 1, -1, -1):
        if abs(rows[pos].best_rate_kw - final_rate) > RATE_TOL_KW:
            return pos + 2
    return 1


def _csv_roundtrip(record, tmp: Path, tag: str) -> tuple[bytes, bool]:
    """Export ``record``, import it, export again; return the bytes and
    whether the two files are identical."""
    first, second = tmp / f"{tag}.csv", tmp / f"{tag}.again.csv"
    _export_run(record, first)
    data = first.read_bytes()
    _export_run(_import_run(first), second)
    same = second.read_bytes() == data
    first.unlink()
    second.unlink()
    return data, same


class Workload:
    """Common set-up and checks; subclasses define the unit of work."""

    name = ""
    config: ScenarioConfig
    min_units = 1  # quality figures and digests cover exactly these units

    def setup(self):
        """Build the instance and resolve departures: the timed set-up."""
        instance = vd.config.build_instance(self.config)
        events = vd.config.resolve_departures(self.config, instance.fleet)
        return instance, events

    def solver_kwargs(self) -> dict:
        c = self.config
        return dict(m_whales=c.m_whales, k_max=c.k_max, shuffle_enabled=c.shuffle_enabled,
                    topology_policy=c.topology_policy, unit_bits=c.unit_bits)

    def unit(self, instance, events, u: int, tmp: Path):
        raise NotImplementedError

    def finish(self, unit: Unit, instance, tmp: Path) -> None:
        """Fill in each epoch's available set and oracle, the checks and the digest."""
        raise NotImplementedError

    def check_epochs(self, unit: Unit, instance) -> None:
        """Each epoch's reported best cost is the consensus objective at its rate,
        up to one fixed-point unit per agent plus float rounding."""
        bits = self.config.unit_bits
        for e in unit.epochs:
            costs = instance.costs.restrict(e.avail)
            last = e.record.iterations[-1]
            objective = float(_objective(e.rate, costs.ev, costs.agg))
            n_agents = len(e.avail) + 1
            tol = n_agents * 2.0 ** -bits + n_agents * 8 * np.finfo(float).eps * max(1.0, abs(objective))
            unit.checks.append(("best_total_cost matches objective",
                                abs(last.best_total_cost - objective) <= tol))
            unit.checks.append(("epoch rate is the record's best", last.best_rate_kw == e.rate))
            unit.checks.append(("n_available matches", last.n_available == len(e.avail)))
            fleet = instance.fleet.evs
            lower = max(fleet[i].rate_min_kw for i in e.avail)
            upper = min(fleet[i].rate_max_kw for i in e.avail)
            unit.checks.append(("rate within bounds", lower <= e.rate <= upper))


class Sweep(Workload):
    name = "sweep-n100"

    def __init__(self, seed: int, smoke: bool):
        self.config = ScenarioConfig(seed=seed, n_evs=12 if smoke else 100,
                                     k_max=8 if smoke else 150)
        self.epochs_per_unit = 2 if smoke else 5
        self.min_units = 2 if smoke else 4
        self._oracle = None

    def unit(self, instance, events, u, tmp):
        kwargs = self.solver_kwargs()
        for j in range(u * self.epochs_per_unit, (u + 1) * self.epochs_per_unit):
            vd.orchestrator.run_optimization(
                instance.fleet, instance.costs, seed=vd.harness.run_seed(self.config.seed, j),
                **kwargs)

    def finish(self, unit, instance, tmp):
        if self._oracle is None:
            self._oracle = _oracle_rate(instance)[0]
        everyone = tuple(range(self.config.n_evs))
        digest = hashlib.sha256()
        for j, e in enumerate(unit.epochs):
            e.avail, e.oracle_kw = everyone, self._oracle
            data, same = _csv_roundtrip(e.record, tmp, f"sweep-{unit.index}-{j}")
            unit.checks.append(("export/import/export identical", same))
            digest.update(data)
        unit.checks.append(("epochs per unit", len(unit.epochs) == self.epochs_per_unit))
        self.check_epochs(unit, instance)
        unit.digest = digest.hexdigest()


class Scenario(Workload):
    """1 h at dt 0.01 h; a quarter of the fleet departs at each of 0.25, 0.5, 0.75 h."""

    name = "scenario-n1000"
    departure_times = (0.25, 0.5, 0.75)

    def __init__(self, seed: int, smoke: bool):
        n = 40 if smoke else 1000
        order = np.random.default_rng(seed).permutation(n)
        quarter = n // 4
        departures = tuple(
            {"time_h": t, "ids": sorted(int(i) for i in order[q * quarter:(q + 1) * quarter])}
            for q, t in enumerate(self.departure_times)
        )
        self.config = ScenarioConfig(seed=seed, n_evs=n, k_max=8 if smoke else 150,
                                     horizon_h=1.0, dt_h=0.01, departures=departures)
        self.available_per_epoch = []
        gone: set[int] = set()
        for spec in ((),) + tuple(d["ids"] for d in departures):
            gone |= set(spec)
            self.available_per_epoch.append(tuple(i for i in range(n) if i not in gone))

    def unit(self, instance, events, u, tmp):
        c = self.config
        record = vd.orchestrator.run_scenario(
            instance.fleet, instance.costs, dt_h=c.dt_h, horizon_h=c.horizon_h, events=events,
            seed=vd.harness.run_seed(c.seed, u), **self.solver_kwargs())
        path = tmp / f"scenario-{u}.csv"
        vd.records.export_run(record, path)
        imported = vd.records.import_run(path)
        oracles = []
        for avail in self.available_per_epoch:
            keep = set(avail)
            for ev in instance.fleet.evs:
                ev.departed = ev.id not in keep
            oracles.append(vd.harness.oracle_rate(instance)[0])
        return record, path, imported, oracles

    def finish(self, unit, instance, tmp):
        record, path, imported, oracles = unit.output
        data = path.read_bytes()
        path.unlink()
        again = tmp / f"scenario-{unit.index}.again.csv"
        _export_run(imported, again)
        unit.checks.append(("export/import/export identical", again.read_bytes() == data))
        again.unlink()
        unit.checks.append(("one epoch per departure",
                            len(unit.epochs) == len(self.available_per_epoch)))
        steps = round(self.config.horizon_h / self.config.dt_h)
        unit.checks.append(("one step row per step", len(record.steps) == steps))
        for e, avail, oracle in zip(unit.epochs, self.available_per_epoch, oracles):
            e.avail, e.oracle_kw = avail, oracle
        self.check_epochs(unit, instance)
        digest = hashlib.sha256(data)
        digest.update(repr(oracles).encode())
        unit.output = None  # drop the per-step SOC rows
        unit.digest = digest.hexdigest()


class Compare(Workload):
    name = "compare-n100"

    def __init__(self, seed: int, smoke: bool):
        self.config = ScenarioConfig(seed=seed, n_evs=12 if smoke else 100)
        self.k_max = 10 if smoke else 300
        self.population = 6 if smoke else 30
        self.seeds_per_unit = 2
        self.min_units = 2 if smoke else 3
        self._oracle = None

    def unit_config(self, u: int) -> ScenarioConfig:
        # compare_solvers draws its run seeds from config.seed; the instance is
        # passed in, so only the algorithm randomness differs between units
        return replace(self.config, seed=self.config.seed * 1000 + u)

    def unit(self, instance, events, u, tmp):
        return vd.harness.compare_solvers(self.unit_config(u), n_seeds=self.seeds_per_unit,
                                          k_max=self.k_max, population=self.population,
                                          instance=instance)

    def finish(self, unit, instance, tmp):
        if self._oracle is None:
            self._oracle = _oracle_rate(instance)
        rows, oracle_objective = unit.output
        everyone = tuple(range(self.config.n_evs))
        digest = hashlib.sha256(repr((rows, oracle_objective)).encode())
        unit.checks.append(("one epoch per seed", len(unit.epochs) == len(rows)))
        unit.checks.append(("oracle objective", oracle_objective == self._oracle[1]))
        for j, (e, row) in enumerate(zip(unit.epochs, rows)):
            e.avail, e.oracle_kw = everyone, self._oracle[0]
            exact = float(_objective(e.rate, instance.costs.ev, instance.costs.agg))
            unit.checks.append(("row objective at the epoch rate",
                                row.decentralized_objective == exact))
            unit.checks.append(("protocol no better than the oracle",
                                exact >= oracle_objective - 1e-9 * max(1.0, abs(oracle_objective))))
            data, same = _csv_roundtrip(e.record, tmp, f"compare-{unit.index}-{j}")
            unit.checks.append(("export/import/export identical", same))
            digest.update(data)
        self.check_epochs(unit, instance)
        unit.digest = digest.hexdigest()

    @staticmethod
    def dominance_share(units: list[Unit]) -> float:
        rows = [row for u in units for row in u.output[0]]
        wins = sum(r.decentralized_objective <= r.cwoa_objective <= r.gwo_objective for r in rows)
        return wins / len(rows)


WORKLOADS = {cls.name: cls for cls in (Sweep, Scenario, Compare)}


def quality(units: list[Unit]) -> dict[str, float]:
    """Deterministic behaviour figures over the given units' epochs."""
    epochs = [e for u in units for e in u.epochs]
    gaps = [abs(e.rate - e.oracle_kw) for e in epochs]
    return {
        "oracle_gap_kw_p50": statistics.median(gaps),
        "converged_share": sum(g <= RATE_TOL_KW for g in gaps) / len(gaps),
        "settle_iter_p50": statistics.median(settle_iter(e.record, e.rate) for e in epochs),
    }
