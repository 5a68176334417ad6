"""The four-step protocol loop and the outer time loop coupling it to fleet dynamics.

One optimization epoch: the coordination node (ECN) broadcasts M candidate
rates; every available EV and the aggregator evaluate their private cost at
each candidate; the evaluations are masked by one shuffle round and reported;
the ECN totals them per candidate, picks the argmin, moves the pool, and
re-broadcasts. Consensus holds by construction: all agents always evaluate
the same candidate sequence and the answer is one scalar rate.

Each iteration is whole-matrix work: the evaluations form one (N+1) x M
matrix, row 0 the aggregator and rows 1..N the available EVs in ascending id
order, quantized once, masked by one ``draw_split`` / ``mask_units`` round and
summed per column.

A scenario run repeats epochs over simulated time: whenever the available set
changes (scheduled departures or SOC floors crossed), a fresh epoch
re-optimizes the common rate, which is then applied every ``dt`` until the
next change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSet, agg_consensus_cost, ev_net_cost_matrix
from .dwoa import advance_pool, init_pool
from .fleet import Fleet, apply_discharge, available_ids, common_rate_bounds, grid_power_kw
from .records import IterationSegment, RunRecord
from .shuffle import (
    DEFAULT_UNIT_BITS,
    ProtocolError,
    candidate_totals,
    check_headroom,
    draw_split,
    from_units_array,
    mask_units,
    to_units_array,
)
from .shuffle import shuffle_round  # noqa: F401  (perfbench/tracer.py wraps this name)
from .topology import build_topology


def ecn_select_best(totals) -> int:
    """Index of the candidate with the minimal aggregated total.

    Ties break to the lowest candidate index; a missing or non-finite total
    means some agent failed to report and is a protocol error.
    """
    totals = list(totals)
    if not totals:
        raise ProtocolError("no candidate totals to select from")
    best_index = None
    best_value = None
    for i, value in enumerate(totals):
        if value is None or not math.isfinite(value):
            raise ProtocolError(f"candidate {i} has an incomplete total")
        if best_value is None or value < best_value:
            best_index, best_value = i, value
    return best_index


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        # rebuild so prior spawns on the caller's object cannot leak in:
        # equal-valued seeds must give equal runs
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class DepartureEvent:
    """EVs leaving the programme at a given simulation time."""

    time_h: float
    ev_ids: tuple[int, ...]


def run_optimization(
    fleet: Fleet,
    costs: CostSet,
    m_whales: int = 10,
    k_max: int = 150,
    seed=0,
    shuffle_enabled: bool = True,
    topology_policy: str = "one-random-neighbor",
    unit_bits: int = DEFAULT_UNIT_BITS,
    epoch: int = 0,
) -> tuple[float, RunRecord]:
    """One full optimization epoch; returns (best common rate, trace).

    Deterministic in ``seed``: the topology draw, the pool trajectory and the
    shuffle masking each consume an independent child stream, so toggling
    ``shuffle_enabled`` cannot perturb the optimizer's randomness. With no
    available EV the rate is 0 and the record carries the empty-fleet flag.
    Search bounds are the intersection of the available EVs' rate limits.
    An iteration whose reports could overflow the int64 wire (see
    ``check_headroom``) raises ProtocolError. The record's oracle-call
    counters count the cost values actually scored.
    """
    record = RunRecord()
    avail = available_ids(fleet)
    if not avail:
        record.empty_fleet = True
        return 0.0, record

    lower, upper = common_rate_bounds(fleet, avail)
    if lower > upper:
        raise ValueError(f"no common feasible rate: [{lower}, {upper}]")

    topo_ss, dwoa_ss, shuffle_ss = _as_seed_sequence(seed).spawn(3)
    dwoa_rng = np.random.default_rng(dwoa_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    topology = build_topology(fleet, topology_policy, np.random.default_rng(topo_ss))

    ev_costs = costs.ev.take(avail)
    agg_costs = costs.agg.restrict(avail)
    n_iterations = max(k_max, 1)
    pool = init_pool(m_whales, lower, upper, n_iterations, dwoa_rng)
    trace = []  # (selected index, best rate, best total) per iteration
    values = np.empty((len(avail) + 1, m_whales))
    for k in range(n_iterations):
        agg_row = agg_consensus_cost(pool.positions, agg_costs)
        ev_rows = ev_net_cost_matrix(pool.positions, ev_costs)
        values[0], values[1:] = agg_row, ev_rows
        record.oracle_calls_agg += agg_row.size
        record.oracle_calls_ev += ev_rows.size
        units = to_units_array(values, unit_bits)
        check_headroom(units)
        if shuffle_enabled:
            units = mask_units(units, *draw_split(topology, m_whales, shuffle_rng))
        totals = from_units_array(candidate_totals(units), unit_bits)
        selected = ecn_select_best(totals.tolist())
        pool.record_evaluation(totals, selected)
        trace.append((selected, pool.best_rate, pool.best_value))
        if k_max > 0:
            advance_pool(pool, dwoa_rng)

    record.iterations.segments.append(IterationSegment(epoch, len(avail), 0, *zip(*trace)))
    return pool.best_rate, record


def run_scenario(
    fleet: Fleet,
    costs: CostSet,
    dt_h: float = 0.1,
    horizon_h: float = 6.0,
    events: tuple[DepartureEvent, ...] = (),
    m_whales: int = 10,
    k_max: int = 150,
    seed=0,
    shuffle_enabled: bool = True,
    topology_policy: str = "one-random-neighbor",
    unit_bits: int = DEFAULT_UNIT_BITS,
) -> RunRecord:
    """Simulate the full time horizon, re-optimizing on availability changes.

    Each step records the applied rate and the delivered grid power (rate
    times the available efficiency sum) and every EV's SOC by id, before
    discharging the fleet by ``dt_h``. Departure events take effect at the
    first step boundary at or after their time; SOC-floor crossings take
    effect at the next step. Every change of the available set starts a
    fresh optimization epoch whose random streams are spawned in sequence
    from ``seed``, keeping whole-run determinism.
    """
    if horizon_h <= 0.0:
        raise ValueError(f"horizon_h must be > 0, got {horizon_h}")
    if dt_h <= 0.0:
        raise ValueError(f"dt_h must be > 0, got {dt_h}")

    parent_ss = _as_seed_sequence(seed)
    record = RunRecord()
    pending = sorted(events, key=lambda e: e.time_h)
    n_steps = int(round(horizon_h / dt_h))
    rate = 0.0
    last_avail: list[int] | None = None
    epoch = 0

    for _ in range(n_steps):
        now = fleet.time_h
        while pending and pending[0].time_h <= now + 1e-12:
            fleet.departed[np.asarray(pending.pop(0).ev_ids, dtype=np.intp)] = True

        avail = available_ids(fleet)
        if avail != last_avail:
            if avail:
                (epoch_ss,) = parent_ss.spawn(1)
                rate, epoch_record = run_optimization(
                    fleet,
                    costs,
                    m_whales=m_whales,
                    k_max=k_max,
                    seed=epoch_ss,
                    shuffle_enabled=shuffle_enabled,
                    topology_policy=topology_policy,
                    unit_bits=unit_bits,
                    epoch=epoch,
                )
                record.extend(epoch_record)
            else:
                rate = 0.0
            epoch += 1
            last_avail = avail

        applied = rate if avail else 0.0
        record.steps.add(now, applied, grid_power_kw(fleet, applied), fleet.soc)
        if avail:
            apply_discharge(fleet, applied, dt_h)
        else:
            fleet.time_h += dt_h
    return record
