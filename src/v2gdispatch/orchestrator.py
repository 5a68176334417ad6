"""The four-step protocol loop and the outer time loop coupling it to fleet dynamics.

One optimization epoch: the coordination node (ECN) broadcasts M candidate
rates; every available EV and the aggregator evaluate their private cost at
each candidate; the evaluations are masked by one shuffle round and reported;
the ECN totals them per candidate, picks the argmin, moves the pool, and
re-broadcasts. Consensus holds by construction: all agents always evaluate
the same candidate sequence and the answer is one scalar rate.

Each iteration is whole-matrix work: the evaluations form one (N+1) x M
matrix, row 0 the aggregator and rows 1..N the available EVs in ascending id
order, computed in units of 2**-unit_bits and rounded to int64 once, masked
by one round (when the epoch masks) and summed per column
(``candidate_totals``, an exact int64 matvec).
The ECN selects, and the pool keeps its best, on these exact totals as
Python ints; only the best total is turned into currency, for the record.

The rounds are drawn and applied by one ``shuffle.MaskBlocks``, in blocks
from two streams of their own; the masks depend on the seed and the
topology, not on the block sizes.

The pool draws from a stream of its own, through one ``dwoa.PoolDraws``
and nothing else: its M initial positions, then every move. It reads the
stream's raw words ``dwoa.POOL_BLOCK_WORDS`` a call (fewer once the passes
left need fewer) and decodes each block once into the values numpy's
``uniform``, ``random`` and ``integers`` would give (``dwoa`` module
docstring). It too reads in order, so the positions do not depend on the
block size.

What an epoch fixes is set up once, before its iterations:
- the int64 wire's bound (``wire_refusal``): the sum over rows of each
  row's cost terms at the upper rate bound, with room for rounding; the
  epoch is refused up front unless it is below 2**63, so no iteration
  checks its units again;
- the five cost coefficients, already times 2**unit_bits, spread to
  (N+1) x M arrays, the aggregator's row 0 among them, and the (N+1) x M
  cost buffers (``costs.CostMatrix``);
- the wire buffers (``shuffle.WireBuffers``): the scaled values, the int64
  units and the masked units, which the mask works in;
- only when the epoch masks, its topology and its ``shuffle.MaskBlocks``.
Per iteration run only the arithmetic and, once a block, the draws, each
array touched once. The loop calls ``candidate_totals``,
``from_units_array`` and ``ecn_select_best`` through this module's names,
where a caller can wrap them.

A scenario run repeats epochs over simulated time: whenever the available set
changes (scheduled departures or SOC floors crossed), a fresh epoch
re-optimizes the common rate, which is then applied every ``dt`` until the
next change.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .costs import AggCostParams, CostMatrix, CostSet, EvCostTable, magnitude_bound
from .dwoa import PoolDraws, advance_pool, init_pool
from .fleet import Fleet, apply_discharge, available_ids, common_rate_bounds, grid_power_kw
from .records import IterationSegment, RunRecord
from .shuffle import (
    DEFAULT_UNIT_BITS,
    MaskBlocks,
    ProtocolError,
    WireBuffers,
    candidate_totals,
    from_units_array,
    wire_bound,
)
# perfbench/tracer.py wraps these names here; the epoch calls neither
from .shuffle import shuffle_round, to_units_array  # noqa: F401
from .topology import POLICIES, build_topology

# time is a step index; from 2**53 steps on, float64 cannot tell consecutive
# step times (nor step counts) apart
MAX_STEPS = 2**53
# an epoch peaks at about 118 bytes per cell of its (N+1) x M matrix (the
# cost, wire and mask arrays, by tracemalloc at N = 2 000, M = 10), so 2**27
# cells is some 16 GB: past it, numpy's failed allocation would name no
# setting. 10**5 EVs at 10 candidates are 10**6 cells.
MAX_CELLS = 2**27


def check_run_settings(n_evs: int, m_whales: int, k_max: int, topology_policy: str,
                       unit_bits: int) -> None:
    """Raise ValueError, naming the setting, unless ``m_whales`` >= 1,
    ``(n_evs + 1) * m_whales`` <= ``MAX_CELLS``, ``k_max`` >= 0,
    ``unit_bits`` lies in [8, 48] and ``topology_policy`` is one of
    ``topology.POLICIES``; ``n_evs`` is the fleet's size."""
    if m_whales < 1:
        raise ValueError(f"m_whales must be >= 1, got {m_whales}")
    if m_whales > MAX_CELLS // (n_evs + 1):
        raise ValueError(f"(n_evs + 1) * m_whales must be <= 2**27 cost cells, got "
                         f"n_evs = {n_evs}, m_whales = {m_whales}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if not 8 <= unit_bits <= 48:
        raise ValueError(f"unit_bits must be within [8, 48], got {unit_bits}")
    if topology_policy not in POLICIES:
        raise ValueError(f"topology_policy must be one of {POLICIES}, got {topology_policy!r}")


def step_count(dt_h: float, horizon_h: float) -> int:
    """The number of ``dt_h`` steps in ``horizon_h``; raises ValueError
    unless both are finite and > 0, the steps number fewer than 2**53 and
    ``horizon_h / dt_h`` is within a relative 1e-9 of a whole number."""
    if not 0.0 < horizon_h < math.inf:
        raise ValueError(f"horizon_h must be finite and > 0, got {horizon_h}")
    if not 0.0 < dt_h < math.inf:
        raise ValueError(f"dt_h must be finite and > 0, got {dt_h}")
    steps = horizon_h / dt_h
    if not steps < MAX_STEPS:
        raise ValueError(f"horizon_h = {horizon_h} is too many dt_h = {dt_h} steps to count "
                         "(2**53 or more)")
    n_steps = round(steps)
    if not math.isclose(steps, n_steps, rel_tol=1e-9):
        raise ValueError(f"horizon_h = {horizon_h} is not a whole number of dt_h = {dt_h} steps")
    return n_steps


def ecn_select_best(totals) -> int:
    """Index of the candidate with the minimal aggregated total in the list
    ``totals``; ties break to the lowest index. An epoch passes its exact int64 totals as Python
    ints, so two totals that differ are never read as a tie."""
    return totals.index(min(totals))


def wire_refusal(ev: EvCostTable, agg: AggCostParams, upper: float,
                 unit_bits: int) -> str | None:
    """Why an epoch of ``ev`` and ``agg`` at rates up to ``upper`` does not
    fit the int64 wire at ``unit_bits``, naming the largest unit bits in
    [8, 48] that fit; None when it fits: no iteration's column of units can
    then sum beyond the ``shuffle.wire_bound`` of ``costs.magnitude_bound``
    (NaN when a cost is), which must be below 2**63."""
    magnitude, rows = magnitude_bound(ev, agg, upper), len(ev) + 1
    bound = wire_bound(magnitude, rows, unit_bits)
    if bound < 2.0**63:
        return None
    fits = [bits for bits in range(8, 49) if wire_bound(magnitude, rows, bits) < 2.0**63]
    return (f"unit_bits: reports of up to {bound!r} units per candidate at rates up to {upper} "
            f"kW reach 2**63, beyond the int64 wire at {unit_bits} unit bits; "
            + (f"the largest that fits is {fits[-1]}" if fits else "no value in [8, 48] fits"))


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


def ev_id_array(ids, n: int) -> np.ndarray | None:
    """``ids`` as an intp array when each is an integer in [0, n), a numpy
    integer included and a bool not; None otherwise. The range is tested
    before the cast, so an id beyond intp is out of range, not an error."""
    if (all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, ids)))
            and 0 <= min(ids, default=0) and max(ids, default=-1) < n):
        return np.array(ids, dtype=np.intp)
    return None


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

    Deterministic in ``seed``: the topology draw, the pool trajectory, the
    masks' kept fractions and the aggregator's share routes each consume an
    independent child stream, spawned in that order (``spawn(4)``, whose
    first three children are those of ``spawn(3)``), so toggling
    ``shuffle_enabled`` cannot perturb the optimizer's randomness. The masks
    are drawn in blocks, and the pool's moves read its stream in blocks of
    raw words (see the module docstring); each stream is read in order, so
    neither depends on a block size. With no available EV the rate is 0
    and the record has no iteration rows.
    Search bounds are the intersection of the available EVs' rate limits
    (``common_rate_bounds``, which refuses an empty or negative one).
    Before anything else of the epoch is built, it bounds once what any
    iteration can put on the int64 wire, and raises ProtocolError, naming
    the epoch and ``wire_refusal``'s reason, when the bound is not below
    2**63, even if no candidate drawn would reach it; the iterations then
    quantize unchecked. The record's oracle-call counters count the cost
    values actually scored. The pool moves only between evaluations: ``max(k_max, 1)`` evaluations, so ``k_max`` = 0
    scores the initial pool once and never moves it. Before it reads the
    fleet's availability, it raises ValueError for ``m_whales`` < 1, more
    than ``MAX_CELLS`` cells in a (``len(fleet)`` + 1) x ``m_whales``
    matrix, ``k_max`` < 0, ``unit_bits`` outside [8, 48] or a
    ``topology_policy`` not in ``topology.POLICIES`` (``check_run_settings``).
    """
    check_run_settings(len(fleet), m_whales, k_max, topology_policy, unit_bits)
    record = RunRecord()
    avail = available_ids(fleet)
    if not avail:
        return 0.0, record

    lower, upper = common_rate_bounds(fleet, avail)
    ev = costs.ev.take(avail)
    reason = wire_refusal(ev, costs.agg, upper, unit_bits)
    if reason is not None:
        raise ProtocolError(f"epoch {epoch}: {reason}")
    topo_ss, dwoa_ss, fraction_ss, route_ss = _as_seed_sequence(seed).spawn(4)
    n_iterations = max(k_max, 1)
    masks = None
    if shuffle_enabled:
        topology = build_topology(fleet, topology_policy, np.random.default_rng(topo_ss))
        masks = MaskBlocks(topology, m_whales, n_iterations, np.random.default_rng(fraction_ss),
                           np.random.default_rng(route_ss))

    cost_matrix = CostMatrix(ev, costs.agg, m_whales, unit_bits)
    wire = WireBuffers(cost_matrix.values.shape)
    draws = PoolDraws(dwoa_ss)
    pool = init_pool(m_whales, lower, upper, n_iterations, draws)
    segment = IterationSegment(epoch, len(avail))
    for k in range(n_iterations):
        units = wire.quantize(cost_matrix(pool.positions))
        if masks is not None:
            units = masks.mask(wire)
        totals = candidate_totals(units).tolist()
        selected = ecn_select_best(totals)
        pool.record_evaluation(totals, selected)
        segment.append(selected, pool.best_rate, from_units_array(pool.best_value, unit_bits))
        if k + 1 < n_iterations:
            advance_pool(pool, draws)

    record.oracle_calls_agg += m_whales * n_iterations
    record.oracle_calls_ev += len(avail) * m_whales * n_iterations
    record.iterations.segments.append(segment)
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
    discharging the fleet by ``dt_h``. A departure event takes effect at
    step ``ceil(time_h / dt_h - 1e-9)``, the first step boundary at or after
    its time, counted by index rather than on the summed clock; an event
    with a non-finite time or an EV id that is no integer in [0, N) raises
    ValueError before any step. SOC-floor crossings take effect at the next
    step. Every change of the available set, to the empty set included,
    starts a fresh ``run_optimization`` epoch whose random streams are
    spawned in sequence from ``seed``, keeping whole-run determinism; the
    empty fleet's epoch gives rate 0 and no iteration rows. Before any step
    it raises ValueError for a ``dt_h`` or ``horizon_h`` that is not finite
    and > 0, for 2**53 or more steps or a horizon that is no whole number of
    steps (``step_count``), and for the solver settings that
    ``run_optimization`` refuses (``check_run_settings``), a pool too large
    for the whole fleet among them.
    """
    check_run_settings(len(fleet), m_whales, k_max, topology_policy, unit_bits)
    n_steps = step_count(dt_h, horizon_h)
    pending = []  # (step, ids), resolved once; compared with the step index
    for event in events:
        if not math.isfinite(event.time_h):
            raise ValueError(f"{event}: time_h must be finite")
        ids = ev_id_array(event.ev_ids, len(fleet))
        if ids is None:
            raise ValueError(f"{event}: EV ids must be integers in [0, {len(fleet)})")
        step = event.time_h / dt_h - 1e-9
        if step < n_steps:
            pending.append((math.ceil(step), ids))
    pending.sort(key=lambda p: p[0])

    parent_ss = _as_seed_sequence(seed)
    record = RunRecord()
    last_avail: list[int] | None = None
    epoch = 0

    for k in range(n_steps):
        now = fleet.time_h
        while pending and pending[0][0] <= k:
            fleet.departed[pending.pop(0)[1]] = True

        avail = available_ids(fleet)
        if avail != last_avail:
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
            record.iterations.segments += epoch_record.iterations.segments
            record.oracle_calls_ev += epoch_record.oracle_calls_ev
            record.oracle_calls_agg += epoch_record.oracle_calls_agg
            epoch += 1
            last_avail = avail

        record.steps.add(now, rate, grid_power_kw(fleet, rate), fleet.soc)
        apply_discharge(fleet, rate, dt_h)
    return record
