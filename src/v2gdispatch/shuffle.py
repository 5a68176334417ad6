"""Additive-split data shuffling: mask private cost values, preserve totals.

Each agent splits every evaluated cost value into two shares that sum back to
the original, sends one share to a neighbour, keeps the other, and adds in
whatever shares it received. The coordinator then only ever sees locally
aggregated (masked) values, while the per-candidate sum over all agents is
unchanged, so the selected argmin is too.

The wire format is fixed-point: values are quantized to integer multiples of
2**-unit_bits on entry and all splitting/aggregation runs on (numpy) int64,
which makes conservation exact rather than subject to float rounding drift.
Quantized units convert back to float exactly, so totals agree bit-for-bit
with and without shuffling. The wire's one rule: every unit is an integer
that float64 holds exactly, and each column's sum of |units| is below 2**63
(``check_headroom``). A row keeps ``rint(f * u)`` of its unit u, f in [0, 1],
and sends the rest, so under the rule both shares lie between 0 and u and
no masked value, column total or partial sum of one can wrap. A unit that
breaks the rule is an error, never a silent wrap: the mapping path checks
what it takes in (``to_units_array``, ``shuffle_round``), and an epoch checks
once, before its first round, that no report it can make reaches 2**63 in any
column (``wire_bound``), then rounds values already scaled to units
(``costs.CostMatrix``) and casts them unchecked (``WireBuffers.quantize``).

One round works on the whole (agents x candidates) unit matrix: row 0 is the
aggregator and rows 1..N are the EVs in ascending id order (the rows of a
built ``NeighborMap``, whose ``ids`` hold each row's agent id: the EV id, or
-1 for the aggregator). ``mask_units`` applies one round's kept fractions
and share destinations to a ``WireBuffers``, so each round touches each
matrix once and allocates none. ``shuffle_round`` draws one round over an
id-keyed mapping of the topology's agents, row by row, and applies it.
``MaskBlocks`` masks an epoch's rounds, drawn a block at a time.
``candidate_totals`` sums the reports per candidate.
This module owns the share-slot layout: a send share of row r's candidate h
lands in the flat slot ``t * m + h`` of its target row t, and ``share_slots``
alone derives those slots from the graph's ``indptr`` and ``targets``
(``shuffle_round`` and ``MaskBlocks`` read them from it).
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping, Sequence

import numpy as np

# deliver_round stays bound here: perfbench/tracer.py wraps shuffle.deliver_round
from .topology import NeighborMap, TopologyError, deliver_round  # noqa: F401

DEFAULT_UNIT_BITS = 40
# an epoch that masks draws its rounds' fractions in blocks of up to this
# many cells (rounds x rows x m) and the aggregator's routes in blocks of up
# to this many values (rounds x m), at least one round a block, so that one
# generator call fills many rounds. The masks do not depend on it.
# 2**15 was no faster than 2**13 at N = 100 to 1 000, M = 10
BLOCK_CELLS = 2**13


class ProtocolError(RuntimeError):
    """Agents disagree on the candidate keys, a report is incomplete, a
    value does not fit the wire, or forced split fractions are not m values
    in [0, 1]."""


class WireBuffers:
    """The matrices of one round on the wire, reused by every round of a run.

    ``quantize(values)`` takes values already in units of 2**-unit_bits
    (``costs.CostMatrix``, or ``shuffle_round``'s int64 reports) and leaves
    ``rint(values)`` in ``scaled`` (whole numbers, held exactly as floats)
    and their int64 cast in ``units``, unchecked: the caller has shown that
    the values keep the wire's rule (module docstring).
    ``mask_units(wire, ...)`` then overwrites ``scaled`` with the kept
    shares and ``units`` with the sends, and returns ``masked``; it adds the
    sends in through the flat views of the two.
    """

    __slots__ = ("scaled", "units", "masked", "flat_units", "flat_masked")

    def __init__(self, shape: tuple[int, ...]):
        self.scaled = np.empty(shape)
        self.units = np.empty(shape, dtype=np.int64)
        self.masked = np.empty(shape, dtype=np.int64)
        self.flat_units = self.units.reshape(-1)
        self.flat_masked = self.masked.reshape(-1)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Scaled values as int64 units: ``rint``, then the cast."""
        np.rint(values, self.scaled)
        self.units[...] = self.scaled
        return self.units


def to_units_array(values, unit_bits: int = DEFAULT_UNIT_BITS) -> np.ndarray:
    """Quantize currency values to int64 grid units, in a fresh array; raises
    ProtocolError for a value whose units int64 cannot hold (or that is not
    finite), before any value is cast."""
    values = np.asarray(values, dtype=float)
    # a Python float product: NaN fails the test, and a huge peak gives inf
    # with no overflow warning. rint moves no float at or beyond 2**52, so
    # the scaled peak is below 2**63 exactly when every quantized value is.
    if not float(np.abs(values).max(initial=0.0)) * 2**unit_bits < 2.0**63:
        raise ProtocolError(f"value beyond the int64 wire at {unit_bits} unit bits")
    return np.rint(values * float(1 << unit_bits)).astype(np.int64)


def wire_bound(magnitude: float, rows: int, unit_bits: int) -> float:
    """A bound, in units of 2**-unit_bits, on a column's sum of |units| once
    ``rows`` values, whose exact magnitudes sum to at most ``magnitude``
    currency, are computed in float64 and quantized.

    The float evaluation of a value is off by a few ulps of its terms'
    magnitudes, which the relative margin of 2**-20 covers many times over;
    ``rint`` adds at most half a unit per value. Below 2**63, no masked
    value, column total or partial sum of one can wrap (``check_headroom``).
    NaN when ``magnitude`` is.
    """
    return magnitude * float(1 << unit_bits) * (1.0 + 2.0**-20) + 0.5 * rows


def check_headroom(units: np.ndarray) -> None:
    """Raise ProtocolError unless every column's sum of |units|, summed in
    Python ints, is below 2**63: the wire's headroom (module docstring). The
    mapping path (``shuffle_round``, ``candidate_totals`` of a mapping)
    checks each round's reports with it.
    """
    for h, column in enumerate(units.T.tolist()):
        span = sum(map(abs, column))
        if span >= 1 << 63:
            raise ProtocolError(
                f"candidate {h}: {units.shape[0]} reports sum to {span} units in magnitude, "
                "beyond the int64 wire"
            )


def from_units_array(units, unit_bits: int = DEFAULT_UNIT_BITS):
    # an int64 array or a Python int: both convert to the nearest float
    return units * 2.0 ** -unit_bits


def _stacked(values_by_agent: Mapping[int, np.ndarray]) -> tuple[list[int], np.ndarray]:
    """Agent ids in ascending order and their unit-values stacked as matrix
    rows, checked by ``check_headroom``."""
    if not values_by_agent:
        raise ProtocolError("no agent mappings to shuffle")
    agents = sorted(values_by_agent)
    lengths = {len(values_by_agent[a]) for a in agents}
    if len(lengths) != 1:
        raise ProtocolError(f"agents disagree on candidate count: {sorted(lengths)}")
    (m,) = lengths
    if m == 0:
        raise ProtocolError("empty candidate sequence")
    units = np.stack([np.asarray(values_by_agent[a], dtype=np.int64) for a in agents])
    check_headroom(units)
    return agents, units


def share_slots(topology: NeighborMap, m: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Where a round over ``topology`` and ``m`` candidates sends its shares.

    ``destinations`` is (rows * m,), flat in row-major order: the slot each
    value's send share goes to, as the flat index ``t * m + h`` of row t's
    entry for the same candidate h, every row at its first target. A
    single-edge row's destinations never change. ``slots`` maps each
    multi-edge row to its targets' slots ``t * m``, from which a round picks
    that row's destinations anew. A row with no out-edge raises
    TopologyError.
    """
    indptr, targets = topology.indptr, topology.targets
    degree = np.diff(indptr)
    if not degree.all():
        raise TopologyError(f"agent {topology.ids[np.argmin(degree)]} has no out-edges")
    destinations = (targets[indptr[:-1], None] * m + np.arange(m)).reshape(-1)
    starts = indptr.tolist()
    slots = {r: targets[starts[r]:starts[r + 1]] * m
             for r in np.flatnonzero(degree > 1).tolist()}
    return destinations, slots


class MaskBlocks:
    """An epoch's masking rounds, drawn a block at a time from two streams.

    ``mask(wire)`` masks the next round into a ``WireBuffers`` whose
    ``quantize`` made its units (``mask_units``) and returns ``wire.masked``;
    ``kept`` and ``destinations`` then hold that round's (rows, m) kept
    fractions and flat share destinations until the next round.
    ``fractions``, a (rounds, rows, m) block, and ``routes``, the
    aggregator's (row 0's) destinations as a (rounds, m) block, each hold up
    to ``iterations`` rounds and ``BLOCK_CELLS`` values, at least one round.
    A block is refilled by one ``fraction_rng.random(out=...)`` or
    ``route_rng.integers(degree, size=(rounds, m))`` call when its first
    round is reached. Every other row sends to its one target, as
    ``share_slots`` lays it out. Each stream is read in order, as
    round-by-round ``random((rows, m))`` and ``integers(degree, size=m)``
    draws read it, so the rounds do not depend on the block sizes. A graph
    with another multi-edge row than the aggregator's raises TopologyError;
    an aggregator with one out-edge draws no routes.
    """

    __slots__ = ("fractions", "routes", "destinations", "kept", "_slots", "_fraction_rng",
                 "_route_rng", "_round", "_fraction_views", "_route_views")

    def __init__(self, topology: NeighborMap, m: int, iterations: int, fraction_rng,
                 route_rng):
        self.destinations, slots = share_slots(topology, m)
        self._slots = slots.pop(0, None)
        if slots:
            raise TopologyError(f"agent {topology.ids[min(slots)]} has several out-edges: "
                                "only the aggregator's row may")
        rows = len(topology.ids)
        self.fractions = np.empty((min(iterations, max(1, BLOCK_CELLS // (rows * m))), rows, m))
        self.routes = np.empty((min(iterations, max(1, BLOCK_CELLS // m)), m), dtype=np.int64)
        self._fraction_views, self._route_views = list(self.fractions), list(self.routes)
        self._fraction_rng, self._route_rng = fraction_rng, route_rng
        self._round, self.kept = itertools.count(), None

    def mask(self, wire: WireBuffers) -> np.ndarray:
        """Mask the next round into ``wire``; a block is drawn whole when its
        first round is reached."""
        k = next(self._round)
        j = k % len(self._fraction_views)
        if not j:
            self._fraction_rng.random(out=self.fractions)
        slots = self._slots
        if slots is not None:
            i = k % len(self._route_views)
            if not i:
                routes = self.routes
                np.add(slots[self._route_rng.integers(len(slots), size=routes.shape)],
                       np.arange(routes.shape[1]), out=routes)
            route = self._route_views[i]
            self.destinations[:len(route)] = route
        self.kept = self._fraction_views[j]
        return mask_units(wire, self.kept, self.destinations)


def mask_units(wire: WireBuffers, fractions: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    """Additive split of every value of the (rows, m) units in ``wire``,
    which its ``quantize`` made; returns ``wire.masked``.

    Row r keeps ``rint(fraction * units)`` of candidate h and sends the rest
    to the slot ``destinations[r * m + h]``, a flat (rows * m,) array (see
    ``share_slots``); each row reports what it kept plus what it received.
    Column sums are conserved exactly. The round overwrites the wire's
    ``scaled`` and ``units``.
    """
    # the float product rounds just as ``fractions * units`` would
    kept = np.multiply(fractions, wire.scaled, wire.scaled)
    np.rint(kept, kept)
    masked = wire.masked
    masked[...] = kept  # whole floats no larger than |units|: the cast is exact
    np.subtract(wire.units, masked, wire.units)
    np.add.at(wire.flat_masked, destinations, wire.flat_units)
    return masked


def shuffle_round(
    values_by_agent: Mapping[int, np.ndarray],
    topology: NeighborMap,
    rng,
    fractions: Mapping[int, Sequence[float]] | None = None,
) -> dict[int, np.ndarray]:
    """One split / exchange / aggregate round over every participant.

    ``values_by_agent`` maps each participating agent's id (available EVs and
    the aggregator) to its int64 unit-values for the common candidate
    sequence, which must keep the wire's rule (module docstring), else
    ProtocolError names the first agent whose unit float64 cannot hold or
    the candidate beyond the headroom. Every agent splits each
    value, sends one share to one of its out-edge neighbours (chosen per
    candidate when it has several), keeps the other, then adds the shares
    it received. Returns the masked unit-values per
    agent; per-candidate totals over all agents are conserved exactly.

    The reports must come from exactly the agents of ``topology``, else
    TopologyError names both id lists; in ascending id order they are the
    topology's rows, so results do not depend on traversal order. Rows draw
    from ``rng`` in row order: m uniform fractions (none for a forced row),
    then, for a row with several out-edges, one out-edge per candidate
    (``integers(degree, size=m)``) among its ``share_slots``. ``fractions``
    forces the kept fraction per agent and candidate: m values, each in
    [0, 1], so that both shares of a value lie between 0 and the value,
    else ProtocolError names the agent; forcing them for an agent that does
    not report raises TopologyError naming it.
    """
    agents, units = _stacked(values_by_agent)
    if agents != topology.ids.tolist():
        raise TopologyError(f"reports from agents {agents}, but the topology has agents "
                            f"{topology.ids.tolist()}")
    fractions = fractions or {}
    reporting = set(agents)
    for agent in fractions:
        if agent not in reporting:
            raise TopologyError(f"fractions forced for agent {agent}, which does not report")
    for agent, row in zip(agents, units.tolist()):
        inexact = [u for u in row if int(float(u)) != u]
        if inexact:
            raise ProtocolError(f"agent {agent}: unit {inexact[0]} is beyond the wire, "
                                "as float64 cannot hold it")
    m = units.shape[1]
    kept = np.empty(units.shape)
    for r, agent in enumerate(agents):
        if agent in fractions:
            f = np.asarray(fractions[agent], dtype=float)
            if f.shape != (m,) or not np.all((0.0 <= f) & (f <= 1.0)):
                raise ProtocolError(f"forced fractions for agent {agent} must be "
                                    f"{m} values in [0, 1]")
            kept[r] = f
    destinations, slots = share_slots(topology, m)
    rows, columns = destinations.reshape(-1, m), np.arange(m)
    rng = np.random.default_rng(rng)
    for r, row in enumerate(kept):
        if agents[r] not in fractions:
            rng.random(out=row)
        if r in slots:
            np.add(slots[r][rng.integers(len(slots[r]), size=m)], columns, out=rows[r])
    wire = WireBuffers(units.shape)
    wire.quantize(units)
    return dict(zip(agents, mask_units(wire, kept, destinations)))


@functools.lru_cache(maxsize=16)
def _ones(rows: int) -> np.ndarray:
    ones = np.ones(rows, dtype=np.int64)
    ones.flags.writeable = False
    return ones


def candidate_totals(units) -> np.ndarray:
    """Exact per-candidate sum of unit-values over all agents.

    ``units`` is an int64 (agents x candidates) numpy matrix, or an id-keyed
    mapping of unit-values, which must pass ``check_headroom``. The sum is
    one int64 matvec against a ones vector held per row count: integer sums
    do not depend on the order of the additions, so it equals
    ``np.add.reduce(units, axis=0)`` bit for bit.
    """
    if not isinstance(units, np.ndarray):
        units = _stacked(units)[1]
    return _ones(units.shape[0]) @ units
