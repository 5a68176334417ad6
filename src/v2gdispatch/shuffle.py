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
with and without shuffling. A value int64 cannot hold is an error, never a
silent wrap: the mapping path checks each round's reports
(``to_units_array``, ``check_headroom``), and an epoch checks once, before
its first round, that no report it can make reaches 2**63 in any column
(``wire_bound``), then quantizes unchecked (``WireBuffers.quantize``).

One round works on the whole (agents x candidates) unit matrix: row 0 is the
aggregator and rows 1..N are the EVs in ascending id order (the rows of a
built ``NeighborMap``, whose ``ids`` hold each row's agent id: the EV id, or
-1 for the aggregator). ``SplitBuffers.draw`` draws every kept fraction and
share destination from the graph's integer arrays, ``mask_units`` applies them.
``shuffle_round`` is the same round over an id-keyed mapping of the
topology's agents.
``candidate_totals`` sums the reports per candidate.
This module owns the share-slot layout: a send share of row r's candidate h
lands in the flat slot ``t * m + h`` of its target row t, and ``SplitBuffers``
alone derives those slots from the graph's ``indptr`` and ``targets``.

A run of rounds over one matrix shape can quantize into the same
``WireBuffers`` and pass them to ``mask_units``, and draw each round from
the same ``SplitBuffers``, so each round touches each matrix once,
allocates none and makes its views and plan lookups not per round but once,
when the buffers are built.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

# deliver_round stays bound here: perfbench/tracer.py wraps shuffle.deliver_round
from .topology import NeighborMap, TopologyError, deliver_round  # noqa: F401

DEFAULT_UNIT_BITS = 40
_INT64_BOUND = 2.0**63  # magnitudes at or beyond this do not fit int64


class ProtocolError(RuntimeError):
    """Agents disagree on the candidate keys, a report is incomplete, a
    value does not fit the int64 wire, or forced split fractions are not
    m values in [0, 1]."""


class WireBuffers:
    """The matrices of one round on the wire, reused by every round of a run.

    ``quantize(values, unit_bits)`` leaves ``rint(values * 2**unit_bits)``
    in ``scaled`` (whole numbers, held exactly as floats) and their int64
    cast in ``units``, unchecked: the caller has shown that the values fit
    (``wire_bound``, or ``to_units_array``'s check). ``mask_units(wire.units,
    ..., out=wire)`` then overwrites ``scaled`` with the kept shares and
    ``units`` with the sends, and returns ``masked``; it adds the sends in
    through the flat views of the two.
    """

    __slots__ = ("scaled", "units", "masked", "flat_units", "flat_masked")

    def __init__(self, shape: tuple[int, ...]):
        self.scaled = np.empty(shape)
        self.units = np.empty(shape, dtype=np.int64)
        self.masked = np.empty(shape, dtype=np.int64)
        self.flat_units = self.units.reshape(-1)
        self.flat_masked = self.masked.reshape(-1)

    def quantize(self, values: np.ndarray, unit_bits: int) -> np.ndarray:
        """The values as int64 units of 2**-unit_bits: multiply, ``rint``, cast."""
        scaled = np.multiply(values, float(1 << unit_bits), out=self.scaled)
        np.rint(scaled, out=scaled)
        self.units[...] = scaled
        return self.units


def to_units_array(values, unit_bits: int = DEFAULT_UNIT_BITS) -> np.ndarray:
    """Quantize currency values to int64 grid units, in fresh buffers; raises
    ProtocolError for a value whose units int64 cannot hold (or that is not
    finite), before any value is cast."""
    values = np.asarray(values, dtype=float)
    # the largest magnitude, from both extremes (no |x| temporary); it is NaN
    # when any value is, since then both extremes are. Scaling by 2**unit_bits
    # is exact and rint moves no float at or beyond 2**52, so the scaled peak
    # is below 2**63 exactly when every quantized value is.
    peak = float(max(np.maximum.reduce(values, axis=None, initial=0.0),
                     -np.minimum.reduce(values, axis=None, initial=0.0)))
    if not peak * float(1 << unit_bits) < _INT64_BOUND:
        raise ProtocolError(f"value beyond the int64 wire at {unit_bits} unit bits")
    return WireBuffers(values.shape).quantize(values, unit_bits)


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
    """Raise ProtocolError unless every column's sum of |units| is below 2**63.

    A row keeps ``rint(f * u)`` of its value ``u`` and sends the rest, so
    both shares lie between 0 and ``u``; every masked value, column total
    and partial sum of one is therefore bounded by its column's sum of
    |units|, and under this bound none can wrap. The mapping path
    (``shuffle_round``, ``candidate_totals`` of a mapping) checks each
    round's reports with it; an epoch bounds its reports once, before its
    first round, with ``wire_bound``.
    """
    if units.size == 0:
        return
    # as uint64, since int64 cannot hold |-2**63|
    peak = np.abs(units).view(np.uint64).max()
    # rows times the largest magnitude bounds every column's sum: almost
    # always far below the bound, which settles every column at once
    if units.shape[0] * int(peak) < 1 << 62:
        return
    spans = np.abs(units).view(np.uint64).sum(axis=0, dtype=float)
    # the float sums are far closer than a factor 2 to the exact ones:
    # only a column near the bound needs the exact integer sum
    for h in np.flatnonzero(spans >= 2.0**62).tolist():
        span = sum(abs(u) for u in units[:, h].tolist())
        if span >= 1 << 63:
            raise ProtocolError(
                f"candidate {h}: {units.shape[0]} reports sum to {span} units in magnitude, "
                "beyond the int64 wire"
            )


def from_units_array(units, unit_bits: int = DEFAULT_UNIT_BITS) -> np.ndarray:
    return np.multiply(units, 2.0 ** -unit_bits)


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


class SplitBuffers:
    """The kept fractions and share destinations of rounds over one topology
    and ``m`` candidates; ``draw`` refills them for each round.

    ``fractions`` is (rows, m): the fraction of each value its row keeps.
    ``destinations`` is flat, (rows * m,) in row-major order: the slot each
    value's send share goes to, as the flat index ``t * m + h`` of row t's
    entry for the same candidate h. Each row starts at its first target; a
    single-edge row's destinations never change, and a multi-edge row's are
    redrawn each round from its targets' slots ``t * m``. A row with no
    out-edge raises TopologyError. ``forced`` maps a row to the fractions it
    keeps in every round, written here once: m values, each in [0, 1], so
    that both shares of a value lie between 0 and the value.
    """

    __slots__ = ("fractions", "destinations", "_columns", "_draws", "_tail")

    def __init__(self, topology: NeighborMap, m: int,
                 forced: Mapping[int, Sequence[float]] | None = None):
        indptr, targets = topology.indptr, topology.targets
        degree = np.diff(indptr)
        if not degree.all():
            raise TopologyError(f"agent {topology.ids[np.argmin(degree)]} has no out-edges")
        fractions = self.fractions = np.empty((len(degree), m))
        forced = forced or {}
        for r, f in forced.items():
            f = np.asarray(f, dtype=float)
            if f.shape != (m,) or not np.all((0.0 <= f) & (f <= 1.0)):
                raise ProtocolError(f"forced fractions for agent {topology.ids[r]} must be "
                                    f"{m} values in [0, 1]")
            fractions[r] = f
        self._columns = np.arange(m)
        destinations = self.destinations = (
            targets[indptr[:-1], None] * m + self._columns).reshape(-1)
        starts = indptr.tolist()
        multi = {r: (starts[r + 1] - starts[r], targets[starts[r]:starts[r + 1]] * m,
                     destinations[r * m:(r + 1) * m])
                 for r in np.flatnonzero(degree > 1).tolist()}
        # per row that does not just draw its fractions, in row order: the
        # block of fractions drawn up to it (itself included unless forced)
        # and, for a multi-edge row, its route: degree, target slots and
        # destinations
        draws = []
        start = 0
        for r in sorted(multi.keys() | forced.keys()):
            block = fractions[start:r] if r in forced else fractions[start:r + 1]
            draws.append((block, multi.get(r)))
            start = r + 1
        self._draws = tuple(draws)
        self._tail = fractions[start:]

    def draw(self, rng) -> SplitBuffers:
        """Refill the buffers for one round and return them.

        Rows draw in row order: m uniform fractions (none for a forced row),
        then, for a row with several out-edges, one out-edge per candidate
        (``integers(degree, size=m)``). A run of rows draws its fractions in
        one call, which consumes ``rng`` exactly as row-by-row draws would.
        """
        random, integers, columns = rng.random, rng.integers, self._columns
        for block, route in self._draws:
            random(out=block)
            if route:
                degree, slots, destinations = route
                np.add(slots[integers(degree, size=columns.size)], columns, out=destinations)
        random(out=self._tail)
        return self


def mask_units(units: np.ndarray, fractions: np.ndarray, destinations: np.ndarray,
               out: WireBuffers | None = None) -> np.ndarray:
    """Additive split of every value of an int64 (rows, m) unit matrix.

    Row r keeps ``rint(fraction * units)`` of candidate h and sends the rest
    to the slot ``destinations[r * m + h]``, a flat (rows * m,) array (see
    ``SplitBuffers``); each row reports what it kept plus what it received.
    Column sums are conserved exactly. Without ``out`` the input is
    unchanged. ``out`` is the ``WireBuffers`` whose ``quantize`` made
    these units: the round then works in its buffers and returns
    ``out.masked``.
    """
    if out is None:
        out = WireBuffers(units.shape)
        out.scaled[...] = units
    # the float product rounds just as ``fractions * units`` would
    kept = np.multiply(fractions, out.scaled, out=out.scaled)
    np.rint(kept, out=kept)
    masked = out.masked
    masked[...] = kept  # whole floats no larger than |units|: the cast is exact
    np.subtract(units, masked, out=out.units)
    np.add.at(out.flat_masked, destinations, out.flat_units)
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
    sequence, which must pass ``check_headroom``. Every agent splits each
    value, sends one share to one of its out-edge neighbours (chosen per
    candidate when it has several), keeps the other, then adds the shares
    it received. Returns the masked unit-values per
    agent; per-candidate totals over all agents are conserved exactly.

    The reports must come from exactly the agents of ``topology``, else
    TopologyError names both id lists; in ascending id order they are the
    topology's rows, drawn as one ``SplitBuffers`` round on it, so results
    do not depend on traversal order. ``fractions`` forces the kept
    fraction per agent and candidate.
    """
    agents, units = _stacked(values_by_agent)
    if agents != topology.ids.tolist():
        raise TopologyError(f"reports from agents {agents}, but the topology has agents "
                            f"{topology.ids.tolist()}")
    fractions = fractions or {}
    forced = {r: fractions[agent] for r, agent in enumerate(agents) if agent in fractions}
    split = SplitBuffers(topology, units.shape[1], forced).draw(np.random.default_rng(rng))
    return dict(zip(agents, mask_units(units, split.fractions, split.destinations)))


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
