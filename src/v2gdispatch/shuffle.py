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
silent wrap.

One round works on the whole (agents x candidates) unit matrix: row 0 is the
aggregator and rows 1..N are the EVs in ascending id order (the rows of a
built ``NeighborMap``). ``draw_split`` draws every kept fraction and share
destination, ``mask_units`` applies them. ``shuffle_round`` is the same
round over an agent-keyed mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# deliver_round stays bound here: perfbench/tracer.py wraps shuffle.deliver_round
from .topology import AgentId, NeighborMap, TopologyError, deliver_round  # noqa: F401

DEFAULT_UNIT_BITS = 40
_INT64_BOUND = 2.0**63  # magnitudes at or beyond this do not fit int64


class ProtocolError(RuntimeError):
    """Agents disagree on the candidate keys, a report is incomplete, or a
    value does not fit the int64 wire."""


def to_units(value: float, unit_bits: int = DEFAULT_UNIT_BITS) -> int:
    """Quantize a currency value to integer grid units."""
    return int(round(value * (1 << unit_bits)))


def from_units(units: int, unit_bits: int = DEFAULT_UNIT_BITS) -> float:
    """Exact float value of integer grid units (scaling by a power of two)."""
    return float(units) * 2.0 ** -unit_bits


def to_units_array(values: np.ndarray, unit_bits: int = DEFAULT_UNIT_BITS) -> np.ndarray:
    """Quantize currency values to int64 grid units; raises ProtocolError for
    a value whose units int64 cannot hold (or that is not finite)."""
    scaled = np.rint(np.asarray(values, dtype=float) * float(1 << unit_bits))
    if not np.all(np.abs(scaled) < _INT64_BOUND):
        raise ProtocolError(f"value beyond the int64 wire at {unit_bits} unit bits")
    return scaled.astype(np.int64)


def check_headroom(units: np.ndarray) -> None:
    """Raise ProtocolError unless every column's sum of |units| is below 2**63.

    A row keeps ``rint(f * u)`` of its value ``u`` and sends the rest, so
    both shares lie between 0 and ``u``; every masked value, column total
    and partial sum of one is therefore bounded by its column's sum of
    |units|, and under this bound none can wrap.
    """
    if units.size == 0:
        return
    spans = np.abs(units).sum(axis=0, dtype=float)
    # the float sums are far closer than a factor 2 to the exact ones:
    # only a column near the bound needs the exact integer sum
    for h in np.flatnonzero(spans >= 2.0**62).tolist():
        span = sum(abs(u) for u in units[:, h].tolist())
        if span >= 1 << 63:
            raise ProtocolError(
                f"candidate {h}: {units.shape[0]} reports sum to {span} units in magnitude, "
                "beyond the int64 wire"
            )


def from_units_array(units: np.ndarray, unit_bits: int = DEFAULT_UNIT_BITS) -> np.ndarray:
    return np.asarray(units, dtype=float) * 2.0 ** -unit_bits


@dataclass(frozen=True)
class CandidateMapping:
    """One (broadcast candidate rate, evaluated-or-masked cost) pair."""

    index: int
    rate_kw: float
    value: float


@dataclass(frozen=True)
class SplitShares:
    """Two additive shares of one cost value; keep + send == the value."""

    keep: float
    send: float


def split_units(units: int, rng, fraction: float | None = None) -> tuple[int, int]:
    """Split integer units into (keep, send); ``fraction`` is the kept share
    of the value, drawn uniformly on [0, 1] unless forced. Fraction 1.0 is the
    identity split (keep everything, send nothing)."""
    if fraction is None:
        fraction = float(rng.random())
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    keep = int(round(fraction * units))
    return keep, units - keep


def split_value(
    value: float,
    rng,
    fraction: float | None = None,
    unit_bits: int = DEFAULT_UNIT_BITS,
) -> SplitShares:
    """Split a currency value into two shares summing exactly to its
    quantized representation (exact for values already on the unit grid)."""
    units = to_units(value, unit_bits)
    keep, send = split_units(units, rng, fraction)
    return SplitShares(keep=from_units(keep, unit_bits), send=from_units(send, unit_bits))


def masking_check(original, masked) -> bool:
    """True iff the shuffled value no longer equals the original."""
    return bool(masked != original)


def _stacked(values_by_agent: Mapping[AgentId, np.ndarray]) -> tuple[list[AgentId], np.ndarray]:
    """Agents in sort order and their unit-values stacked as matrix rows."""
    if not values_by_agent:
        raise ProtocolError("no agent mappings to shuffle")
    agents = sorted(values_by_agent, key=AgentId.sort_key)
    lengths = {len(values_by_agent[a]) for a in agents}
    if len(lengths) != 1:
        raise ProtocolError(f"agents disagree on candidate count: {sorted(lengths)}")
    (m,) = lengths
    if m == 0:
        raise ProtocolError("empty candidate sequence")
    return agents, np.stack([np.asarray(values_by_agent[a], dtype=np.int64) for a in agents])


def draw_split(
    topology: NeighborMap,
    m: int,
    rng,
    forced: Mapping[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kept fractions and share destinations for one round over ``m`` candidates.

    Returns two (rows, m) arrays: the fraction of each value its row keeps,
    and the row its send share goes to. Rows draw in row order: m uniform
    fractions, then, for a row with several out-edges, one out-edge per
    candidate. A run of single-edge rows draws its fractions in one call,
    which consumes ``rng`` exactly as row-by-row draws would. ``forced``
    maps a row to fractions used instead of drawn ones.
    """
    n_rows = len(topology.rows)
    destinations = np.empty((n_rows, m), dtype=np.intp)
    destinations[:] = topology.only_target[:, None]
    fractions = np.empty((n_rows, m))
    stops = topology.multi_edge_rows
    if forced:
        stops = sorted(set(stops) | set(forced))
    start = 0
    for r in stops:
        if r > start:
            fractions[start:r] = rng.random((r - start, m))
        fractions[r] = forced[r] if forced and r in forced else rng.random(m)
        first, last = topology.indptr[r], topology.indptr[r + 1]
        if last - first == 0:
            raise TopologyError(f"agent {topology.rows[r]} has no out-edges")
        if last - first > 1:
            destinations[r] = topology.targets[first + rng.integers(last - first, size=m)]
        start = r + 1
    if start < n_rows:
        fractions[start:] = rng.random((n_rows - start, m))
    return fractions, destinations


def mask_units(units: np.ndarray, fractions: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    """Additive split of every value of an int64 (rows, m) unit matrix.

    Row r keeps ``rint(fraction * units)`` of candidate h and sends the rest
    to row ``destinations[r, h]``; each row reports what it kept plus what
    it received. Column sums are conserved exactly. The input is unchanged.
    """
    masked = np.rint(fractions * units).astype(np.int64)
    sends = units - masked
    m = units.shape[1]
    np.add.at(masked.reshape(-1), (destinations * m + np.arange(m)).reshape(-1), sends.reshape(-1))
    return masked


def shuffle_round(
    values_by_agent: Mapping[AgentId, np.ndarray],
    topology: NeighborMap,
    rng,
    fractions: Mapping[AgentId, Sequence[float]] | None = None,
) -> dict[AgentId, np.ndarray]:
    """One split / exchange / aggregate round over every participant.

    ``values_by_agent`` maps each participating agent (available EVs and the
    aggregator) to its int64 unit-values for the common candidate sequence.
    Every agent splits each value, sends one share to one of its out-edge
    neighbours (chosen per candidate when it has several), keeps the other,
    then adds the shares it received. Returns the masked unit-values per
    agent; per-candidate totals over all agents are conserved exactly.

    The agents, in sort order, are the rows of one ``draw_split`` /
    ``mask_units`` round, so results do not depend on traversal order.
    ``fractions`` forces the kept fraction per agent and candidate.
    """
    agents, units = _stacked(values_by_agent)
    m = units.shape[1]
    forced = {}
    for r, agent in enumerate(agents):
        if fractions is not None and agent in fractions:
            forced[r] = np.asarray(fractions[agent], dtype=float)
            if forced[r].shape != (m,):
                raise ProtocolError(f"forced fractions for {agent} must have length {m}")
    graph = NeighborMap.from_edges({a: topology.neighbors_of(a) for a in agents})
    split = draw_split(graph, m, np.random.default_rng(rng), forced)
    return dict(zip(agents, mask_units(units, *split)))


def candidate_totals(units) -> np.ndarray:
    """Exact per-candidate sum of unit-values over all agents.

    ``units`` is an int64 (agents x candidates) matrix, or an agent-keyed
    mapping of unit-values.
    """
    if isinstance(units, Mapping):
        units = _stacked(units)[1]
    return np.asarray(units, dtype=np.int64).sum(axis=0)


def audit_rows(
    agent: AgentId,
    rates: Sequence[float],
    units: np.ndarray,
    unit_bits: int = DEFAULT_UNIT_BITS,
) -> list[CandidateMapping]:
    """Materialize one agent's mappings for an audit log."""
    return [
        CandidateMapping(index=h, rate_kw=float(rates[h]), value=from_units(int(units[h]), unit_bits))
        for h in range(len(rates))
    ]
