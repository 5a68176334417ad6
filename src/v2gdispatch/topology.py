"""Simulated communication graph and synchronous message transport.

Agents are EVs, one aggregator and one coordination node (ECN). Edges are
out-edges: ``out_edges[a]`` lists the agents ``a`` may send shares to. Links
are lossless and instantaneous; a round is a barrier (all sends complete
before any receive is observed).

A graph is held as index arrays over rows, one row per agent in agent order.
A built topology has the aggregator in row 0 and the available EVs in rows
1..N in ascending id order: the row order of the protocol's value matrix.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fleet import Fleet, available_ids


class TopologyError(ValueError):
    """Invalid graph construction or routing to an unknown agent."""


class AgentKind(enum.Enum):
    EV = "ev"
    AGGREGATOR = "aggregator"
    ECN = "ecn"


@dataclass(frozen=True)
class AgentId:
    kind: AgentKind
    index: int

    def __post_init__(self) -> None:
        # cached: AgentIds key every hot-loop dict
        key = (self.kind.value, self.index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def sort_key(self) -> tuple[str, int]:
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"


AGGREGATOR_ID = AgentId(AgentKind.AGGREGATOR, 0)
ECN_ID = AgentId(AgentKind.ECN, 0)


@lru_cache(maxsize=None)
def ev_agent(index: int) -> AgentId:
    return AgentId(AgentKind.EV, index)


@dataclass(frozen=True)
class Envelope:
    """One message delivered within the current round."""

    sender: AgentId
    recipient: AgentId
    payload: object


@dataclass(frozen=True, eq=False)
class NeighborMap:
    """Per-agent out-edges as compressed index arrays over rows.

    ``rows[r]`` is the agent of row r (rows in agent sort order), and row r
    may send to the rows ``targets[indptr[r]:indptr[r + 1]]``. Every
    participating EV keeps at least one out-edge. ``out_edges`` gives the
    same graph keyed by agent, built on access.
    """

    rows: tuple[AgentId, ...]
    indptr: np.ndarray
    targets: np.ndarray

    @classmethod
    def from_edges(cls, edges: Mapping[AgentId, Sequence[AgentId]]) -> "NeighborMap":
        """Index form of an agent-keyed edge map; targets must be keys too."""
        rows = tuple(sorted(edges, key=AgentId.sort_key))
        row_of = {agent: r for r, agent in enumerate(rows)}
        try:
            targets = [row_of[t] for agent in rows for t in edges[agent]]
        except KeyError as exc:
            raise TopologyError(f"edge to {exc.args[0]} points outside the graph") from None
        degree = [len(edges[agent]) for agent in rows]
        return cls(rows, np.cumsum([0] + degree), np.array(targets, dtype=np.intp))

    @cached_property
    def _row_of(self) -> dict[AgentId, int]:
        return {agent: r for r, agent in enumerate(self.rows)}

    @cached_property
    def only_target(self) -> np.ndarray:
        """Per row, its one out-edge's row; -1 for a row with none or several."""
        degree = np.diff(self.indptr)
        only = np.full(len(self.rows), -1, dtype=np.intp)
        only[degree == 1] = self.targets[self.indptr[:-1][degree == 1]]
        return only

    @cached_property
    def multi_edge_rows(self) -> list[int]:
        """Rows with no or several out-edges, ascending."""
        return np.flatnonzero(np.diff(self.indptr) != 1).tolist()

    @property
    def out_edges(self) -> dict[AgentId, tuple[AgentId, ...]]:
        rows, indptr, targets = self.rows, self.indptr.tolist(), self.targets.tolist()
        return {
            agent: tuple(rows[t] for t in targets[indptr[r]:indptr[r + 1]])
            for r, agent in enumerate(rows)
        }

    def neighbors_of(self, agent: AgentId) -> tuple[AgentId, ...]:
        r = self._row_of.get(agent)
        if r is None:
            raise TopologyError(f"agent {agent} has no out-edges")
        return tuple(self.rows[t] for t in self.targets[self.indptr[r]:self.indptr[r + 1]].tolist())

    def agents(self) -> list[AgentId]:
        return list(self.rows)


POLICIES = ("one-random-neighbor", "ring")


def build_topology(
    fleet: Fleet,
    policy: str = "one-random-neighbor",
    rng=None,
    custom_edges: dict[AgentId, tuple[AgentId, ...]] | None = None,
) -> NeighborMap:
    """Build the communication graph over available EVs plus the aggregator.

    ``one-random-neighbor`` gives each EV exactly one target drawn uniformly
    from the other available EVs and the aggregator; ``ring`` chains the
    available EVs with the last pointing at the aggregator. The aggregator's
    out-edges are always the available EVs. Unavailable EVs get no edges.
    Deterministic for a fixed seed; O(N), and the fleet is not modified.
    """
    if custom_edges is not None:
        edges = dict(custom_edges)
        _validate_edges(edges)
        return NeighborMap.from_edges(edges)

    avail = available_ids(fleet)
    if not avail:
        raise TopologyError("no available EVs to connect")
    rng = np.random.default_rng(rng)
    n = len(avail)

    # rows: 0 the aggregator, p + 1 the EV at position p of ``avail``
    if policy == "one-random-neighbor":
        # EV p draws j uniformly over [other EVs in ascending order..., the
        # aggregator]: j = n - 1 is the aggregator, and j >= p skips EV p itself
        # (one vectorised draw consumes the stream as n scalar draws do)
        j = rng.integers(n, size=n)
        ev_targets = np.where(j == n - 1, 0, j + 1 + (j >= np.arange(n)))
    elif policy == "ring":
        ev_targets = np.arange(2, n + 2)
        ev_targets[-1] = 0
    else:
        raise TopologyError(f"unknown topology policy {policy!r}")

    rows = (AGGREGATOR_ID,) + tuple(map(ev_agent, avail))
    indptr = np.concatenate(([0], np.arange(n, 2 * n + 1)))  # aggregator: n edges, EVs: 1
    targets = np.concatenate((np.arange(1, n + 1), ev_targets)).astype(np.intp)
    return NeighborMap(rows, indptr, targets)


def _validate_edges(edges: dict[AgentId, tuple[AgentId, ...]]) -> None:
    agents = set(edges)
    for agent, targets in edges.items():
        if agent.kind is AgentKind.EV and not targets:
            raise TopologyError(f"EV agent {agent} needs at least one out-edge")
        for t in targets:
            if t not in agents:
                raise TopologyError(f"edge {agent} -> {t} points outside the graph")


def reroute(topology: NeighborMap, fleet: Fleet, rng=None) -> NeighborMap:
    """Reassign edges after a fleet shrink so none dangle.

    EVs whose target departed get a fresh uniform draw over the remaining
    valid targets; the aggregator's out-edges are refreshed to the available
    set. The input map is not modified.
    """
    avail = available_ids(fleet)
    if not avail:
        raise TopologyError("no available EVs to connect")
    rng = np.random.default_rng(rng)
    alive = {ev_agent(i) for i in avail} | {AGGREGATOR_ID}
    old_edges = topology.out_edges
    edges: dict[AgentId, tuple[AgentId, ...]] = {}
    for i in avail:
        agent = ev_agent(i)
        old = old_edges.get(agent, ())
        kept = tuple(t for t in old if t in alive)
        if not kept:
            targets = [ev_agent(j) for j in avail if j != i] + [AGGREGATOR_ID]
            kept = (targets[int(rng.integers(len(targets)))],)
        edges[agent] = kept
    edges[AGGREGATOR_ID] = tuple(ev_agent(i) for i in avail)
    return NeighborMap.from_edges(edges)


def deliver_round(
    envelopes: Iterable[Envelope],
    agents: Sequence[AgentId] | None = None,
) -> dict[AgentId, list[Envelope]]:
    """Deliver every envelope exactly once, all within one barrier round.

    Inboxes are keyed by recipient and ordered by (sender, send order), so the
    result is independent of the interleaving the caller produced the
    envelopes in. With ``agents`` given, every listed agent gets an inbox
    (possibly empty) and unknown recipients raise.
    """
    known = set(agents) if agents is not None else None
    inboxes: dict[AgentId, list[Envelope]] = (
        {a: [] for a in agents} if agents is not None else {}
    )
    ordered: list[tuple[tuple[str, int], int, Envelope]] = []
    per_sender_seq: dict[AgentId, int] = {}
    for env in envelopes:
        if known is not None and env.recipient not in known:
            raise TopologyError(f"unknown recipient {env.recipient}")
        seq = per_sender_seq.get(env.sender, 0)
        per_sender_seq[env.sender] = seq + 1
        ordered.append((env.sender.sort_key(), seq, env))
    ordered.sort(key=lambda item: (item[2].recipient.sort_key(), item[0], item[1]))
    for _, _, env in ordered:
        inboxes.setdefault(env.recipient, []).append(env)
    return inboxes


def export_topology(topology: NeighborMap, path) -> None:
    """Dump the edge list to CSV for audit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from", "to"])
        edges = topology.out_edges
        for agent in topology.agents():
            for target in edges[agent]:
                writer.writerow([str(agent), str(target)])
