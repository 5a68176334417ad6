"""Simulated communication graph and synchronous message transport.

Agents are EVs and one aggregator. Edges are out-edges: ``out_edges[a]``
lists the agents ``a`` may send shares to. Links are lossless and
instantaneous; a round is a barrier (all sends complete before any receive
is observed).

A graph is held as integer arrays over rows, one row per agent in agent
order; ``ids[r]`` names row r's agent as an integer: the EV id (>= 0), or
``-1 - index`` for an aggregator. A built topology has the aggregator in
row 0 (id -1) and the available EVs in rows 1..N in ascending id order: the
row order of the protocol's value matrix. The protocol path works on these
arrays alone and holds no ``AgentId``; agent-keyed views are built on access.
This module holds only the graph: where a round's shares land, per row and
candidate, is laid out by ``shuffle.SplitBuffers``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fleet import Fleet, available_ids


class TopologyError(ValueError):
    """Invalid graph construction or routing to an unknown agent."""


class AgentKind(enum.Enum):
    EV = "ev"
    AGGREGATOR = "aggregator"


@dataclass(frozen=True)
class AgentId:
    kind: AgentKind
    index: int

    def sort_key(self) -> tuple[str, int]:
        return (self.kind.value, self.index)

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"


AGGREGATOR_ID = AgentId(AgentKind.AGGREGATOR, 0)


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
    """Per-agent out-edges as three integer arrays over rows.

    ``ids[r]`` is the agent of row r (rows in agent sort order): an EV id,
    or ``-1 - index`` for an aggregator. Row r may send to the rows
    ``targets[indptr[r]:indptr[r + 1]]``. Every participating EV keeps at
    least one out-edge. ``rows`` (the ``AgentId`` of each row) and
    ``out_edges`` (the same graph keyed by agent) are built on access.
    """

    ids: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray

    @classmethod
    def from_edges(cls, edges: Mapping[AgentId, Sequence[AgentId]]) -> "NeighborMap":
        """Index form of an agent-keyed edge map; targets must be keys too,
        and every EV needs an out-edge."""
        rows = sorted(edges, key=AgentId.sort_key)
        row_of = {agent: r for r, agent in enumerate(rows)}
        try:
            targets = [row_of[t] for agent in rows for t in edges[agent]]
        except KeyError as exc:
            raise TopologyError(f"edge to {exc.args[0]} points outside the graph") from None
        for agent in rows:
            if agent.kind is AgentKind.EV and not edges[agent]:
                raise TopologyError(f"EV agent {agent} needs at least one out-edge")
        ids = [a.index if a.kind is AgentKind.EV else -1 - a.index for a in rows]
        degree = [len(edges[agent]) for agent in rows]
        return cls(np.array(ids, dtype=np.intp), np.cumsum([0] + degree),
                   np.array(targets, dtype=np.intp))

    @cached_property
    def rows(self) -> tuple[AgentId, ...]:
        return tuple(AgentId(AgentKind.EV, i) if i >= 0 else AgentId(AgentKind.AGGREGATOR, -1 - i)
                     for i in self.ids.tolist())

    @property
    def out_edges(self) -> dict[AgentId, tuple[AgentId, ...]]:
        rows, indptr, targets = self.rows, self.indptr.tolist(), self.targets.tolist()
        return {
            agent: tuple(rows[t] for t in targets[indptr[r]:indptr[r + 1]])
            for r, agent in enumerate(rows)
        }


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
        return NeighborMap.from_edges(custom_edges)

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

    ids = np.array([-1] + avail, dtype=np.intp)
    indptr = np.concatenate(([0], np.arange(n, 2 * n + 1)))  # aggregator: n edges, EVs: 1
    targets = np.concatenate((np.arange(1, n + 1), ev_targets)).astype(np.intp)
    return NeighborMap(ids, indptr, targets)


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
