"""Simulated communication graph and synchronous message transport.

Agents are EVs and one aggregator, each named by an integer id: the EV id
(>= 0), or ``AGGREGATOR_ID`` (-1). Edges are out-edges: an agent sends
shares along its own. Links are lossless and instantaneous; a round is a
barrier (all sends complete before any receive is observed).

A graph is held as integer arrays over rows, one row per agent in ascending
id order; ``ids[r]`` is row r's agent. A built topology has the aggregator in
row 0 and the available EVs in rows 1..N in ascending id order: the row
order of the protocol's value matrix. This module holds only the graph:
where a round's shares land, per row and candidate, is laid out by
``shuffle.share_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fleet import Fleet, available_ids


class TopologyError(ValueError):
    """Invalid graph construction or routing to an unknown agent."""


AGGREGATOR_ID = -1


def ev_agent(index: int) -> int:
    """The agent id of EV ``index``: the index itself, which must be >= 0."""
    if index < 0:
        raise ValueError(f"EV index must be >= 0, got {index}")
    return index


@dataclass(frozen=True)
class Envelope:
    """One message delivered within the current round."""

    sender: int
    recipient: int
    payload: object


@dataclass(frozen=True, eq=False)
class NeighborMap:
    """Per-agent out-edges as three integer arrays over rows.

    ``ids[r]`` is the agent id of row r, in ascending order (the aggregator
    first). Row r may send to the rows ``targets[indptr[r]:indptr[r + 1]]``.
    Every participating EV keeps at least one out-edge.
    """

    ids: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray

    @classmethod
    def from_edges(cls, edges: Mapping[int, Sequence[int]]) -> "NeighborMap":
        """Index form of an id-keyed edge map; every key must be an EV id or
        ``AGGREGATOR_ID``, targets must be keys too, and every EV needs an
        out-edge."""
        for agent, out in edges.items():
            if not isinstance(agent, (int, np.integer)) or agent < AGGREGATOR_ID:
                raise TopologyError(f"agent id {agent!r} is neither an EV id >= 0 nor -1")
            if agent >= 0 and not out:
                raise TopologyError(f"EV {agent} needs at least one out-edge")
        ids = sorted(edges)
        row_of = {agent: r for r, agent in enumerate(ids)}
        try:
            targets = [row_of[t] for agent in ids for t in edges[agent]]
        except KeyError as exc:
            raise TopologyError(f"edge to {exc.args[0]} points outside the graph") from None
        degree = [len(edges[agent]) for agent in ids]
        return cls(np.array(ids, dtype=np.intp), np.cumsum([0] + degree),
                   np.array(targets, dtype=np.intp))


POLICIES = ("one-random-neighbor", "ring")


def build_topology(
    fleet: Fleet,
    policy: str = "one-random-neighbor",
    rng=None,
    custom_edges: dict[int, tuple[int, ...]] | None = None,
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
    agents: Sequence[int] | None = None,
) -> dict[int, list[Envelope]]:
    """Deliver every envelope exactly once, all within one barrier round.

    Inboxes are keyed by recipient and ordered by (sender, send order), so the
    result is independent of the interleaving the caller produced the
    envelopes in. With ``agents`` given, every listed agent gets an inbox
    (possibly empty) and unknown recipients raise.
    """
    inboxes: dict[int, list[Envelope]] = {a: [] for a in agents or ()}
    # a stable sort: one sender's envelopes to one recipient keep send order
    for env in sorted(envelopes, key=lambda env: (env.recipient, env.sender)):
        if agents is not None and env.recipient not in inboxes:
            raise TopologyError(f"unknown recipient {env.recipient}")
        inboxes.setdefault(env.recipient, []).append(env)
    return inboxes
