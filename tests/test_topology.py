"""Communication graph construction and synchronous round delivery."""

import copy
import re
from collections import Counter

import numpy as np
import pytest

from v2gdispatch.fleet import available_ids, sample_fleet
from v2gdispatch.topology import (
    AGGREGATOR_ID,
    POLICIES,
    Envelope,
    NeighborMap,
    TopologyError,
    build_topology,
    deliver_round,
    ev_agent,
)


def test_one_random_neighbor_outdegree_exactly_one():
    fleet = sample_fleet(100, 4)
    topo = build_topology(fleet, "one-random-neighbor", 17)
    assert topo.ids.tolist() == [AGGREGATOR_ID] + list(range(100))
    # the aggregator's row sends to every EV row, each EV row to one row
    assert topo.indptr.tolist() == [0] + list(range(100, 201))
    assert topo.targets[:100].tolist() == list(range(1, 101))
    ev_targets = topo.targets[100:]
    assert np.all((0 <= ev_targets) & (ev_targets <= 100))
    assert np.all(ev_targets != np.arange(1, 101))  # no EV sends to itself


def test_one_random_neighbor_matches_scalar_reference():
    # reference: per EV, one uniform draw over the other EVs then the aggregator
    for n in (1, 2, 3, 17, 100):
        topo = build_topology(sample_fleet(n, n), "one-random-neighbor", 40 + n)
        rng = np.random.default_rng(40 + n)
        for i in range(n):
            targets = [ev_agent(j) for j in range(n) if j != i] + [AGGREGATOR_ID]
            row = topo.targets[topo.indptr[i + 1]:topo.indptr[i + 2]]
            assert topo.ids[row].tolist() == [targets[int(rng.integers(len(targets)))]]


def test_build_topology_leaves_the_fleet_unchanged(assert_same_fleet):
    fleet = sample_fleet(20, 6)
    before = copy.deepcopy(fleet)
    for policy in ("one-random-neighbor", "ring"):
        build_topology(fleet, policy, 5)
        assert_same_fleet(fleet, before)


def test_single_ev_gets_the_aggregator():
    fleet = sample_fleet(1, 0)
    for policy in ("one-random-neighbor", "ring"):
        topo = build_topology(fleet, policy, 3)
        assert topo.ids.tolist() == [AGGREGATOR_ID, ev_agent(0)]
        assert topo.indptr.tolist() == [0, 1, 2]
        assert topo.targets.tolist() == [1, 0]  # the aggregator's row is row 0


def test_same_seed_same_edges():
    fleet = sample_fleet(50, 8)
    a = build_topology(fleet, "one-random-neighbor", 21)
    b = build_topology(fleet, "one-random-neighbor", 21)
    for name in ("ids", "indptr", "targets"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_ring_policy_chains_available_evs():
    fleet = sample_fleet(5, 1)
    fleet.evs[2].departed = True
    topo = build_topology(fleet, "ring", 0)
    # rows: the aggregator, then EVs 0, 1, 3 and 4; EV 2 has no row
    assert topo.ids.tolist() == [AGGREGATOR_ID, 0, 1, 3, 4]
    assert topo.indptr.tolist() == [0, 4, 5, 6, 7, 8]
    # the aggregator sends to every EV; EV 0 -> 1 -> 3 -> 4 -> the aggregator
    assert topo.targets.tolist() == [1, 2, 3, 4, 2, 3, 4, 0]


def test_unknown_policy_and_empty_fleet_rejected():
    fleet = sample_fleet(3, 1)
    with pytest.raises(TopologyError):
        build_topology(fleet, "star", 0)
    for ev in fleet.evs:
        ev.departed = True
    with pytest.raises(TopologyError):
        build_topology(fleet, "one-random-neighbor", 0)


def test_custom_edges_validated():
    edges = {ev_agent(0): (AGGREGATOR_ID,), AGGREGATOR_ID: (ev_agent(0),)}
    topo = build_topology(sample_fleet(1, 0), custom_edges=edges)
    assert topo.ids.tolist() == [AGGREGATOR_ID, ev_agent(0)]
    assert topo.indptr.tolist() == [0, 1, 2]
    assert topo.targets.tolist() == [1, 0]
    with pytest.raises(TopologyError):
        build_topology(
            sample_fleet(1, 0),
            custom_edges={ev_agent(0): (ev_agent(5),), AGGREGATOR_ID: ()},
        )
    with pytest.raises(TopologyError, match="EV 1 needs at least one out-edge"):
        build_topology(
            sample_fleet(2, 0),
            custom_edges={ev_agent(0): (AGGREGATOR_ID,), ev_agent(1): (), AGGREGATOR_ID: ()},
        )


def _policy_edges(fleet, policy, seed):
    """The id-keyed edges ``policy`` defines, drawn EV by EV in ascending id
    order: a reference for the arrays ``build_topology`` builds at once."""
    avail = available_ids(fleet)
    rng = np.random.default_rng(seed)
    edges = {AGGREGATOR_ID: tuple(avail)}
    for p, ev in enumerate(avail):
        if policy == "ring":
            edges[ev] = (avail[p + 1],) if p + 1 < len(avail) else (AGGREGATOR_ID,)
        else:
            targets = [other for other in avail if other != ev] + [AGGREGATOR_ID]
            edges[ev] = (targets[int(rng.integers(len(targets)))],)
    return edges


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", [1, 2, 17, 100])
def test_agent_keyed_edges_rebuild_the_same_arrays(policy, n):
    # n available EVs, ids 0..n with EV n // 2 departed
    fleet = sample_fleet(n + 1, n)
    fleet.evs[n // 2].departed = True
    topo = build_topology(fleet, policy, 7)
    assert topo.ids.tolist() == [-1] + [i for i in range(n + 1) if i != n // 2]
    again = NeighborMap.from_edges(_policy_edges(fleet, policy, 7))
    for name in ("ids", "indptr", "targets"):
        built, rebuilt = getattr(topo, name), getattr(again, name)
        assert built.dtype == rebuilt.dtype and np.array_equal(built, rebuilt), name


def test_only_ev_ids_and_the_aggregator_name_agents():
    assert ev_agent(0) == 0 and AGGREGATOR_ID == -1
    with pytest.raises(ValueError, match="EV index must be >= 0, got -1"):
        ev_agent(-1)
    for key in (-2, 1.0, "ev0", None):
        edges = {ev_agent(0): (AGGREGATOR_ID,), AGGREGATOR_ID: (ev_agent(0),), key: (0,)}
        with pytest.raises(TopologyError, match=re.escape(f"agent id {key!r} is neither")):
            NeighborMap.from_edges(edges)
    assert NeighborMap.from_edges({np.int64(0): (-1,), -1: (0,)}).ids.tolist() == [-1, 0]


def test_deliver_round_empty():
    agents = [ev_agent(0), ev_agent(1), AGGREGATOR_ID]
    inboxes = deliver_round([], agents=agents)
    assert set(inboxes) == set(agents)
    assert all(box == [] for box in inboxes.values())


def test_deliver_round_fan_in():
    target = AGGREGATOR_ID
    agents = [ev_agent(i) for i in range(5)] + [target]
    envs = [Envelope(ev_agent(i), target, f"m{i}") for i in range(5)]
    inboxes = deliver_round(envs, agents=agents)
    assert len(inboxes[target]) == 5


def test_message_conservation_and_schedule_independence():
    rng = np.random.default_rng(13)
    agents = [ev_agent(i) for i in range(8)] + [AGGREGATOR_ID]
    envs = []
    for i in range(8):
        for m in range(3):
            to = agents[int(rng.integers(len(agents)))]
            envs.append(Envelope(ev_agent(i), to, (i, m)))
    base = deliver_round(envs, agents=agents)
    assert sum(len(v) for v in base.values()) == len(envs)
    perm = [envs[i] for i in rng.permutation(len(envs))]
    shuffled = deliver_round(perm, agents=agents)
    for agent in agents:
        assert Counter(e.payload for e in base[agent]) == Counter(
            e.payload for e in shuffled[agent]
        )


def test_per_sender_order_preserved():
    target = ev_agent(0)
    agents = [target, ev_agent(1)]
    envs = [Envelope(ev_agent(1), target, k) for k in range(4)]
    inboxes = deliver_round(envs, agents=agents)
    assert [e.payload for e in inboxes[target]] == [0, 1, 2, 3]


def test_unknown_recipient_rejected():
    with pytest.raises(TopologyError):
        deliver_round(
            [Envelope(ev_agent(0), ev_agent(9), "x")], agents=[ev_agent(0)]
        )
