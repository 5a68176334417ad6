"""Communication graph construction and synchronous round delivery."""

import copy
from collections import Counter

import numpy as np
import pytest

from v2gdispatch.fleet import sample_fleet
from v2gdispatch.topology import (
    AGGREGATOR_ID,
    AgentId,
    AgentKind,
    Envelope,
    TopologyError,
    build_topology,
    deliver_round,
    ev_agent,
    export_topology,
    reroute,
)


def test_one_random_neighbor_outdegree_exactly_one():
    fleet = sample_fleet(100, 4)
    topo = build_topology(fleet, "one-random-neighbor", 17)
    for i in range(100):
        targets = topo.out_edges[ev_agent(i)]
        assert len(targets) == 1
        t = targets[0]
        assert t != ev_agent(i)
        assert t == AGGREGATOR_ID or t.kind is AgentKind.EV
    assert topo.out_edges[AGGREGATOR_ID] == tuple(ev_agent(i) for i in range(100))


def test_one_random_neighbor_matches_scalar_reference():
    # reference: per EV, one uniform draw over the other EVs then the aggregator
    for n in (1, 2, 3, 17, 100):
        topo = build_topology(sample_fleet(n, n), "one-random-neighbor", 40 + n)
        rng = np.random.default_rng(40 + n)
        for i in range(n):
            targets = [ev_agent(j) for j in range(n) if j != i] + [AGGREGATOR_ID]
            assert topo.out_edges[ev_agent(i)] == (targets[int(rng.integers(len(targets)))],)


def test_build_topology_leaves_the_fleet_unchanged():
    fleet = sample_fleet(20, 6)
    before = copy.deepcopy(fleet)
    for policy in ("one-random-neighbor", "ring"):
        build_topology(fleet, policy, 5)
        assert fleet.evs == before.evs


def test_single_ev_gets_the_aggregator():
    fleet = sample_fleet(1, 0)
    for policy in ("one-random-neighbor", "ring"):
        topo = build_topology(fleet, policy, 3)
        assert topo.out_edges[ev_agent(0)] == (AGGREGATOR_ID,)


def test_same_seed_same_edges():
    fleet = sample_fleet(50, 8)
    a = build_topology(fleet, "one-random-neighbor", 21)
    b = build_topology(fleet, "one-random-neighbor", 21)
    assert a.out_edges == b.out_edges


def test_ring_policy_chains_available_evs():
    fleet = sample_fleet(5, 1)
    fleet.evs[2].departed = True
    topo = build_topology(fleet, "ring", 0)
    assert topo.out_edges[ev_agent(0)] == (ev_agent(1),)
    assert topo.out_edges[ev_agent(1)] == (ev_agent(3),)
    assert topo.out_edges[ev_agent(3)] == (ev_agent(4),)
    assert topo.out_edges[ev_agent(4)] == (AGGREGATOR_ID,)
    assert ev_agent(2) not in topo.out_edges


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
    assert topo.out_edges == edges
    with pytest.raises(TopologyError):
        build_topology(
            sample_fleet(1, 0),
            custom_edges={ev_agent(0): (ev_agent(5),), AGGREGATOR_ID: ()},
        )


def test_reroute_leaves_no_dangling_edges():
    fleet = sample_fleet(20, 6)
    topo = build_topology(fleet, "one-random-neighbor", 5)
    for i in (3, 7, 11):
        fleet.evs[i].departed = True
    new = reroute(topo, fleet, 9)
    alive = {ev_agent(i) for i in range(20) if fleet.evs[i].available} | {AGGREGATOR_ID}
    for agent, targets in new.out_edges.items():
        assert agent in alive
        for t in targets:
            assert t in alive
    assert new.out_edges[AGGREGATOR_ID] == tuple(
        ev_agent(i) for i in range(20) if fleet.evs[i].available
    )
    # EVs whose target survived keep it
    for i in range(20):
        if not fleet.evs[i].available:
            continue
        old_target = topo.out_edges[ev_agent(i)][0]
        if old_target in alive:
            assert new.out_edges[ev_agent(i)] == (old_target,)


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


def test_export_topology(tmp_path):
    fleet = sample_fleet(4, 2)
    topo = build_topology(fleet, "ring", 0)
    path = tmp_path / "edges.csv"
    export_topology(topo, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "from,to"
    assert len(lines) == 1 + 4 + 4  # ring edges plus aggregator fan-out


def test_agent_ids_hash_and_sort():
    assert ev_agent(3) == AgentId(AgentKind.EV, 3)
    assert hash(ev_agent(3)) == hash(AgentId(AgentKind.EV, 3))
    agents = sorted([AGGREGATOR_ID, ev_agent(2), ev_agent(0)], key=AgentId.sort_key)
    assert agents == [AGGREGATOR_ID, ev_agent(0), ev_agent(2)]
