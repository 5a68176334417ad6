"""Additive-split shuffling: exact conservation, masking, the worked exchange."""

import numpy as np
import pytest

from v2gdispatch.fleet import sample_fleet
from v2gdispatch.shuffle import (
    CandidateMapping,
    ProtocolError,
    audit_rows,
    candidate_totals,
    check_headroom,
    from_units,
    from_units_array,
    masking_check,
    shuffle_round,
    split_units,
    split_value,
    to_units,
    to_units_array,
)
from v2gdispatch.topology import AGGREGATOR_ID, build_topology, ev_agent


def test_unit_grid_round_trip():
    for v in (0.0, 1.0, -3.5, 12.75, 0.0009765625):
        assert from_units(to_units(v)) == v


def test_to_units_array_rejects_values_int64_cannot_hold():
    # 2**23 at 40 bits is exactly 2**63, one past the largest int64
    with pytest.raises(ProtocolError):
        to_units_array(np.array([1.0, 2.0**23]), 40)
    with pytest.raises(ProtocolError):
        to_units_array(np.array([-(2.0**23)]), 40)
    with pytest.raises(ProtocolError):
        to_units_array(np.array([float("nan")]), 40)
    assert to_units_array(np.array([2.0**22]), 40)[0] == 2**62


def test_split_value_forced_fractions():
    shares = split_value(5.0, rng=None, fraction=0.4)
    assert (shares.keep, shares.send) == (2.0, 3.0)


def test_split_value_identity_fraction_keeps_everything():
    shares = split_value(7.25, rng=None, fraction=1.0)
    assert (shares.keep, shares.send) == (7.25, 0.0)


def test_split_fraction_validated():
    with pytest.raises(ValueError):
        split_value(1.0, rng=None, fraction=1.5)


def test_random_splits_sum_back_exactly():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        # arbitrary on-grid currency value, negative values included
        value = from_units(int(rng.integers(-(2**50), 2**50)))
        shares = split_value(value, rng)
        assert shares.keep + shares.send - value == 0.0


def test_split_units_negative_values():
    rng = np.random.default_rng(2)
    for _ in range(100):
        units = -int(rng.integers(1, 2**40))
        keep, send = split_units(units, rng)
        assert keep + send == units


def _two_agents_topology():
    i, j = ev_agent(0), ev_agent(1)
    fleet = sample_fleet(2, 0)
    return i, j, build_topology(fleet, custom_edges={i: (j,), j: (i,)})


def test_worked_two_ev_exchange_bit_for_bit():
    # EV i evaluates candidates to (5, 10); EV j to (7, 20); each keeps
    # (2, 7) / (2, 5) respectively and sends the complement to the other.
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0, 20.0])),
    }
    fractions = {i: [2 / 5, 7 / 10], j: [2 / 7, 5 / 20]}
    masked = shuffle_round(values, topo, rng=0, fractions=fractions)
    assert list(from_units_array(masked[i])) == [7.0, 22.0]
    assert list(from_units_array(masked[j])) == [5.0, 8.0]
    # per-candidate totals unchanged: 12 and 30
    assert list(from_units_array(candidate_totals(values))) == [12.0, 30.0]
    assert list(from_units_array(candidate_totals(masked))) == [12.0, 30.0]


def test_masking_on_worked_exchange():
    assert masking_check(5.0, 7.0)
    assert not masking_check(5.0, 5.0)


def test_degenerate_splits_leave_values_unmasked():
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0, 20.0])),
    }
    masked = shuffle_round(
        values, topo, rng=0, fractions={i: [1.0, 1.0], j: [1.0, 1.0]}
    )
    assert np.array_equal(masked[i], values[i])
    assert np.array_equal(masked[j], values[j])


def test_conservation_over_randomized_rounds():
    rng = np.random.default_rng(77)
    fleet = sample_fleet(12, 3)
    for round_index in range(200):
        topo = build_topology(fleet, "one-random-neighbor", rng.integers(2**32))
        agents = [ev_agent(i) for i in range(12)] + [AGGREGATOR_ID]
        values = {
            a: to_units_array(rng.uniform(-5.0, 5.0, 4)) for a in agents
        }
        masked = shuffle_round(values, topo, rng.integers(2**32))
        assert np.array_equal(candidate_totals(values), candidate_totals(masked))


def test_shuffle_leaves_inputs_unchanged():
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([1.5, 2.5])),
        j: to_units_array(np.array([0.5, -0.5])),
    }
    snapshot = {a: v.copy() for a, v in values.items()}
    shuffle_round(values, topo, rng=1)
    for a in values:
        assert np.array_equal(values[a], snapshot[a])


def test_masked_fraction_is_tiny_under_continuous_splits():
    rng = np.random.default_rng(5)
    fleet = sample_fleet(10, 1)
    agents = [ev_agent(i) for i in range(10)] + [AGGREGATOR_ID]
    unmasked = total = 0
    for _ in range(200):
        topo = build_topology(fleet, "one-random-neighbor", rng.integers(2**32))
        values = {a: to_units_array(rng.uniform(0.1, 5.0, 3)) for a in agents}
        masked = shuffle_round(values, topo, rng.integers(2**32))
        for a in agents:
            for h in range(3):
                total += 1
                if not masking_check(int(values[a][h]), int(masked[a][h])):
                    unmasked += 1
    assert unmasked / total < 0.001


def test_key_mismatch_rejected():
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0])),
    }
    with pytest.raises(ProtocolError):
        shuffle_round(values, topo, rng=0)
    with pytest.raises(ProtocolError):
        shuffle_round({}, topo, rng=0)
    with pytest.raises(ProtocolError):
        candidate_totals({i: to_units_array(np.array([]))})


def test_forced_fraction_length_checked():
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0, 20.0])),
    }
    with pytest.raises(ProtocolError):
        shuffle_round(values, topo, rng=0, fractions={i: [0.5]})


def test_multi_neighbor_routing_conserves_totals():
    # aggregator fans out per-candidate shares to several EVs
    fleet = sample_fleet(6, 9)
    topo = build_topology(fleet, "one-random-neighbor", 4)
    agents = [ev_agent(i) for i in range(6)] + [AGGREGATOR_ID]
    rng = np.random.default_rng(8)
    values = {a: to_units_array(rng.uniform(-2.0, 2.0, 8)) for a in agents}
    masked = shuffle_round(values, topo, rng)
    assert np.array_equal(candidate_totals(values), candidate_totals(masked))


def test_audit_rows_materialize_mappings():
    units = to_units_array(np.array([5.0, 10.0]))
    rows = audit_rows(ev_agent(0), [1.0, 2.0], units)
    assert rows == [
        CandidateMapping(index=0, rate_kw=1.0, value=5.0),
        CandidateMapping(index=1, rate_kw=2.0, value=10.0),
    ]


def test_check_headroom_bounds_each_column_sum():
    big = 1 << 62
    check_headroom(np.array([[big, 1], [big - 1, 1]], dtype=np.int64))  # 2**63 - 1
    check_headroom(np.array([[big, big], [-big + 1, 0]], dtype=np.int64))
    with pytest.raises(ProtocolError):
        check_headroom(np.array([[big, 1], [big, 1]], dtype=np.int64))
    with pytest.raises(ProtocolError):
        check_headroom(np.array([[1, -big], [1, -big]], dtype=np.int64))
