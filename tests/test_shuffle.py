"""Additive-split shuffling: exact conservation, masking, the worked exchange."""

import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from v2gdispatch import shuffle
from v2gdispatch.fleet import sample_fleet
from v2gdispatch.shuffle import (
    MaskBlocks,
    ProtocolError,
    WireBuffers,
    candidate_totals,
    check_headroom,
    from_units_array,
    mask_units,
    share_slots,
    shuffle_round,
    to_units_array,
)
from v2gdispatch.topology import AGGREGATOR_ID, TopologyError, build_topology, ev_agent


def test_unit_grid_round_trip():
    values = np.array([0.0, 1.0, -3.5, 12.75, 0.0009765625])
    assert np.array_equal(from_units_array(to_units_array(values)), values)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(units=st.one_of(st.integers(-(2**63), 2**63 - 1),
                       st.sampled_from([0, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)])),
       unit_bits=st.integers(0, 48))
def test_from_units_array_converts_a_python_int_as_the_int64_array(units, unit_bits):
    # the epoch converts its best total as a Python int: the float must be
    # the one numpy's int64 cast gives, bit for bit
    got = from_units_array(units, unit_bits)
    assert type(got) is float
    want = np.multiply(np.array([units], dtype=np.int64), 2.0**-unit_bits)[0]
    assert got.hex() == float(want).hex()


def test_to_units_array_rejects_values_int64_cannot_hold():
    # 2**23 at 40 bits is exactly 2**63, one past the largest int64
    with pytest.raises(ProtocolError):
        to_units_array(np.array([1.0, 2.0**23]), 40)
    with pytest.raises(ProtocolError):
        to_units_array(np.array([-(2.0**23)]), 40)
    with pytest.raises(ProtocolError):
        to_units_array(np.array([float("nan")]), 40)
    assert to_units_array(np.array([2.0**22]), 40)[0] == 2**62


@pytest.mark.parametrize("value", [1e300, -1e300, float("inf")])
def test_to_units_array_refuses_a_huge_value_without_a_numpy_warning(value):
    # the peak is scaled as a Python float: inf, not a numpy overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError, match="beyond the int64 wire"):
            to_units_array(np.array([value]))


def _masked(units, fractions, destinations):
    """The reports of one ``mask_units`` round over int64 ``units`` that
    float64 holds, loaded into a fresh wire as ``shuffle_round`` loads them."""
    wire = WireBuffers(units.shape)
    wire.quantize(units)
    return mask_units(wire, fractions, destinations)


def _split(units, fractions):
    """(keep, send) of one masking round in which row 0 keeps ``fractions``
    of ``units`` and sends the rest to row 1, which holds 0 and keeps it."""
    units = np.vstack([units, np.zeros_like(units)])
    fractions = np.vstack([fractions, np.ones_like(fractions)])
    m = units.shape[1]
    destinations = np.concatenate([m + np.arange(m), np.arange(m)])  # slots in the other row
    keep, send = _masked(units, fractions, destinations)
    return keep, send


def test_split_value_forced_fractions():
    keep, send = _split(to_units_array(np.array([5.0])), np.array([0.4]))
    assert (from_units_array(keep)[0], from_units_array(send)[0]) == (2.0, 3.0)


def test_split_value_identity_fraction_keeps_everything():
    keep, send = _split(to_units_array(np.array([7.25])), np.array([1.0]))
    assert (from_units_array(keep)[0], from_units_array(send)[0]) == (7.25, 0.0)


def test_split_fraction_validated():
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0, 20.0])),
    }
    for bad in (1.5, -0.25, float("nan"), float("inf")):
        with pytest.raises(ProtocolError):
            shuffle_round(values, topo, rng=0, fractions={i: [0.5, bad]})
        with pytest.raises(ProtocolError):
            shuffle_round(values, topo, rng=0, fractions={j: np.array([bad, 0.5])})


def test_random_splits_sum_back_exactly():
    rng = np.random.default_rng(23)
    # arbitrary on-grid currency values, negative values included
    units = rng.integers(-(2**50), 2**50, size=1000)
    values = from_units_array(units)
    assert np.array_equal(to_units_array(values), units)
    keep, send = _split(units, rng.random(1000))
    assert np.all(from_units_array(keep) + from_units_array(send) - values == 0.0)


def test_split_units_negative_values():
    rng = np.random.default_rng(2)
    units = -rng.integers(1, 2**40, size=100)
    keep, send = _split(units, rng.random(100))
    assert np.array_equal(keep + send, units)
    # both shares lie between the value and 0, as check_headroom assumes
    assert np.all((units <= keep) & (keep <= 0) & (units <= send) & (send <= 0))


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
    i, j, topo = _two_agents_topology()
    values = {
        i: to_units_array(np.array([5.0, 10.0])),
        j: to_units_array(np.array([7.0, 20.0])),
    }
    masked = shuffle_round(values, topo, rng=0, fractions={i: [2 / 5, 7 / 10], j: [2 / 7, 5 / 20]})
    assert np.all(masked[i] != values[i]) and np.all(masked[j] != values[j])


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
                if values[a][h] == masked[a][h]:
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


@pytest.mark.parametrize("bad", [[0.5], [0.5, 0.5, 0.5], [0.5, 1.5], [-0.25, 0.5],
                                 [0.5, float("nan")]])
def test_forced_fractions_are_checked_and_name_the_agent(bad):
    # m values in [0, 1], checked before the round draws; with the
    # aggregator in row 0, agent 1 is row 2, and the error names the agent
    topo = build_topology(sample_fleet(3, 9), "one-random-neighbor", 4)
    values = {a: to_units_array(np.array([5.0, 10.0])) for a in topo.ids.tolist()}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ProtocolError, match=r"for agent 1 must be 2 values in \[0, 1\]"):
        shuffle_round(values, topo, rng, fractions={1: bad})
    assert rng.bit_generator.state == state


def test_multi_neighbor_routing_conserves_totals():
    # aggregator fans out per-candidate shares to several EVs
    fleet = sample_fleet(6, 9)
    topo = build_topology(fleet, "one-random-neighbor", 4)
    agents = [ev_agent(i) for i in range(6)] + [AGGREGATOR_ID]
    rng = np.random.default_rng(8)
    values = {a: to_units_array(rng.uniform(-2.0, 2.0, 8)) for a in agents}
    masked = shuffle_round(values, topo, rng)
    assert np.array_equal(candidate_totals(values), candidate_totals(masked))


def _nonzero_reports(topo, m, seed):
    """Unit-values for every agent of ``topo`` as a mapping and as the stacked
    rows; none is 0, so every drawn fraction and destination shows in the
    masked reports."""
    units = np.random.default_rng(seed).integers(2**40, 2**41, size=(len(topo.ids), m))
    return dict(zip(topo.ids.tolist(), units)), units


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_draw_split_stream_contract(n):
    # row 0, the aggregator, draws random(m) then integers(n, size=m) when it
    # has several out-edges; the EV rows then read the stream as one
    # random((n, m)) draw. Every round on the same Generator reads it so.
    m = 7
    topo = build_topology(sample_fleet(n, n), "one-random-neighbor", 3)
    values, units = _nonzero_reports(topo, m, n)
    rng = np.random.default_rng(n)
    ref = np.random.default_rng(n)
    ev_targets = topo.targets[topo.indptr[1:-1], None].repeat(m, axis=1)
    for _ in range(3):
        masked = shuffle_round(values, topo, rng)
        if n > 1:
            agg_fractions = ref.random(m)
            agg_targets = topo.targets[ref.integers(n, size=m)]
            expected_fractions = np.vstack([agg_fractions, ref.random((n, m))])
        else:  # the aggregator's one out-edge is the one EV: no integers draw
            expected_fractions = ref.random((2, m))
            agg_targets = np.full(m, topo.targets[0])
        expected_rows = np.vstack([agg_targets, ev_targets])
        destinations = (expected_rows * m + np.arange(m)).reshape(-1)
        expected = _masked(units, expected_fractions, destinations)
        assert np.array_equal(np.stack([masked[a] for a in topo.ids.tolist()]), expected)
        assert rng.bit_generator.state == ref.bit_generator.state


def _replay_round(topo, m, forced, ref):
    """One round written out row by row on ``ref``: a row draws m fractions
    unless forced, then, with several out-edges, one out-edge per candidate.
    Returns the fractions and the flat destinations."""
    rows, indptr = len(topo.ids), topo.indptr.tolist()
    fractions = np.empty((rows, m))
    destinations = np.empty((rows, m), dtype=np.int64)
    for r in range(rows):
        fractions[r] = forced[r] if r in forced else ref.random(m)
        out = topo.targets[indptr[r]:indptr[r + 1]]
        picked = out[ref.integers(len(out), size=m)] if len(out) > 1 else out[0]
        destinations[r] = picked * m + np.arange(m)
    return fractions, destinations.reshape(-1)


_CUSTOM_EDGES = {AGGREGATOR_ID: (0, 2), 0: (1,), 1: (AGGREGATOR_ID, 2, 3), 2: (3,), 3: (0,)}


def _replayed_round_matches(topo, m, forced_rows, seed):
    """Two ``shuffle_round`` calls on one Generator, with ``forced_rows``
    (row -> fractions) forced by agent id, mask nonzero reports as
    ``_masked`` over ``_replay_round``'s draws on a reference Generator,
    and leave the stream where the reference is."""
    values, units = _nonzero_reports(topo, m, seed)
    forced = {int(topo.ids[r]): f for r, f in forced_rows.items()}
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        masked = shuffle_round(values, topo, rng, fractions=forced)
        expected = _masked(units, *_replay_round(topo, m, forced_rows, ref))
        assert np.array_equal(np.stack([masked[a] for a in topo.ids.tolist()]), expected)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_split_stream_contract_on_a_custom_graph():
    # a round draws row by row; the custom graph has two multi-edge rows (0
    # and 2) among single-edge ones, each forced or not: a forced row draws
    # no fractions, and a forced multi-edge row still draws its out-edges
    m = 3
    topo = build_topology(sample_fleet(4, 0), custom_edges=_CUSTOM_EDGES)
    destinations, slots = share_slots(topo, m)
    # rows -1, 0, 1, 2, 3 by agent; every row starts at its first target
    assert destinations.tolist() == [r * m + h for r in (1, 2, 0, 4, 1) for h in range(m)]
    assert {r: s.tolist() for r, s in slots.items()} == {0: [1 * m, 3 * m],
                                                          2: [0, 3 * m, 4 * m]}
    for forced_rows in ((), (3,), (2,), (0, 2, 4), (0, 1, 2, 3, 4)):
        forced = {r: np.array([0.25, 0.5, 1.0]) * (r + 1) / 5 for r in forced_rows}
        _replayed_round_matches(topo, m, forced, 11 + len(forced_rows))


@pytest.mark.parametrize("rounds", [1, 2, 7])
@pytest.mark.parametrize("case", [1, 2, 5, 40])
def test_draw_block_stream_contract(case, rounds, monkeypatch):
    # an epoch's blocks, replayed round by round from fresh Generators:
    # random((rows, m)) on the fraction stream, integers(degree, size=m) for
    # the aggregator on the route stream; every EV sends to its one target.
    # BLOCK_CELLS of ``rounds`` rounds of fractions makes route blocks of
    # rounds * rows rounds, up to the epoch's 43. A block is drawn whole, so
    # each stream stops at the end of a block; 43 rounds cross several blocks
    # of both streams in most cases here. One EV is the aggregator's one
    # out-edge: it draws no routes
    m, n, rows = 3, 43, case + 1
    monkeypatch.setattr(shuffle, "BLOCK_CELLS", rounds * rows * m)
    topo = build_topology(sample_fleet(case, case), "one-random-neighbor", 3)
    fraction_rng, route_rng = np.random.default_rng(11), np.random.default_rng(12)
    blocks = MaskBlocks(topo, m, n, fraction_rng, route_rng)
    route_rounds = min(n, rounds * rows)
    assert blocks.fractions.shape == (rounds, rows, m)
    assert blocks.routes.shape == (route_rounds, m)
    fraction_ref, route_ref = np.random.default_rng(11), np.random.default_rng(12)
    ev_targets = topo.targets[topo.indptr[1:-1], None].repeat(m, axis=1)
    units = _nonzero_reports(topo, m, case)[1]
    for _ in range(n):
        wire = WireBuffers(units.shape)
        wire.quantize(units)
        masked = blocks.mask(wire)
        fractions = fraction_ref.random((rows, m))
        agg_targets = topo.targets[route_ref.integers(case, size=m)]
        destinations = (np.vstack([agg_targets, ev_targets]) * m + np.arange(m)).reshape(-1)
        assert np.array_equal(blocks.kept, fractions)
        assert np.array_equal(blocks.destinations, destinations)
        assert masked is wire.masked
        assert np.array_equal(masked, _masked(units, fractions, destinations))
    fraction_ref.random((-n % rounds, rows, m))
    route_ref.integers(case, size=(-n % route_rounds, m))
    assert fraction_rng.bit_generator.state == fraction_ref.bit_generator.state
    assert route_rng.bit_generator.state == route_ref.bit_generator.state


def test_mask_blocks_refuse_a_multi_edge_row_beside_the_aggregator():
    topo = build_topology(sample_fleet(4, 0), custom_edges=_CUSTOM_EDGES)
    with pytest.raises(TopologyError, match="agent 1 has several out-edges"):
        MaskBlocks(topo, 3, 2, np.random.default_rng(0), np.random.default_rng(1))


def test_forcing_fractions_for_an_agent_that_does_not_report_is_refused():
    topo = build_topology(sample_fleet(3, 9), "one-random-neighbor", 4)
    values = {a: to_units_array(np.array([5.0, 10.0])) for a in topo.ids.tolist()}
    with pytest.raises(TopologyError, match="agent 7, which does not report"):
        shuffle_round(values, topo, rng=0, fractions={7: [0.5, 0.5]})


def test_draw_split_refuses_a_row_with_no_out_edge():
    topo = build_topology(sample_fleet(1, 0),
                          custom_edges={ev_agent(0): (AGGREGATOR_ID,), AGGREGATOR_ID: ()})
    with pytest.raises(TopologyError, match="agent -1 has no out-edges"):
        share_slots(topo, 3)
    values = {a: to_units_array(np.array([5.0, 10.0, 1.0])) for a in topo.ids.tolist()}
    with pytest.raises(TopologyError, match="agent -1 has no out-edges"):
        shuffle_round(values, topo, rng=0)


@pytest.mark.parametrize("forced_rows", [(0,), (2,), (0, 5), (5,)])
def test_forced_rows_draw_no_fractions(forced_rows):
    # a forced row takes its fractions as given and draws none; every other
    # row, and a forced multi-edge row's destinations, draw as unforced
    m, n = 3, 5
    topo = build_topology(sample_fleet(n, 2), "one-random-neighbor", 3)
    assert list(share_slots(topo, m)[1]) == [0]  # the aggregator's several out-edges
    _replayed_round_matches(topo, m, {r: np.full(m, 0.1 * (r + 1)) for r in forced_rows}, 1)


@pytest.mark.parametrize("shape", [(1, 1), (101, 10), (1001, 30), (7, 0)])
def test_candidate_totals_equals_add_reduce_bit_for_bit(shape):
    # the matvec against a ones vector is the exact int64 column sum; the
    # columns here sum to near +2**62 and -2**62, inside the headroom bound
    rows, m = shape
    rng = np.random.default_rng(rows + m)
    signs = np.where(np.arange(m) % 2 == 0, 1, -1)
    units = signs * ((1 << 62) // rows - rng.integers(0, 1000, shape))
    check_headroom(units)
    totals = candidate_totals(units)
    assert totals.dtype == np.int64 and totals.shape == (m,)
    assert totals.tobytes() == np.add.reduce(units, axis=0, dtype=np.int64).tobytes()
    assert totals.tolist() == [sum(column) for column in units.T.tolist()]
    assert all(abs(t) > (1 << 62) - 1000 * rows - rows for t in totals.tolist())


def test_check_headroom_bounds_each_column_sum():
    big = 1 << 62
    check_headroom(np.array([[big, 1], [big - 1, 1]], dtype=np.int64))  # 2**63 - 1
    check_headroom(np.array([[big, big], [-big + 1, 0]], dtype=np.int64))
    with pytest.raises(ProtocolError):
        check_headroom(np.array([[big, 1], [big, 1]], dtype=np.int64))
    with pytest.raises(ProtocolError):
        check_headroom(np.array([[1, -big], [1, -big]], dtype=np.int64))
    with pytest.raises(ProtocolError):  # |-2**63| alone reaches the bound
        check_headroom(np.array([[0, -(2**63)]], dtype=np.int64))


def test_mapping_round_refuses_reports_from_other_agents_than_the_topology():
    # EVs 0 and 1 form a closed sub-graph, but the topology has EV 2 and the
    # aggregator too: the round draws on the topology it is given, whole
    topo = build_topology(sample_fleet(3, 0),
                          custom_edges={0: (1,), 1: (0,), 2: (-1,), -1: (2,)})
    values = {a: to_units_array(np.array([5.0, 10.0])) for a in (0, 1)}
    with pytest.raises(TopologyError, match=r"agents \[0, 1\].*agents \[-1, 0, 1, 2\]"):
        shuffle_round(values, topo, rng=0)
    values[3] = values[2] = values[-1] = values[0]
    with pytest.raises(TopologyError, match=r"agents \[-1, 0, 1, 2, 3\]"):
        shuffle_round(values, topo, rng=0)


def test_mapping_round_and_totals_refuse_reports_beyond_the_wire():
    # each report fits int64 but their sum does not: refused, never wrapped
    i, j, topo = _two_agents_topology()
    big = {i: np.array([int(1.6 * 2**62)]), j: np.array([int(1.6 * 2**62)])}
    with pytest.raises(ProtocolError, match="beyond the int64 wire"):
        shuffle_round(big, topo, rng=0)
    with pytest.raises(ProtocolError, match="beyond the int64 wire"):
        candidate_totals(big)
    # a column summing to 2**63 - 1 in magnitude still sums exactly; a
    # round's units must also be ones float64 holds (2**62 - 1 is not), so
    # its columns reach 2**63 - 2**9, the largest such sum
    edge = {i: np.array([2**62, -(2**62)]), j: np.array([2**62 - 1, 1 - 2**62])}
    assert candidate_totals(edge).tolist() == [2**63 - 1, 1 - 2**63]
    edge[j] = np.array([2**62 - 2**9, 2**9 - 2**62])
    totals = [2**63 - 2**9, 2**9 - 2**63]
    assert candidate_totals(edge).tolist() == totals
    assert candidate_totals(shuffle_round(edge, topo, rng=0)).tolist() == totals


@pytest.mark.parametrize("unit", [2**53 + 3, -(2**53) - 1, 2**62 - 1, 2**63 - 1])
def test_a_round_refuses_a_unit_float64_cannot_hold(unit):
    # kept in float64 at a fraction of 1, 2**53 + 3 would keep 2**53 + 4 and
    # send -1, and 2**63 - 1, which check_headroom admits, would wrap to
    # -2**63: refused instead, naming the agent, with no numpy warning
    i, j, topo = _two_agents_topology()
    values = {i: np.array([5, 0]), j: np.array([7, unit])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProtocolError, match=f"^agent {j}: unit {unit} is beyond the wire"):
            shuffle_round(values, topo, rng=0, fractions={i: [1.0, 1.0], j: [1.0, 1.0]})


@pytest.mark.parametrize("unit", [2**53 + 4, -(2**53) - 2, 2**63 - 2**10, 2**10 - 2**63])
def test_a_round_keeps_a_unit_float64_holds_bit_for_bit(unit):
    # float64's neighbours of the refused units: a fraction of 1 reports
    # them unchanged, and a random round conserves their column exactly
    i, j, topo = _two_agents_topology()
    values = {i: np.array([5, 0]), j: np.array([7, unit])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = shuffle_round(values, topo, rng=0, fractions={i: [1.0, 1.0], j: [1.0, 1.0]})
        masked = shuffle_round(values, topo, rng=0)
    assert [kept[a].tolist() for a in (i, j)] == [[5, 0], [7, unit]]
    assert candidate_totals(masked).tolist() == [12, unit]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_mask_units_conserves_columns_and_bounds_kept_shares(data):
    n = data.draw(st.integers(1, 6), label="rows")
    m = data.draw(st.integers(1, 4), label="candidates")
    fractions = data.draw(hnp.arrays(np.float64, (n, m), elements=st.floats(0.0, 1.0)),
                          label="fractions")
    targets = data.draw(hnp.arrays(np.int64, (n, m), elements=st.integers(0, n - 1)),
                        label="targets")
    if data.draw(st.booleans(), label="quantized"):
        # as an epoch makes them: each column's sum of |units| is at most
        # about 2**exponent
        unit_bits = data.draw(st.integers(8, 48), label="unit_bits")
        exponent = data.draw(st.floats(0.0, 63.0, exclude_max=True)
                             | st.sampled_from([62.0, 62.5, 62.99]), label="exponent")
        x = data.draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-1.0, 1.0)), label="x")
        try:
            units = to_units_array(x * (2.0**exponent / n) / 2.0**unit_bits, unit_bits)
            check_headroom(units)
        except ProtocolError:
            reject()
    else:
        # any int64 units within check_headroom, float64 holding them or not
        bound = (2**63 - 1) // n
        edges = st.sampled_from([u for u in (bound, -bound, 2**53 + 1, -(2**53) - 3, 2**62 - 2**9)
                                 if abs(u) <= bound])
        units = data.draw(hnp.arrays(np.int64, (n, m),
                                     elements=st.integers(-bound, bound) | edges), label="units")
    # every EV sends to the aggregator, which holds 0 and keeps it: each EV
    # reports exactly the share it kept, and the aggregator all it received
    topo = build_topology(sample_fleet(n, 0), custom_edges={
        AGGREGATOR_ID: (0,), **{e: (AGGREGATOR_ID,) for e in range(n)}})
    values = {AGGREGATOR_ID: np.zeros(m, dtype=np.int64), **dict(enumerate(units))}
    forced = {AGGREGATOR_ID: np.ones(m), **dict(enumerate(fractions))}
    inexact = [e for e, row in enumerate(units.tolist()) if any(int(float(u)) != u for u in row)]
    if inexact:
        with pytest.raises(ProtocolError, match=f"^agent {inexact[0]}: unit"):
            shuffle_round(values, topo, rng=0, fractions=forced)
        return
    masked = shuffle_round(values, topo, rng=0, fractions=forced)
    kept = np.stack([masked[e] for e in range(n)])
    assert np.all((np.minimum(units, 0) <= kept) & (kept <= np.maximum(units, 0)))
    column_sums = [sum(column) for column in units.T.tolist()]
    assert [sum(column) for column in np.vstack([kept, masked[AGGREGATOR_ID]]).T.tolist()
            ] == column_sums
    # the same round to any share destinations conserves every column
    reports = _masked(units, fractions, (targets * m + np.arange(m)).reshape(-1))
    assert [sum(column) for column in reports.T.tolist()] == column_sums
