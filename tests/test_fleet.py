"""Fleet sampling, SOC dynamics, availability and derived quantities."""

import numpy as np
import pytest

from v2gdispatch.costs import left_to_right_sum
from v2gdispatch.fleet import (
    BIN_KM,
    KM_PER_KWH,
    EvState,
    Fleet,
    FleetDistributions,
    apply_discharge,
    available_ids,
    distance_histogram,
    distance_home_km,
    grid_power_kw,
    sample_fleet,
)


def _fleet(n=1, soc=0.8, soc_min=0.2, capacity=20.0, eta=1.0, departed=False):
    """``n`` EVs on 0-6.6 kW points; each field is one value for every EV or
    a list of ``n``."""
    fleet = Fleet(
        capacity_kwh=np.broadcast_to(capacity, n), soc=np.broadcast_to(soc, n),
        soc_min=np.broadcast_to(soc_min, n), rate_min_kw=np.zeros(n),
        rate_max_kw=np.full(n, 6.6), eta=np.broadcast_to(eta, n),
    )
    fleet.departed[:] = departed
    return fleet


def test_default_sampling_stays_in_bounds():
    fleet = sample_fleet(100, 123)
    assert len(fleet) == 100
    for ev in fleet.evs:
        assert 0.8 <= ev.soc <= 0.9
        assert 0.1 <= ev.soc_min <= 0.2
        assert 15.0 <= ev.capacity_kwh <= 30.0
        assert 0.85 <= ev.eta <= 0.95
        assert ev.rate_min_kw == 0.0
        assert ev.rate_max_kw == 6.6


def test_same_seed_samples_identical_fleet(assert_same_fleet):
    a = sample_fleet(40, 99)
    b = sample_fleet(40, 99)
    assert_same_fleet(a, b)
    b.soc[39] = 0.5
    with pytest.raises(AssertionError, match="soc"):
        assert_same_fleet(a, b)


def test_ev_views_read_and_write_their_row():
    fleet = _fleet(3, soc=[0.8, 0.7, 0.6], departed=[False, True, False])
    evs = fleet.evs
    assert type(evs) is tuple and [ev.id for ev in evs] == [0, 1, 2]
    ev = evs[1]
    assert isinstance(ev, EvState)
    assert (ev.soc, ev.soc_min, ev.capacity_kwh) == (0.7, 0.2, 20.0)
    assert (ev.rate_min_kw, ev.rate_max_kw, ev.eta) == (0.0, 6.6, 1.0)
    assert type(ev.soc) is float and ev.departed is True and evs[0].departed is False
    ev.soc, ev.eta, ev.departed = 0.5, 0.9, False
    ev.capacity_kwh, ev.soc_min, ev.rate_min_kw, ev.rate_max_kw = 30.0, 0.1, 1.0, 5.0
    assert fleet.soc.tolist() == [0.8, 0.5, 0.6] and fleet.eta.tolist() == [1.0, 0.9, 1.0]
    assert fleet.capacity_kwh.tolist() == [20.0, 30.0, 20.0]
    assert fleet.soc_min.tolist() == [0.2, 0.1, 0.2]
    assert fleet.rate_min_kw.tolist() == [0.0, 1.0, 0.0]
    assert fleet.rate_max_kw.tolist() == [6.6, 5.0, 6.6]
    assert not fleet.departed.any()


def test_sample_fleet_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_fleet(0, 1)


def test_inverted_bounds_rejected():
    # each error names the field, which is the config key, and its value
    for bounds, message in [
        (dict(soc_range=(0.9, 0.8)), r"soc_range: inverted bounds \(0\.9, 0\.8\)"),
        (dict(capacity_range_kwh=(30.0, 15.0)),
         r"capacity_range_kwh: inverted bounds \(30\.0, 15\.0\)"),
        (dict(eta_range=(0.0, 0.9)), r"eta_range: bounds \(0\.0, 0\.9\) must lie in \(0, 1\]"),
        (dict(soc_range=(0.8, 1.5)), r"soc_range: upper bound must be <= 1, got 1\.5"),
        (dict(soc_min_range=(0.1, 0.85)),
         r"soc_min_range: \(0\.1, 0\.85\) must lie in \[0, soc_range\[0\] = 0\.8\]"),
        (dict(rate_min_kw=7.0), r"rate_min_kw: 7\.0 must lie in \[0, rate_max_kw\]"),
        (dict(capacity_range_kwh=(0.0, 0.0)),
         r"capacity_range_kwh: lower bound must be > 0, got 0\.0"),
        (dict(capacity_range_kwh=(-1.0, 15.0)),
         r"capacity_range_kwh: lower bound must be > 0, got -1\.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            FleetDistributions(**bounds)


def test_fleet_columns_must_match_in_length():
    columns = dict(capacity_kwh=[20.0, 15.0], soc=[0.8, 0.7], soc_min=[0.2, 0.1],
                   rate_min_kw=[0.0, 0.0], rate_max_kw=[6.6, 6.6], eta=[1.0, 0.9])
    assert len(Fleet(**columns)) == 2
    with pytest.raises(ValueError):
        Fleet(**{**columns, "soc": [0.8]})


def test_fleet_rate_bounds_checked_per_ev():
    columns = dict(capacity_kwh=[20.0, 15.0], soc=[0.8, 0.7], soc_min=[0.2, 0.1],
                   rate_min_kw=[0.0, 0.0], rate_max_kw=[6.6, 6.6], eta=[1.0, 0.9])
    assert len(Fleet(**{**columns, "rate_min_kw": [6.6, 0.0]})) == 2
    for bad in (-1.0, float("nan"), 7.0):
        with pytest.raises(ValueError, match="EV 1"):
            Fleet(**{**columns, "rate_min_kw": [0.0, bad]})
    with pytest.raises(ValueError, match="EV 0"):
        Fleet(**{**columns, "rate_max_kw": [float("nan"), -1.0]})


@pytest.mark.parametrize("column,bad", [
    ("capacity_kwh", 0.0), ("capacity_kwh", -20.0), ("capacity_kwh", float("inf")),
    ("capacity_kwh", float("nan")), ("soc", float("nan")), ("soc", float("inf")),
    ("soc_min", float("nan")), ("soc_min", float("-inf")),
])
def test_fleet_rejects_capacity_not_finite_above_zero_and_soc_not_finite(column, bad):
    columns = dict(capacity_kwh=[20.0, 15.0, 25.0], soc=[0.8, 0.7, 0.9],
                   soc_min=[0.2, 0.1, 0.2], rate_min_kw=[0.0] * 3, rate_max_kw=[6.6] * 3,
                   eta=[1.0, 0.9, 0.95])
    values = list(columns[column])
    values[1] = values[2] = bad  # the first offending EV is named
    with pytest.raises(ValueError, match=f"EV 1: .*{column}={bad}"):
        Fleet(**{**columns, column: values})


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_fleet_rejects_eta_outside_zero_to_one(bad):
    columns = dict(capacity_kwh=[20.0, 15.0, 25.0], soc=[0.8, 0.7, 0.9],
                   soc_min=[0.2, 0.1, 0.2], rate_min_kw=[0.0] * 3, rate_max_kw=[6.6] * 3)
    assert len(Fleet(**columns, eta=[1.0, 1e-9, 0.9])) == 3
    with pytest.raises(ValueError, match=f"EV 1: .*eta={bad}"):
        Fleet(**columns, eta=[1.0, bad, bad])  # the first offending EV is named


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
def test_sample_fleet_draws_the_bits_of_one_uniform_call(n, seed):
    dist = FleetDistributions(capacity_range_kwh=(10.0, 80.0), soc_range=(0.5, 1.0),
                              soc_min_range=(0.05, 0.3), eta_range=(0.8, 1.0))
    bounds = (dist.capacity_range_kwh, dist.soc_range, dist.soc_min_range, dist.eta_range)
    reference = np.random.default_rng(seed)
    lows, highs = zip(*bounds)
    expected = reference.uniform(lows, highs, size=(n, len(bounds)))
    rng = np.random.default_rng(seed)
    fleet = sample_fleet(n, rng, dist)
    for k, name in enumerate(("capacity_kwh", "soc", "soc_min", "eta")):
        assert getattr(fleet, name).tobytes() == np.ascontiguousarray(expected[:, k]).tobytes()
    assert rng.random() == reference.random()  # the stream continues where uniform's would


def test_availability_rules():
    # below its floor, exactly at its floor, departed
    fleet = _fleet(3, soc=[0.15, 0.2, 0.8], departed=[False, False, True])
    assert available_ids(fleet) == [1]


def test_fresh_default_fleet_fully_available():
    fleet = sample_fleet(100, 7)
    assert available_ids(fleet) == list(range(100))


def test_apply_discharge_basic_accounting():
    fleet = _fleet(soc=0.8, capacity=20.0)
    apply_discharge(fleet, 4.0, 0.5)  # 2 kWh out of 20 kWh
    assert fleet.evs[0].soc == pytest.approx(0.7, abs=1e-12)
    assert fleet.time_h == pytest.approx(0.5)


def test_apply_discharge_skips_unavailable():
    fleet = _fleet(2, soc=[0.1, 0.8])
    apply_discharge(fleet, 4.0, 0.5)
    assert fleet.evs[0].soc == 0.1  # rate forced to zero
    assert fleet.evs[1].soc < 0.8


def test_apply_discharge_floors_soc_at_zero():
    fleet = _fleet(soc=0.05, soc_min=0.0, capacity=15.0)
    apply_discharge(fleet, 6.6, 1.0)
    assert fleet.evs[0].soc == 0.0


def test_apply_discharge_validates_inputs():
    fleet = _fleet()
    with pytest.raises(ValueError):
        apply_discharge(fleet, 7.0, 0.1)
    with pytest.raises(ValueError):
        apply_discharge(fleet, -0.1, 0.1)
    with pytest.raises(ValueError):
        apply_discharge(fleet, 3.0, 0.0)
    with pytest.raises(ValueError, match="dt_h"):
        apply_discharge(fleet, 1.0, float("nan"))
    with pytest.raises(ValueError, match="dt_h"):
        apply_discharge(fleet, 1.0, float("inf"))
    assert fleet.time_h == 0.0 and fleet.soc.tolist() == [0.8]


def test_soc_monotone_and_exclusion_permanent():
    fleet = _fleet(soc=0.3, soc_min=0.25, capacity=15.0)
    last = fleet.evs[0].soc
    frozen = None
    for _ in range(20):
        if fleet.available()[0]:
            apply_discharge(fleet, 5.0, 0.1)
        else:
            frozen = fleet.evs[0].soc if frozen is None else frozen
            fleet.time_h += 0.1
        assert fleet.evs[0].soc <= last
        last = fleet.evs[0].soc
    assert frozen is not None and fleet.evs[0].soc == frozen
    assert not fleet.available()[0]


def test_grid_power_identity_with_unit_efficiency():
    fleet = _fleet(100, eta=1.0)
    assert grid_power_kw(fleet, 4.5) == 450.0


def test_grid_power_is_rate_times_available_eta_sum():
    fleet = sample_fleet(30, 5)
    fleet.evs[3].departed = True
    fleet.evs[10].soc = 0.0
    avail = fleet.available()
    assert not avail[3] and not avail[10] and avail.sum() == 28
    total = 0.0
    for ev in fleet.evs:  # left to right in id order, on any Python version
        if avail[ev.id]:
            total += ev.eta
    assert grid_power_kw(fleet, 3.7) == 3.7 * total
    assert left_to_right_sum(fleet.eta[fleet.available()]) == total
    fleet.departed[:] = True
    assert grid_power_kw(fleet, 3.7) == 0.0


def test_distance_home_reserve_basis():
    distance = distance_home_km(_fleet(2, soc_min=[0.2, 0.0], capacity=20.0))
    assert distance[0] == pytest.approx(33.04, abs=1e-12)
    assert distance[1] == 0.0


def test_distance_home_ignores_current_soc():
    fleet = _fleet(2, soc=[0.5, 0.9], soc_min=0.2, capacity=20.0)
    low, high = distance_home_km(fleet)
    assert low == high


def test_distance_histogram_counts_by_enumeration():
    fleet = sample_fleet(200, 31)
    hist = distance_histogram(fleet)
    assert sum(hist.values()) == 200
    # independent recount
    distances = distance_home_km(fleet).tolist()
    for (lo, hi), n in hist.items():
        manual = sum(1 for d in distances if lo <= d < hi)
        assert manual == n


@pytest.mark.parametrize("seed", [0, 1, 31, 77, 2024])
def test_distance_histogram_matches_a_scalar_reference(seed):
    # wide ranges spread the EVs over many bins; EV 0 sits at 0 km, and EVs
    # 1-4 on bin edges that soc_min * (capacity * KM_PER_KWH) would cross
    dist = FleetDistributions(soc_range=(0.6, 1.0), soc_min_range=(0.0, 0.6),
                              capacity_range_kwh=(5.0, 100.0))
    fleet = sample_fleet(500, seed, dist)
    fleet.soc_min[:5] = [0.0, 0.56057377196546, 0.47020349236477255, 0.23806018395378475,
                         0.016290342678153564]
    fleet.capacity_kwh[1:5] = [62.630398697882086, 56.64437418921517, 86.45340627581909,
                               74.31726741084469]
    expected = {}
    for soc_min, capacity in zip(fleet.soc_min.tolist(), fleet.capacity_kwh.tolist()):
        k = int(soc_min * capacity * KM_PER_KWH // BIN_KM)
        key = (k * BIN_KM, (k + 1) * BIN_KM)
        expected[key] = expected.get(key, 0) + 1
    hist = distance_histogram(fleet)
    assert hist == expected and len(hist) > 20
    assert list(hist) == sorted(expected) and list(hist)[0] == (0.0, 10.0)
    assert all(type(n) is int for n in hist.values())

