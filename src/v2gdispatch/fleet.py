"""EV population sampling, state-of-charge dynamics and availability tracking.

An EV is available while it has not departed and its SOC has not fallen below
the user-specified floor ``soc_min`` (the boundary ``soc == soc_min`` still
counts as available). Once unavailable its discharge rate is forced to zero,
so within a discharging-only run availability is never regained.

A fleet is a struct of arrays: one numpy column per EV field, indexed by EV
id (ids are dense from 0). ``fleet.evs[i]`` is an ``EvState`` view of row
``i`` built on access; reads and writes through it go to the columns.
"""

from __future__ import annotations

import csv
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

DEFAULT_KM_PER_KWH = 8.26

# per-EV float columns, in EvState constructor order
_FLOAT_FIELDS = ("capacity_kwh", "soc", "soc_min", "rate_min_kw", "rate_max_kw", "eta")


@dataclass(frozen=True)
class FleetDistributions:
    """Sampling bounds for a fleet; defaults model commuter EVs on AC level-2."""

    soc: tuple[float, float] = (0.8, 0.9)
    soc_min: tuple[float, float] = (0.1, 0.2)
    capacity_kwh: tuple[float, float] = (15.0, 30.0)
    eta: tuple[float, float] = (0.85, 0.95)
    rate_min_kw: float = 0.0
    rate_max_kw: float = 6.6

    def __post_init__(self) -> None:
        for name in ("soc", "soc_min", "capacity_kwh", "eta"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: inverted bounds ({lo}, {hi})")
        if not 0.0 <= self.soc_min[0] <= self.soc_min[1] <= self.soc[0]:
            raise ValueError("soc_min range must sit below the soc range in [0, 1]")
        if self.soc[1] > 1.0:
            raise ValueError("soc upper bound must be <= 1")
        if not 0.0 < self.eta[0] <= self.eta[1] <= 1.0:
            raise ValueError("eta bounds must lie in (0, 1]")
        if not 0.0 <= self.rate_min_kw <= self.rate_max_kw:
            raise ValueError("need 0 <= rate_min_kw <= rate_max_kw")


def _column(name: str) -> property:
    def get(self) -> float:
        return float(getattr(self._fleet, name)[self._row])

    def set(self, value: float) -> None:
        getattr(self._fleet, name)[self._row] = value

    return property(get, set, doc=f"``{name}`` of this EV, held in the fleet's column.")


class EvState:
    """One vehicle's battery and discharge-point state: a view of one fleet row.

    Constructed directly, an EvState owns a one-row fleet of its own;
    ``Fleet(evs=[...])`` copies such states into the fleet's columns.
    """

    __slots__ = ("id", "_fleet", "_row")

    def __init__(
        self,
        id: int,
        capacity_kwh: float,
        soc: float,
        soc_min: float,
        rate_min_kw: float,
        rate_max_kw: float,
        eta: float,
        departed: bool = False,
    ):
        self.id = id
        self._fleet = Fleet.from_columns(
            capacity_kwh=[capacity_kwh], soc=[soc], soc_min=[soc_min],
            rate_min_kw=[rate_min_kw], rate_max_kw=[rate_max_kw], eta=[eta],
            departed=[departed],
        )
        self._row = 0

    @classmethod
    def _view(cls, fleet: "Fleet", row: int) -> "EvState":
        ev = cls.__new__(cls)
        ev.id, ev._fleet, ev._row = row, fleet, row
        return ev

    capacity_kwh = _column("capacity_kwh")
    soc = _column("soc")
    soc_min = _column("soc_min")
    rate_min_kw = _column("rate_min_kw")
    rate_max_kw = _column("rate_max_kw")
    eta = _column("eta")

    @property
    def departed(self) -> bool:
        return bool(self._fleet.departed[self._row])

    @departed.setter
    def departed(self, value: bool) -> None:
        self._fleet.departed[self._row] = value

    @property
    def available(self) -> bool:
        return not self.departed and self.soc >= self.soc_min

    def energy_kwh(self) -> float:
        return self.soc * self.capacity_kwh

    def _fields(self) -> tuple:
        return (self.id,) + tuple(getattr(self, name) for name in _FLOAT_FIELDS) + (self.departed,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvState):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        names = ("id",) + _FLOAT_FIELDS + ("departed",)
        return "EvState(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields())) + ")"


class _EvViews(Sequence):
    """``fleet.evs``: EvState views of the fleet's rows, built on access."""

    __slots__ = ("_fleet",)

    def __init__(self, fleet: "Fleet"):
        self._fleet = fleet

    def __len__(self) -> int:
        return len(self._fleet.soc)

    def __getitem__(self, index) -> EvState:
        n = len(self)
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"EV index {index} out of range for {n} EVs")
        return EvState._view(self._fleet, i)

    def __iter__(self):
        for i in range(len(self)):
            yield EvState._view(self._fleet, i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class Fleet:
    """All EVs enrolled in the programme plus the simulation clock.

    Columns (numpy, one entry per EV id): ``capacity_kwh``, ``soc``,
    ``soc_min``, ``rate_min_kw``, ``rate_max_kw``, ``eta`` (float) and
    ``departed`` (bool).
    """

    __slots__ = _FLOAT_FIELDS + ("departed", "time_h")

    def __init__(self, evs: Sequence[EvState], time_h: float = 0.0):
        evs = list(evs)
        if [ev.id for ev in evs] != list(range(len(evs))):
            raise ValueError("EV ids must be dense and ordered from 0")
        for name in _FLOAT_FIELDS:
            setattr(self, name, np.array([getattr(ev, name) for ev in evs], dtype=float))
        self.departed = np.array([ev.departed for ev in evs], dtype=bool)
        self.time_h = time_h

    @classmethod
    def from_columns(
        cls, *, capacity_kwh, soc, soc_min, rate_min_kw, rate_max_kw, eta,
        departed=None, time_h: float = 0.0,
    ) -> "Fleet":
        """A fleet whose columns are copies of the given per-EV sequences."""
        fleet = cls.__new__(cls)
        values = (capacity_kwh, soc, soc_min, rate_min_kw, rate_max_kw, eta)
        for name, column in zip(_FLOAT_FIELDS, values):
            setattr(fleet, name, np.array(column, dtype=float))
        n = len(fleet.soc)
        if any(len(getattr(fleet, name)) != n for name in _FLOAT_FIELDS):
            raise ValueError("fleet columns differ in length")
        fleet.departed = (np.zeros(n, dtype=bool) if departed is None
                          else np.array(departed, dtype=bool))
        fleet.time_h = time_h
        return fleet

    @property
    def evs(self) -> _EvViews:
        return _EvViews(self)

    def available(self) -> np.ndarray:
        """Boolean mask of the EVs currently allowed to discharge."""
        return ~self.departed & (self.soc >= self.soc_min)

    def __len__(self) -> int:
        return len(self.soc)


def sample_fleet(n: int, rng, dist: FleetDistributions = FleetDistributions()) -> Fleet:
    """Sample ``n`` EVs; deterministic for a fixed seed.

    Per EV, in id order: capacity, soc, soc floor, efficiency, one uniform
    draw each (one vectorised draw consumes the stream in that order).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(rng)
    bounds = (dist.capacity_kwh, dist.soc, dist.soc_min, dist.eta)
    lows, highs = zip(*bounds)
    capacity, soc, soc_min, eta = rng.uniform(lows, highs, size=(n, len(bounds))).T
    return Fleet.from_columns(
        capacity_kwh=capacity, soc=soc, soc_min=soc_min,
        rate_min_kw=np.full(n, dist.rate_min_kw), rate_max_kw=np.full(n, dist.rate_max_kw),
        eta=eta,
    )


def available_ids(fleet: Fleet) -> list[int]:
    """Ids of EVs currently allowed to discharge, in ascending order."""
    return np.flatnonzero(fleet.available()).tolist()


def common_rate_bounds(fleet: Fleet, ids) -> tuple[float, float]:
    """Intersection of the given EVs' rate limits: (max rate_min, min rate_max)."""
    ids = np.asarray(ids, dtype=np.intp)
    return float(fleet.rate_min_kw[ids].max()), float(fleet.rate_max_kw[ids].min())


def apply_discharge(fleet: Fleet, rate_kw: float, dt_h: float) -> Fleet:
    """Discharge every available EV at the common rate for one time step.

    SOC drops by rate*dt/capacity, floored at zero; EVs whose SOC crosses
    below their floor mid-step keep the step's discharge and become
    unavailable from the next step on. Unavailable EVs are untouched.
    """
    if dt_h <= 0.0:
        raise ValueError(f"dt_h must be > 0, got {dt_h}")
    avail = fleet.available()
    outside = avail & ~((fleet.rate_min_kw <= rate_kw) & (rate_kw <= fleet.rate_max_kw))
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise ValueError(
            f"rate {rate_kw} kW outside [{float(fleet.rate_min_kw[i])}, "
            f"{float(fleet.rate_max_kw[i])}] for EV {i}"
        )
    drop = (rate_kw * dt_h) / fleet.capacity_kwh[avail]
    fleet.soc[avail] = np.maximum(fleet.soc[avail] - drop, 0.0)
    fleet.time_h += dt_h
    return fleet


def eta_sum_available(fleet: Fleet) -> float:
    """Sum of conversion efficiencies over available EVs, in ascending id order.

    A Python sum, left to right, so the float result does not depend on
    numpy's pairwise summation.
    """
    return sum(fleet.eta[fleet.available()].tolist())


def grid_power_kw(fleet: Fleet, rate_kw: float) -> float:
    """AC power delivered to the grid: rate times the available efficiency sum."""
    return rate_kw * eta_sum_available(fleet)


def distance_home_km(
    ev: EvState,
    km_per_kwh: float = DEFAULT_KM_PER_KWH,
    basis: str = "reserve",
) -> float:
    """Driving distance covered by the EV's energy floor.

    ``basis="reserve"`` uses the user-specified SOC floor (the energy kept for
    the trip home); ``basis="current"`` uses the present SOC instead.
    """
    if km_per_kwh <= 0.0:
        raise ValueError(f"km_per_kwh must be > 0, got {km_per_kwh}")
    if basis == "reserve":
        soc = ev.soc_min
    elif basis == "current":
        soc = ev.soc
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return soc * ev.capacity_kwh * km_per_kwh


def distance_histogram(
    fleet: Fleet,
    bin_km: float = 10.0,
    km_per_kwh: float = DEFAULT_KM_PER_KWH,
    basis: str = "reserve",
) -> dict[tuple[float, float], int]:
    """Counts of EVs per distance bin [k*bin_km, (k+1)*bin_km)."""
    counts: dict[tuple[float, float], int] = {}
    for ev in fleet.evs:
        d = distance_home_km(ev, km_per_kwh, basis)
        k = int(d // bin_km)
        key = (k * bin_km, (k + 1) * bin_km)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def export_fleet_snapshot(fleet: Fleet, path) -> None:
    """Write one CSV row per EV: id, soc, availability."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "soc", "available"])
        for ev in fleet.evs:
            writer.writerow([ev.id, repr(ev.soc), int(ev.available)])
