"""EV population sampling, state-of-charge dynamics and availability tracking.

An EV is available while it has not departed and its SOC has not fallen below
the user-specified floor ``soc_min`` (the boundary ``soc == soc_min`` still
counts as available). Once unavailable its discharge rate is forced to zero,
so within a discharging-only run availability is never regained.

A fleet is a struct of arrays: one numpy column per EV field, indexed by EV
id (ids are dense from 0), and every function here reads and writes the
columns. ``fleet.evs`` is a tuple of ``EvState`` views, one per row, built on
access for per-EV reads and writes: an ``id`` and one property per column,
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import left_to_right_sum

KM_PER_KWH = 8.26  # driving range per kWh of the reserve
BIN_KM = 10.0  # width of a distance_histogram bin

# per-EV float columns
_FLOAT_FIELDS = ("capacity_kwh", "soc", "soc_min", "rate_min_kw", "rate_max_kw", "eta")


@dataclass(frozen=True)
class FleetDistributions:
    """Sampling bounds for a fleet, named as the config's keys; defaults model
    commuter EVs on AC level-2."""

    soc_range: tuple[float, float] = (0.8, 0.9)
    soc_min_range: tuple[float, float] = (0.1, 0.2)
    capacity_range_kwh: tuple[float, float] = (15.0, 30.0)
    eta_range: tuple[float, float] = (0.85, 0.95)
    rate_min_kw: float = 0.0
    rate_max_kw: float = 6.6

    def __post_init__(self) -> None:
        for name in ("soc_range", "soc_min_range", "capacity_range_kwh", "eta_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: inverted bounds ({lo}, {hi})")
        if not self.capacity_range_kwh[0] > 0.0:
            raise ValueError("capacity_range_kwh: lower bound must be > 0, got "
                             f"{self.capacity_range_kwh[0]}")
        if not 0.0 <= self.soc_min_range[0] <= self.soc_min_range[1] <= self.soc_range[0]:
            raise ValueError(f"soc_min_range: {self.soc_min_range} must lie in [0, "
                             f"soc_range[0] = {self.soc_range[0]}]")
        if self.soc_range[1] > 1.0:
            raise ValueError(f"soc_range: upper bound must be <= 1, got {self.soc_range[1]}")
        if not 0.0 < self.eta_range[0] <= self.eta_range[1] <= 1.0:
            raise ValueError(f"eta_range: bounds {self.eta_range} must lie in (0, 1]")
        if not 0.0 <= self.rate_min_kw <= self.rate_max_kw:
            raise ValueError(f"rate_min_kw: {self.rate_min_kw} must lie in [0, rate_max_kw]")


def _column(name: str, kind=float) -> property:
    def get(self):
        return kind(getattr(self._fleet, name)[self.id])

    def set(self, value) -> None:
        getattr(self._fleet, name)[self.id] = value

    return property(get, set, doc=f"``{name}`` of this EV, held in the fleet's column.")


class EvState:
    """One vehicle's row of the fleet, as ``fleet.evs[i]`` gives it: reads
    and writes go to the fleet's columns. The row is the EV's id."""

    __slots__ = ("id", "_fleet")

    def __init__(self, fleet: "Fleet", row: int):
        self.id, self._fleet = row, fleet

    capacity_kwh = _column("capacity_kwh")
    soc = _column("soc")
    soc_min = _column("soc_min")
    rate_min_kw = _column("rate_min_kw")
    rate_max_kw = _column("rate_max_kw")
    eta = _column("eta")
    departed = _column("departed", bool)


class Fleet:
    """All EVs enrolled in the programme plus the simulation clock.

    Columns (numpy, one entry per EV id): ``capacity_kwh``, ``soc``,
    ``soc_min``, ``rate_min_kw``, ``rate_max_kw``, ``eta`` (float) and
    ``departed`` (bool). Each EV needs 0 <= ``rate_min_kw`` <= ``rate_max_kw``,
    a finite ``capacity_kwh`` > 0, a finite ``soc`` and ``soc_min`` and an
    ``eta`` in (0, 1].
    """

    __slots__ = _FLOAT_FIELDS + ("departed", "time_h")

    def __init__(self, *, capacity_kwh, soc, soc_min, rate_min_kw, rate_max_kw, eta):
        """A fleet whose columns are copies of the given per-EV sequences;
        no EV has departed and the clock starts at 0.0."""
        values = (capacity_kwh, soc, soc_min, rate_min_kw, rate_max_kw, eta)
        for name, column in zip(_FLOAT_FIELDS, values):
            setattr(self, name, np.array(column, dtype=float))
        n = len(self.soc)
        if any(len(getattr(self, name)) != n for name in _FLOAT_FIELDS):
            raise ValueError("fleet columns differ in length")
        self.departed = np.zeros(n, dtype=bool)
        bad = np.flatnonzero(~((0.0 <= self.rate_min_kw) & (self.rate_min_kw <= self.rate_max_kw)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"EV {i}: need 0 <= rate_min_kw <= rate_max_kw, got "
                             f"[{float(self.rate_min_kw[i])}, {float(self.rate_max_kw[i])}]")
        cap = self.capacity_kwh
        bad = np.flatnonzero(~((0.0 < cap) & (cap < math.inf)
                               & np.isfinite(self.soc) & np.isfinite(self.soc_min)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"EV {i}: need a finite capacity_kwh > 0 and a finite soc and "
                             f"soc_min, got capacity_kwh={float(cap[i])}, "
                             f"soc={float(self.soc[i])}, soc_min={float(self.soc_min[i])}")
        bad = np.flatnonzero(~((0.0 < self.eta) & (self.eta <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"EV {i}: need 0 < eta <= 1, got eta={float(self.eta[i])}")
        self.time_h = 0.0

    @property
    def evs(self) -> tuple[EvState, ...]:
        """One ``EvState`` view per EV, in id order, built on access."""
        return tuple(EvState(self, i) for i in range(len(self)))

    def available(self) -> np.ndarray:
        """Boolean mask of the EVs currently allowed to discharge."""
        return ~self.departed & (self.soc >= self.soc_min)

    def __len__(self) -> int:
        return len(self.soc)


def sample_fleet(n: int, rng, dist: FleetDistributions = FleetDistributions()) -> Fleet:
    """Sample ``n`` EVs; deterministic for a fixed seed.

    One ``rng.random((n, 4))`` block, row i for EV i, its columns capacity,
    soc, soc floor and efficiency, each scaled as ``low + (high - low) * u``.
    That consumes the stream and gives the bits of ``rng.uniform`` over the
    same bounds and shape.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(rng)
    bounds = (dist.capacity_range_kwh, dist.soc_range, dist.soc_min_range, dist.eta_range)
    draws = rng.random((n, len(bounds))).T  # draws[k]: every EV's draw for bounds[k]
    capacity, soc, soc_min, eta = (lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws))
    return Fleet(
        capacity_kwh=capacity, soc=soc, soc_min=soc_min,
        rate_min_kw=np.full(n, dist.rate_min_kw), rate_max_kw=np.full(n, dist.rate_max_kw),
        eta=eta,
    )


def available_ids(fleet: Fleet) -> list[int]:
    """Ids of EVs currently allowed to discharge, in ascending order."""
    return np.flatnonzero(fleet.available()).tolist()


def common_rate_bounds(fleet: Fleet, ids) -> tuple[float, float]:
    """Intersection of the given EVs' rate limits: (max rate_min, min rate_max);
    ValueError, naming the bound, when it is empty, below 0 or unbounded."""
    ids = np.asarray(ids, dtype=np.intp)
    lower, upper = float(fleet.rate_min_kw[ids].max()), float(fleet.rate_max_kw[ids].min())
    if lower > upper:
        raise ValueError(f"no common feasible rate: [{lower}, {upper}]")
    if lower < 0.0:
        raise ValueError(f"discharge rate must be >= 0, got a lower bound of {lower}")
    if not upper < math.inf:
        raise ValueError(f"common rate bounds must be finite, got an upper bound of {upper}")
    return lower, upper


def apply_discharge(fleet: Fleet, rate_kw: float, dt_h: float) -> Fleet:
    """Discharge every available EV at the common rate for one time step.

    SOC drops by rate*dt/capacity, floored at zero; EVs whose SOC crosses
    below their floor mid-step keep the step's discharge and become
    unavailable from the next step on. Unavailable EVs are untouched; with
    none available the step only advances the clock.
    """
    if not 0.0 < dt_h < math.inf:
        raise ValueError(f"dt_h must be finite and > 0, got {dt_h}")
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


def grid_power_kw(fleet: Fleet, rate_kw: float) -> float:
    """AC power delivered to the grid: rate times the efficiency sum over the
    available EVs, in ascending id order (``left_to_right_sum``, as the cost
    table's ``eta_sum``)."""
    return rate_kw * left_to_right_sum(fleet.eta[fleet.available()])


def distance_home_km(fleet: Fleet) -> np.ndarray:
    """Driving distance per EV covered by its user-specified SOC floor, the
    energy kept for the trip home."""
    return fleet.soc_min * fleet.capacity_kwh * KM_PER_KWH


def distance_histogram(fleet: Fleet) -> dict[tuple[float, float], int]:
    """Counts of EVs per distance bin [k*BIN_KM, (k+1)*BIN_KM)."""
    bins, counts = np.unique(distance_home_km(fleet) // BIN_KM, return_counts=True)
    return {(k * BIN_KM, (k + 1) * BIN_KM): n
            for k, n in zip(map(int, bins.tolist()), counts.tolist())}
