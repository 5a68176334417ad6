"""Net-cost models for EVs and the aggregator, and the evaluate-only cost oracle.

An EV's net cost of discharging at rate ``c`` (kW) is

    f(c) = alpha*c^2 + beta*c + gamma + other_ops - price*c

i.e. quadratic battery degradation plus a lumped operational cost, minus the
revenue from selling the power. The aggregator's net cost over per-EV rates
``c_1..c_n`` is

    Agg(c) = gen_a*D^2 + gen_b*D + gen_c - omega*log(R + 1)

with ``D = sum(eta_i * c_i)`` the AC power actually delivered (generation-cost
proxy) and ``R = sum(c_i)`` the raw DC power (utility term). Note the utility
term sums raw rates while the generation term sums efficiency-scaled rates.

Both models support scalar rates or numpy arrays of rates elementwise.
Per-EV coefficients of a whole fleet are held as columns (``EvCostTable``),
so every EV's cost at every candidate rate is one broadcast expression.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class EvCostParams:
    """Coefficients of one EV's net discharge cost (currency units)."""

    alpha_deg: float  # currency/kW^2, strictly positive (convex degradation)
    beta_deg: float   # currency/kW
    gamma_deg: float  # currency
    other_ops: float  # currency, lumped non-degradation operating cost
    price: float      # currency/kW, fixed for the whole pricing period

    def __post_init__(self) -> None:
        if not self.alpha_deg > 0.0:
            raise ValueError(f"alpha_deg must be > 0, got {self.alpha_deg}")
        if self.other_ops < 0.0:
            raise ValueError(f"other_ops must be >= 0, got {self.other_ops}")
        if self.price < 0.0:
            raise ValueError(f"price must be >= 0, got {self.price}")


class AggCostParams:
    """Aggregator net-cost coefficients plus per-EV conversion efficiencies.

    ``eta`` (DC-to-AC efficiency per EV, each in (0, 1]) reads as a tuple
    built on access; it is held as one numpy column, ``eta_array``.
    Immutable by convention, compared by value.
    """

    __slots__ = ("gen_a", "gen_b", "gen_c", "omega", "eta_array", "eta_sum")

    def __init__(self, gen_a: float, gen_b: float, gen_c: float, omega: float, eta):
        if not gen_a > 0.0:
            raise ValueError(f"gen_a must be > 0, got {gen_a}")
        if omega < 0.0:
            raise ValueError(f"omega must be >= 0, got {omega}")
        eta_array = np.array(eta, dtype=float).reshape(-1)
        bad = np.flatnonzero(~((eta_array > 0.0) & (eta_array <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"eta[{i}] must be in (0, 1], got {eta_array[i]}")
        self.gen_a = gen_a  # currency/kW^2, strictly positive
        self.gen_b = gen_b  # currency/kW
        self.gen_c = gen_c  # currency
        self.omega = omega  # currency, weight of the log-utility term
        self.eta_array = eta_array
        # a left-to-right Python sum in ascending EV order, as every cost and
        # power figure built on it expects
        self.eta_sum = sum(eta_array.tolist())

    @property
    def eta(self) -> tuple[float, ...]:
        return tuple(self.eta_array.tolist())

    def restrict(self, ids: Sequence[int]) -> "AggCostParams":
        """Same coefficients, efficiency list restricted to the given EV ids."""
        return AggCostParams(self.gen_a, self.gen_b, self.gen_c, self.omega,
                             self.eta_array[np.asarray(ids, dtype=np.intp)])

    def _key(self) -> tuple:
        return (self.gen_a, self.gen_b, self.gen_c, self.omega, self.eta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AggCostParams):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        return (f"AggCostParams(gen_a={self.gen_a!r}, gen_b={self.gen_b!r}, "
                f"gen_c={self.gen_c!r}, omega={self.omega!r}, eta={self.eta!r})")


def _any_negative(rate) -> bool:
    if isinstance(rate, np.ndarray):
        return rate.size > 0 and float(rate.min()) < 0.0
    return rate < 0.0


def ev_net_cost(rate, params: EvCostParams):
    """Net cost of one EV discharging at ``rate`` kW (scalar or array)."""
    if _any_negative(rate):
        raise ValueError("discharge rate must be >= 0")
    return _ev_cost(rate, params.alpha_deg, params.beta_deg, params.gamma_deg,
                    params.other_ops, params.price)


def ev_net_cost_matrix(rates, table: "EvCostTable") -> np.ndarray:
    """Net cost of every EV in ``table`` at every rate: an (N, M) matrix.

    Row i equals ``ev_net_cost(rates, table[i])`` bit for bit: the same
    elementwise operations, broadcast over column-vector coefficients.
    """
    rates = np.asarray(rates, dtype=float)
    if _any_negative(rates):
        raise ValueError("discharge rate must be >= 0")
    return _ev_cost(rates, *(column[:, None] for column in table.columns()))


def _ev_cost(rate, alpha, beta, gamma, other, price):
    degradation = alpha * rate * rate + beta * rate + gamma
    revenue = price * rate
    return degradation + other - revenue


def agg_net_cost(rates, params: AggCostParams):
    """Aggregator net cost for one per-EV rate vector."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.shape[0] != len(params.eta_array):
        raise ValueError(
            f"expected {len(params.eta_array)} rates, got shape {rates.shape}"
        )
    if np.any(rates < 0.0):
        raise ValueError("discharge rates must be >= 0")
    delivered = float(np.dot(params.eta_array, rates))
    raw = float(np.sum(rates))
    generation = params.gen_a * delivered * delivered + params.gen_b * delivered + params.gen_c
    utility = params.omega * math.log(raw + 1.0)
    return generation - utility


def agg_consensus_cost(rate, params: AggCostParams):
    """Aggregator net cost when every EV discharges at the same ``rate``.

    Equivalent to ``agg_net_cost([rate] * n, params)`` up to float summation
    order; vectorized over arrays of candidate rates.
    """
    if _any_negative(rate):
        raise ValueError("discharge rate must be >= 0")
    n = len(params.eta_array)
    delivered = params.eta_sum * rate
    raw = n * rate
    generation = params.gen_a * delivered * delivered + params.gen_b * delivered + params.gen_c
    return generation - params.omega * np.log(raw + 1.0)


_EV_COST_FIELDS = ("alpha_deg", "beta_deg", "gamma_deg", "other_ops", "price")


class EvCostTable(Sequence):
    """Per-EV cost coefficients as numpy columns, one row per EV.

    A sequence of ``EvCostParams``: indexing builds the row's parameters on
    access, slicing and ``take`` give sub-tables. The columns carry the
    same constraints as ``EvCostParams``.
    """

    __slots__ = _EV_COST_FIELDS

    def __init__(self, alpha_deg, beta_deg, gamma_deg, other_ops, price):
        for name, column in zip(_EV_COST_FIELDS, (alpha_deg, beta_deg, gamma_deg, other_ops, price)):
            setattr(self, name, np.array(column, dtype=float).reshape(-1))
        if len({len(c) for c in self.columns()}) != 1:
            raise ValueError("cost columns differ in length")
        if not np.all(self.alpha_deg > 0.0):
            raise ValueError("alpha_deg must be > 0")
        if not np.all(self.other_ops >= 0.0):
            raise ValueError("other_ops must be >= 0")
        if not np.all(self.price >= 0.0):
            raise ValueError("price must be >= 0")

    @classmethod
    def from_params(cls, params: Iterable[EvCostParams]) -> "EvCostTable":
        rows = [(p.alpha_deg, p.beta_deg, p.gamma_deg, p.other_ops, p.price) for p in params]
        return cls(*(zip(*rows) if rows else ((),) * len(_EV_COST_FIELDS)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """(alpha_deg, beta_deg, gamma_deg, other_ops, price), one entry per EV."""
        return tuple(getattr(self, name) for name in _EV_COST_FIELDS)

    def take(self, ids) -> "EvCostTable":
        ids = np.asarray(ids, dtype=np.intp)
        return EvCostTable(*(column[ids] for column in self.columns()))

    def __len__(self) -> int:
        return len(self.alpha_deg)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        i = operator.index(index)
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"EV index {index} out of range for {n} EVs")
        return EvCostParams(*(float(column[i]) for column in self.columns()))

    def __iter__(self):
        for row in zip(*(column.tolist() for column in self.columns())):
            yield EvCostParams(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvCostTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"EvCostTable(<{len(self)} EVs>)"


@dataclass(frozen=True)
class CostSet:
    """One scenario instance's cost functions: per-EV params plus aggregator.

    ``ev`` may be given as any sequence of ``EvCostParams``; it is held as an
    ``EvCostTable``.
    """

    ev: EvCostTable
    agg: AggCostParams

    def __post_init__(self) -> None:
        if not isinstance(self.ev, EvCostTable):
            object.__setattr__(self, "ev", EvCostTable.from_params(self.ev))
        if len(self.ev) != len(self.agg.eta_array):
            raise ValueError(
                f"{len(self.ev)} EV cost params but {len(self.agg.eta_array)} efficiencies"
            )

    def restrict(self, ids: Sequence[int]) -> "CostSet":
        return CostSet(ev=self.ev.take(ids), agg=self.agg.restrict(ids))


def consensus_objective(rate, ev_params: Sequence[EvCostParams], agg_params: AggCostParams):
    """Total net cost when all EVs share one common rate (scalar or array)."""
    total = agg_consensus_cost(rate, agg_params)
    for p in ev_params:
        total = total + ev_net_cost(rate, p)
    return total


def grid_search_rate(
    ev_params: Sequence[EvCostParams],
    agg_params: AggCostParams,
    lower: float,
    upper: float,
    step: float = 1e-4,
) -> tuple[float, float]:
    """Brute-force minimizer of the consensus objective on a uniform grid.

    Ground truth for every convergence check; ties resolve to the lowest rate.
    Returns (best_rate, best_value).
    """
    if not lower <= upper:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    n_points = int(round((upper - lower) / step)) + 1
    grid = np.linspace(lower, upper, n_points)
    values = consensus_objective(grid, ev_params, agg_params)
    i = int(np.argmin(values))
    return float(grid[i]), float(values[i])


class CostOracle:
    """Evaluate-only wrapper around a cost function.

    Hides the coefficients (value queries only, no derivative or parameter
    readout) and counts every evaluation, mirroring a remotely deployed cost
    model billed per call. The counter is a plain int: use one oracle per
    worker rather than sharing across threads.
    """

    def __init__(self, fn: Callable):
        self._fn = fn
        self._calls = 0

    @property
    def call_count(self) -> int:
        return self._calls

    def evaluate(self, x) -> float:
        self._calls += 1
        return float(self._fn(x))

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a batch of inputs; each element counts as one call."""
        xs = np.asarray(xs, dtype=float)
        out = np.asarray(self._fn(xs), dtype=float)
        self._calls += xs.shape[0]
        return out

    @classmethod
    def for_ev(cls, params: EvCostParams) -> "CostOracle":
        return cls(lambda rate: ev_net_cost(rate, params))

    @classmethod
    def for_aggregator(cls, params: AggCostParams) -> "CostOracle":
        return cls(lambda rates: agg_net_cost(rates, params))

    @classmethod
    def for_aggregator_consensus(cls, params: AggCostParams) -> "CostOracle":
        """Oracle over one common rate applied to every EV in ``params.eta``."""
        return cls(lambda rate: agg_consensus_cost(rate, params))


def oracle_evaluate(oracle: CostOracle, x) -> float:
    """Evaluate through the oracle, incrementing its call counter by one."""
    return oracle.evaluate(x)


def sample_ev_cost_params(
    n: int,
    rng,
    price: float,
    alpha_range: tuple[float, float] = (0.001, 0.002),
    beta_range: tuple[float, float] = (0.001, 0.003),
    gamma_range: tuple[float, float] = (0.005, 0.015),
    other_range: tuple[float, float] = (0.005, 0.02),
) -> EvCostTable:
    """Draw per-EV cost coefficients uniformly from the configured ranges.

    Per EV, in order: alpha, beta, gamma, other; one uniform draw each (one
    vectorised draw consumes the stream in that order).
    """
    rng = np.random.default_rng(rng)
    bounds = (alpha_range, beta_range, gamma_range, other_range)
    lows, highs = zip(*bounds)
    alpha, beta, gamma, other = rng.uniform(lows, highs, size=(n, len(bounds))).T
    return EvCostTable(alpha, beta, gamma, other, np.full(n, price))
