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
The efficiency ``eta_i`` is EV i's, a column of the EV table; the
aggregator holds only its four coefficients (``AggCostParams``), and at a
common rate ``r`` it needs only D = eta_sum * r and R = n * r.
``agg_cost_of_power`` is the one allocating form of ``Agg``, from D and R;
``agg_consensus_cost`` and the centralized baselines' fitness both call it.
``CostMatrix`` computes the same operations in place, so the per-iteration
path allocates nothing: at a common rate the generation term is the EV
formula ``f`` at D with coefficients (gen_a, gen_b, gen_c, 0, 0), so the
aggregator is row 0 of the matrix operations every EV row runs, and only
its utility term is computed apart.

Both models support scalar rates or numpy arrays of rates elementwise.
Per-EV coefficients are held only as columns, one row per EV
(``EvCostTable``), so every agent's cost at every candidate rate is a few
broadcast operations into one matrix (``CostMatrix``). The one-EV and
per-EV-rate aggregator formulas above live in the tests, as references the
column forms are checked against.

The ground-truth oracle ``grid_search_rate`` evaluates ``consensus_objective``
on a uniform grid of common rates, ``_GRID_BLOCK`` points at a time; per
block, each EV's cost is computed in place into two buffers and added into
the running total. The revenue row ``price * rate`` sits in a third buffer
and is computed once per run of consecutive EVs with the same price, so a
fleet with one price (every ``build_instance`` fleet) computes it once per
block, and each EV takes 8 passes over the block instead of 9. Its working
memory is the grid plus a few 128 KiB buffers (the total, these three and
the aggregator's temporaries), 1.39 MB traced on the default 66 001-point
grid, at any N. Every value is bit for bit what one pass over the whole
grid gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class AggCostParams:
    """The aggregator's four net-cost coefficients, all finite floats.

    It holds nothing per EV: its cost at a common rate needs only the sum of
    the available EVs' efficiencies, ``EvCostTable.eta_sum``.
    """

    gen_a: float  # currency/kW^2, strictly positive
    gen_b: float  # currency/kW
    gen_c: float  # currency
    omega: float  # currency, weight of the log-utility term

    def __post_init__(self) -> None:
        for name in ("gen_a", "gen_b", "gen_c", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.gen_a > 0.0:
            raise ValueError(f"gen_a must be > 0, got {self.gen_a}")
        if not self.omega >= 0.0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")


def left_to_right_sum(values: np.ndarray) -> float:
    """The sum of ``values`` in their order, as a Python float: the last
    running total of a sequential accumulate, never numpy's pairwise sum, so
    every cost and power figure built on an efficiency sum gets the same
    bits. 0.0 for no values."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _any_negative(rate) -> bool:
    if isinstance(rate, np.ndarray):
        return rate.size > 0 and float(rate.min()) < 0.0
    return rate < 0.0


def _ev_cost(rate, alpha, beta, gamma, other, price):
    degradation = alpha * rate * rate + beta * rate + gamma
    revenue = price * rate
    return degradation + other - revenue


def agg_consensus_cost(rate, ev: "EvCostTable", agg: AggCostParams):
    """Aggregator net cost when every EV of ``ev`` discharges at the same ``rate``.

    The module's ``Agg`` at per-EV rates all equal to ``rate``, up to float
    summation order: D = ``ev.eta_sum`` * rate and R = ``len(ev)`` * rate.
    Vectorized over arrays of candidate rates.
    """
    if _any_negative(rate):
        raise ValueError("discharge rate must be >= 0")
    return agg_cost_of_power(ev.eta_sum * rate, len(ev) * rate, agg)


def agg_cost_of_power(delivered, raw, params: AggCostParams):
    """The module's ``Agg`` from its two power sums: ``delivered`` D and ``raw`` R.

    Scalar or elementwise over arrays; rates are not checked here.
    """
    generation = params.gen_a * delivered * delivered + params.gen_b * delivered + params.gen_c
    return generation - params.omega * np.log(raw + 1.0)


class CostMatrix:
    """Every agent's net cost at M common candidate rates, as one matrix.

    Row 0 is the aggregator's ``agg_consensus_cost`` and rows 1..N the net
    costs ``f`` of the EVs of ``ev`` in order, bit for bit: the same
    elementwise operations in the same order. Row 0 runs the EV operations
    on the delivered power with the coefficients (gen_a, gen_b, gen_c, 0,
    0): ``gen_a > 0`` and D >= 0 keep the sum before ``+ 0.0`` from being
    -0.0, so adding 0 and subtracting ``0.0 * D`` change no bit. Then its
    utility term is subtracted. What is fixed across calls is set up once:
    the coefficients spread to (N+1, M) arrays (contiguous operands keep
    each operation one flat loop rather than N short broadcast ones), the
    aggregator's utility constants and the (N+1) x M output. Each call
    refills and returns the same ``values`` array. Rates must be >= 0,
    which is not checked per call.
    """

    __slots__ = ("values", "_coefficients", "_utility", "_rates", "_work")

    def __init__(self, ev: "EvCostTable", agg: AggCostParams, m: int):
        shape = (len(ev) + 1, m)
        generation = (agg.gen_a, agg.gen_b, agg.gen_c, 0.0, 0.0)
        self._coefficients = tuple(np.repeat(np.concatenate(([a], column))[:, None], m, axis=1)
                                   for a, column in zip(generation, ev.columns()))
        self._utility = (ev.eta_sum, len(ev), agg.omega)
        self.values = np.empty(shape)
        self._rates = np.empty(shape)
        self._work = np.empty(shape)

    def __call__(self, rates: np.ndarray) -> np.ndarray:
        eta_sum, n, omega = self._utility
        alpha, beta, gamma, other, price = self._coefficients
        values, tiled, work = self.values, self._rates, self._work
        np.multiply(eta_sum, rates, out=tiled[0])  # the delivered power D
        tiled[1:] = rates
        # _ev_cost, every row at once; row 0 is the generation term
        np.multiply(alpha, tiled, out=values)
        values *= tiled
        np.multiply(beta, tiled, out=work)
        values += work
        values += gamma
        values += other
        np.multiply(price, tiled, out=work)
        values -= work
        # the aggregator's utility term, as agg_cost_of_power has it
        utility = work[0]
        np.multiply(n, rates, out=utility)
        utility += 1.0
        np.log(utility, out=utility)
        np.multiply(omega, utility, out=utility)
        values[0] -= utility
        return values

    def magnitude_bound(self, upper: float) -> float:
        """A bound on every column's sum of |values| at rates in [0, ``upper``].

        A row's value is a sum of terms, each of a magnitude that does not
        decrease in the rate r >= 0: alpha*r^2, |beta|*r, |gamma|, other and
        price*r, at D = eta_sum * r on row 0, whose utility term adds
        omega*log(N*r + 1). By the triangle inequality each row's |value| is
        at most its terms' magnitudes at ``upper``, summed here over the
        rows in O(N). NaN when a coefficient is.
        """
        eta_sum, n, omega = self._utility
        alpha, beta, gamma, other, price = (c[:, 0] for c in self._coefficients)
        rates = np.full(alpha.shape, upper)
        rates[0] = eta_sum * upper
        magnitudes = (alpha * rates + np.abs(beta) + price) * rates + np.abs(gamma) + other
        return float(magnitudes.sum()) + omega * math.log(n * upper + 1.0)


_EV_COST_FIELDS = ("alpha_deg", "beta_deg", "gamma_deg", "other_ops", "price")
_EV_FIELDS = _EV_COST_FIELDS + ("eta",)


class EvCostTable:
    """Per-EV cost coefficients and efficiencies as numpy columns, one row per EV.

    Columns, in order, all finite: ``alpha_deg`` (currency/kW^2, > 0: convex
    degradation), ``beta_deg`` (currency/kW), ``gamma_deg`` (currency),
    ``other_ops`` (currency, >= 0, lumped non-degradation operating cost),
    ``price`` (currency/kW, >= 0, fixed for the whole pricing period) and
    ``eta`` (DC-to-AC efficiency, in (0, 1]). ``eta_sum`` is the
    ``left_to_right_sum`` of ``eta``, the only efficiency figure the
    aggregator's cost reads. ``take`` gives the sub-table of some EVs.
    """

    __slots__ = _EV_FIELDS + ("eta_sum",)

    def __init__(self, alpha_deg, beta_deg, gamma_deg, other_ops, price, eta):
        columns = (alpha_deg, beta_deg, gamma_deg, other_ops, price, eta)
        for name, column in zip(_EV_FIELDS, columns):
            setattr(self, name, np.array(column, dtype=float).reshape(-1))
        if len({len(getattr(self, name)) for name in _EV_FIELDS}) != 1:
            raise ValueError("cost columns differ in length")
        for name, column in zip(_EV_COST_FIELDS, self.columns()):
            if not np.isfinite(column).all():
                raise ValueError(f"{name} must be finite")
        if not np.all(self.alpha_deg > 0.0):
            raise ValueError("alpha_deg must be > 0")
        if not np.all(self.other_ops >= 0.0):
            raise ValueError("other_ops must be >= 0")
        if not np.all(self.price >= 0.0):
            raise ValueError("price must be >= 0")
        bad = np.flatnonzero(~((self.eta > 0.0) & (self.eta <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"eta[{i}] must be in (0, 1], got {self.eta[i]}")
        self.eta_sum = left_to_right_sum(self.eta)

    def columns(self) -> tuple[np.ndarray, ...]:
        """(alpha_deg, beta_deg, gamma_deg, other_ops, price), one entry per EV."""
        return tuple(getattr(self, name) for name in _EV_COST_FIELDS)

    def take(self, ids) -> "EvCostTable":
        """The rows of the given EVs; rows of a checked table are not checked again."""
        ids = np.asarray(ids, dtype=np.intp)
        table = EvCostTable.__new__(EvCostTable)
        for name in _EV_FIELDS:
            setattr(table, name, getattr(self, name)[ids])
        table.eta_sum = left_to_right_sum(table.eta)
        return table

    def __len__(self) -> int:
        return len(self.alpha_deg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvCostTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _EV_FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        return f"EvCostTable(<{len(self)} EVs>)"


@dataclass(frozen=True)
class CostSet:
    """One scenario instance's cost functions: per-EV columns plus aggregator."""

    ev: EvCostTable
    agg: AggCostParams

    def restrict(self, ids: Sequence[int]) -> "CostSet":
        return CostSet(self.ev.take(ids), self.agg)


def consensus_objective(rate, ev: EvCostTable, agg: AggCostParams):
    """Total net cost when all EVs share one common rate (scalar or array).

    The aggregator's cost, then each EV's in order, added one at a time.
    For an array of rates each EV's cost is ``_ev_cost``'s operations run in
    place, in its order, into buffers the size of ``rate``, and added into
    the running total; no other array is made per EV. The revenue row
    ``price * rate`` is computed again only when an EV's price differs in
    its float64 bits from the EV's before it (so 0.0 and -0.0 are told
    apart), which leaves every product, and so every value, as it was. A
    scalar rate takes ``_ev_cost`` itself on Python floats: the same bits,
    and at N = 1 000 about 1 ms where the in-place loop on a 0-d array
    takes 16.
    """
    total = agg_consensus_cost(rate, ev, agg)
    rows = zip(*(column.tolist() for column in ev.columns()))
    if np.ndim(rate) == 0:
        for row in rows:
            total = total + _ev_cost(rate, *row)
        return total
    cost, work, revenue = np.empty_like(total), np.empty_like(total), np.empty_like(total)
    revenue_price = None  # the bits of the price whose product ``revenue`` holds
    price_bits = ev.price.view(np.uint64).tolist()
    for (alpha, beta, gamma, other, price), bits in zip(rows, price_bits):
        np.multiply(alpha, rate, out=cost)
        cost *= rate
        np.multiply(beta, rate, out=work)
        cost += work
        cost += gamma
        cost += other
        if bits != revenue_price:
            np.multiply(price, rate, out=revenue)
            revenue_price = bits
        cost -= revenue
        total += cost
    return total


# Grid points per consensus_objective call in grid_search_rate: its buffers
# are 128 KiB each, and a 66 001-point grid takes five calls
_GRID_BLOCK = 16_384


def grid_search_rate(
    ev: EvCostTable,
    agg: AggCostParams,
    lower: float,
    upper: float,
    step: float = 1e-4,
) -> tuple[float, float]:
    """Brute-force minimizer of the consensus objective on a uniform grid.

    Ground truth for every convergence check; ties resolve to the lowest rate.
    Returns (best_rate, best_value). The grid is one ``np.linspace``; the
    objective is evaluated on it ``_GRID_BLOCK`` points at a time, each point
    with the same operations as over the whole grid at once, and a block's
    minimum replaces the best only when strictly lower, so the result is
    ``np.argmin``'s over the full grid, bit for bit. Working memory is the
    grid (8 bytes a point) plus a few block-sized buffers. A ``step`` that
    makes 2**53 or more grid points raises ValueError before any allocation.
    """
    if not lower <= upper:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be a finite number > 0, got {step}")
    spans = (upper - lower) / step
    # n_points = round(spans) + 1 must stay below 2**53, from where float64
    # cannot count points exactly (the rule of ``orchestrator.step_count``)
    if not spans < 2**53 - 1:
        raise ValueError(f"step = {step} is too small to count the grid over [{lower}, {upper}]")
    n_points = int(round(spans)) + 1
    grid = np.linspace(lower, upper, n_points)
    best, best_value = 0, np.inf
    for start in range(0, n_points, _GRID_BLOCK):
        values = consensus_objective(grid[start:start + _GRID_BLOCK], ev, agg)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best, best_value = start + i, values[i]
    return float(grid[best]), float(best_value)


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


def sample_ev_cost_params(
    eta,
    rng,
    price: float,
    alpha_range: tuple[float, float] = (0.001, 0.002),
    beta_range: tuple[float, float] = (0.001, 0.003),
    gamma_range: tuple[float, float] = (0.005, 0.015),
    other_range: tuple[float, float] = (0.005, 0.02),
) -> EvCostTable:
    """The cost table of EVs with efficiencies ``eta`` (the fleet's column),
    their coefficients drawn uniformly from the configured ranges.

    One ``rng.random((len(eta), 4))`` block, row i for EV i, its columns
    alpha, beta, gamma and other, each scaled as ``low + (high - low) * u``.
    That consumes the stream and gives the bits of ``rng.uniform`` over the
    same bounds and shape.
    """
    rng = np.random.default_rng(rng)
    n = len(eta)
    bounds = (alpha_range, beta_range, gamma_range, other_range)
    draws = rng.random((n, len(bounds))).T  # draws[k]: every EV's draw for bounds[k]
    alpha, beta, gamma, other = (lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws))
    return EvCostTable(alpha, beta, gamma, other, np.full(n, price), eta)
