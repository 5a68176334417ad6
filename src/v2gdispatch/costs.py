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
``CostMatrix`` computes the same operations in place, in the wire's units
of 2**-unit_bits, so the per-iteration path allocates nothing and leaves
quantisation only the rounding: at a common rate the generation term is the
EV formula ``f`` at D with coefficients (gen_a, gen_b, gen_c, 0), so the
aggregator is row 0 of the matrix operations every EV row runs, and its
utility term takes the place of the EVs' revenue. ``magnitude_bound``
bounds what the matrix can hold, from the tables alone.

Both models support scalar rates or numpy arrays of rates elementwise.
Per-EV coefficients are held only as columns, one row per EV, beside the one
price all EVs sell at (``EvCostTable``), so every agent's cost at every
candidate rate is a few broadcast operations into one matrix (``CostMatrix``).
The one-EV and per-EV-rate aggregator formulas above live in the tests, as
references the column forms are checked against.

The ground-truth oracle ``grid_search_rate`` evaluates ``consensus_objective``
on a uniform grid of common rates, ``_GRID_BLOCK`` points at a time; per
block, the revenue row ``price * rate`` is computed once (every EV sells at
the one price) and each EV's cost is computed in place into two buffers and
added into the running total. Its working memory is the grid plus a few
128 KiB buffers (the total, these three and the aggregator's temporaries),
1.39 MB traced on the default 66 001-point grid, at any N. Every value is
bit for bit what one pass over the whole grid gives.
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


def agg_consensus_cost(rate, ev: "EvCostTable", agg: AggCostParams):
    """Aggregator net cost when every EV of ``ev`` discharges at the same ``rate``.

    The module's ``Agg`` at per-EV rates all equal to ``rate``, up to float
    summation order: D = ``ev.eta_sum`` * rate and R = ``len(ev)`` * rate.
    Vectorized over arrays of candidate rates.
    """
    if np.min(rate, initial=0.0) < 0.0:
        raise ValueError("discharge rate must be >= 0")
    return agg_cost_of_power(ev.eta_sum * rate, len(ev) * rate, agg)


def agg_cost_of_power(delivered, raw, params: AggCostParams):
    """The module's ``Agg`` from its two power sums: ``delivered`` D and ``raw`` R.

    Scalar or elementwise over arrays; rates are not checked here.
    """
    generation = params.gen_a * delivered * delivered + params.gen_b * delivered + params.gen_c
    return generation - params.omega * np.log(raw + 1.0)


def _coefficient_table(ev: "EvCostTable", agg: AggCostParams) -> np.ndarray:
    """Every agent's coefficients, one column an agent in ``CostMatrix``'s
    row order, one row each for alpha, beta, gamma, other and the revenue
    weight: the aggregator's (gen_a, gen_b, gen_c, 0, omega), then each EV's
    four and the price."""
    table = np.empty((5, len(ev) + 1))
    table[:, 0] = agg.gen_a, agg.gen_b, agg.gen_c, 0.0, agg.omega
    table[:4, 1:] = ev.columns()
    table[4, 1:] = ev.price
    return table


class CostMatrix:
    """Every agent's net cost at M common candidate rates, in units of
    2**-``unit_bits``, as one matrix.

    Row 0 is the aggregator's ``agg_consensus_cost`` and rows 1..N the net
    costs ``f`` of the EVs of ``ev`` in order, each times 2**unit_bits, bit
    for bit: the same elementwise operations in the same order, on
    coefficients that are multiplied by 2**unit_bits once, when they are
    spread. A power of two scales every product and sum exactly, so each
    value is the unscaled one times 2**unit_bits, save where a product is
    subnormal before scaling: it has lost bits that the scaled product
    keeps. Row 0 runs the EV operations on the delivered power with the
    coefficients (gen_a, gen_b, gen_c, 0): ``gen_a > 0`` and D >= 0 keep
    the sum before ``+ 0.0`` from being -0.0, so adding 0 changes no bit.
    Then row 0 of the tiled rates becomes log(N*r + 1), and one product
    with the spread (omega, price, ..., price) and one subtraction take off
    the aggregator's utility and the EVs' revenue ``price * rate``. What is
    fixed across calls is set up once: the five coefficients spread to (N+1,
    M) arrays (contiguous operands keep each operation one flat loop rather
    than N short broadcast ones), the (N+1) x M output and work buffers and
    their views. Each call refills and returns the same ``values`` array.
    Rates must be >= 0, which is not checked per call. A coefficient whose
    scaled value overflows float64 raises ValueError, before any is scaled;
    ``run_optimization`` refuses an epoch whose values could leave the
    int64 wire before it builds one (``orchestrator.wire_refusal``).
    """

    __slots__ = ("values", "_coefficients", "_revenue", "_n", "_eta_sum", "_rates",
                 "_work", "_head", "_ev_rates")

    def __init__(self, ev: "EvCostTable", agg: AggCostParams, m: int, unit_bits: int):
        n = len(ev)
        table = _coefficient_table(ev, agg)
        scale = float(1 << unit_bits)
        peak = float(np.abs(table).max())
        if peak * scale == math.inf:
            raise ValueError(f"unit_bits: a cost coefficient of {peak!r} overflows float64 at "
                             f"{unit_bits} unit bits")
        table *= scale
        spread = np.repeat(table[:, :, None], m, axis=2)
        *self._coefficients, self._revenue = spread
        self._n, self._eta_sum = n, ev.eta_sum
        self.values = np.empty((n + 1, m))
        self._rates = np.empty((n + 1, m))
        self._work = np.empty((n + 1, m))
        self._head, self._ev_rates = self._rates[0], self._rates[1:]

    def __call__(self, rates: np.ndarray) -> np.ndarray:
        alpha, beta, gamma, other = self._coefficients
        values, tiled, work, head = self.values, self._rates, self._work, self._head
        np.multiply(self._eta_sum, rates, head)  # the delivered power D
        self._ev_rates[...] = rates
        # the EV formula f, every row at once; row 0 is the generation term
        np.multiply(alpha, tiled, values)
        np.multiply(values, tiled, values)
        np.multiply(beta, tiled, work)
        np.add(values, work, values)
        np.add(values, gamma, values)
        np.add(values, other, values)
        # the aggregator's utility log(N*r + 1), as agg_cost_of_power has it
        np.multiply(self._n, rates, head)
        np.add(head, 1.0, head)
        np.log(head, head)
        # omega * utility on row 0, price * rate on the EV rows
        np.multiply(self._revenue, tiled, work)
        np.subtract(values, work, values)
        return values


def magnitude_bound(ev: "EvCostTable", agg: AggCostParams, upper: float) -> float:
    """A bound on every column's sum of |values| of a ``CostMatrix`` of
    ``ev`` and ``agg`` at 0 unit bits, at rates in [0, ``upper``].

    A row's value is a sum of terms, each of a magnitude that does not
    decrease in the rate r >= 0: alpha*r^2, |beta|*r, |gamma|, other and,
    on the EV rows, price*r; row 0 takes them at D = eta_sum * r, and its
    utility term adds omega*log(N*r + 1). By the triangle inequality each
    row's |value| is at most its terms' magnitudes at ``upper``, summed
    here over the rows in O(N). NaN when a coefficient is, and inf, with
    no overflow warning, when a term is beyond float64.
    """
    n = len(ev)
    alpha, beta, gamma, other, price = _coefficient_table(ev, agg)
    price[0] = 0.0  # the aggregator sells nothing: its utility term is added below
    rates = np.full(n + 1, upper)
    rates[0] = ev.eta_sum * upper
    with np.errstate(over="ignore"):
        magnitudes = (alpha * rates + np.abs(beta) + price) * rates + np.abs(gamma) + other
    return float(magnitudes.sum()) + agg.omega * math.log(n * upper + 1.0)


_EV_COST_FIELDS = ("alpha_deg", "beta_deg", "gamma_deg", "other_ops")
_EV_FIELDS = _EV_COST_FIELDS + ("eta",)


class EvCostTable:
    """Per-EV cost coefficients and efficiencies as numpy columns, one row per
    EV, and the one price every EV sells at.

    Columns, in order, all finite: ``alpha_deg`` (currency/kW^2, > 0: convex
    degradation), ``beta_deg`` (currency/kW), ``gamma_deg`` (currency),
    ``other_ops`` (currency, >= 0, lumped non-degradation operating cost) and
    ``eta`` (DC-to-AC efficiency, in (0, 1]). ``price`` (currency/kW) is one
    finite float >= 0, fixed for the whole pricing period. ``eta_sum`` is the
    ``left_to_right_sum`` of ``eta``, the only efficiency figure the
    aggregator's cost reads. ``take`` gives the sub-table of some EVs.
    """

    __slots__ = _EV_FIELDS + ("price", "eta_sum")

    def __init__(self, alpha_deg, beta_deg, gamma_deg, other_ops, price, eta):
        columns = (alpha_deg, beta_deg, gamma_deg, other_ops, eta)
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
        if np.ndim(price) or not 0.0 <= price < math.inf:
            raise ValueError(f"price must be one finite number >= 0 for every EV, got {price!r}")
        self.price = float(price)
        bad = np.flatnonzero(~((self.eta > 0.0) & (self.eta <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"eta[{i}] must be in (0, 1], got {self.eta[i]}")
        self.eta_sum = left_to_right_sum(self.eta)

    def columns(self) -> tuple[np.ndarray, ...]:
        """(alpha_deg, beta_deg, gamma_deg, other_ops), one entry per EV."""
        return tuple(getattr(self, name) for name in _EV_COST_FIELDS)

    def take(self, ids) -> "EvCostTable":
        """The rows of the given EVs; rows of a checked table are not checked again."""
        ids = np.asarray(ids, dtype=np.intp)
        table = EvCostTable.__new__(EvCostTable)
        for name in _EV_FIELDS:
            setattr(table, name, getattr(self, name)[ids])
        table.price = self.price
        table.eta_sum = left_to_right_sum(table.eta)
        return table

    def __len__(self) -> int:
        return len(self.alpha_deg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvCostTable):
            return NotImplemented
        return self.price == other.price and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _EV_FIELDS)

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

    The aggregator's cost, then each EV's in order, added one at a time. A
    scalar rate runs as a one-point array and gives an ``np.float64``. The
    revenue row ``price * rate`` is computed once for all EVs, and each EV's
    cost, the module's ``f`` in its order of operations, is run in place into
    two buffers the size of ``rate`` and added into the running total; no
    other array is made per EV.
    """
    scalar = np.ndim(rate) == 0
    rate = np.atleast_1d(rate)
    total = agg_consensus_cost(rate, ev, agg)
    rows = zip(*(column.tolist() for column in ev.columns()))
    revenue = ev.price * rate
    cost, work = np.empty_like(total), np.empty_like(total)
    for alpha, beta, gamma, other in rows:
        np.multiply(alpha, rate, out=cost)
        cost *= rate
        np.multiply(beta, rate, out=work)
        cost += work
        cost += gamma
        cost += other
        cost -= revenue
        total += cost
    return total[0] if scalar else total


# Grid points per consensus_objective call in grid_search_rate: its buffers
# are 128 KiB each, and a 66 001-point grid takes five calls
_GRID_BLOCK = 16_384
# a grid of 2**27 points is 1 GiB of float64 rates, the cell cap of an epoch
# (``orchestrator.MAX_CELLS``); past it, numpy's failed allocation would name
# no option
MAX_GRID_POINTS = 2**27


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
    makes more than ``MAX_GRID_POINTS`` grid points raises ValueError, naming
    ``step``, before any allocation.
    """
    if not lower <= upper:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be a finite number > 0, got {step}")
    spans = (upper - lower) / step
    if not spans <= MAX_GRID_POINTS - 1:
        raise ValueError(f"step = {step} is too small: the grid over [{lower}, {upper}] would "
                         "hold more than 2**27 points")
    n_points = int(round(spans)) + 1
    grid = np.linspace(lower, upper, n_points)
    best, best_value = 0, np.inf
    for start in range(0, n_points, _GRID_BLOCK):
        values = consensus_objective(grid[start:start + _GRID_BLOCK], ev, agg)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best, best_value = start + i, values[i]
    return float(grid[best]), float(best_value)


def consensus_optimum(ev: EvCostTable, agg: AggCostParams, lower: float, upper: float) -> float:
    """The exact minimiser of ``consensus_objective`` over [lower, upper].

    At a common rate r the objective is F(r) = A*r^2 + B*r + C -
    omega*log(N*r + 1), with A = sum(alpha) + gen_a*eta_sum^2 and B =
    sum(beta - price) + gen_b*eta_sum. F is convex, and F'(r) = 0 is the
    larger root of 2AN*r^2 + (2A + BN)*r + (B - omega*N) = 0, taken here
    in the form that subtracts no close numbers, then clipped; ``ev``
    holds one EV or more. It reads every agent's coefficients, so it is
    ground truth for tests, never a protocol step.
    """
    n = len(ev)
    a = math.fsum(ev.alpha_deg) + agg.gen_a * ev.eta_sum**2
    b = math.fsum(ev.beta_deg) - n * ev.price + agg.gen_b * ev.eta_sum
    qa, qb, qc = 2.0 * a * n, 2.0 * a + b * n, b - agg.omega * n
    root = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    rate = (root - qb) / (2.0 * qa) if qb <= 0.0 else 2.0 * qc / (-qb - root)
    return min(max(rate, lower), upper)


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
    return EvCostTable(alpha, beta, gamma, other, price, eta)
