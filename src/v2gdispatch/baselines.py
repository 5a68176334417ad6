"""Centralized baselines: whale and grey-wolf optimizers over per-EV rate vectors.

Both solvers work on the full N-dimensional vector of per-EV rates and handle
the equal-rates requirement through a penalty added to the fitness, graded by
how far the vector spreads: penalty = cap * min(1, spread / spread_scale)
whenever the largest pairwise gap exceeds the tolerance. A pure all-or-nothing
penalty would be unsatisfiable on a continuous search space, so partial
progress toward consensus still registers.

Fitness callables accept a (pop, dim) matrix and return one value per row
(a single vector is promoted), which keeps the solvers vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .costs import AggCostParams, CostSet, EvCostParams


@dataclass(frozen=True)
class PenaltyConfig:
    """Consensus-violation penalty for the centralized solvers."""

    cap: float = 10.0
    tolerance_kw: float = 1e-6
    spread_scale_kw: float | None = None  # None: use the search range width

    def __post_init__(self) -> None:
        if not self.cap > 0.0:
            raise ValueError(f"penalty cap must be > 0, got {self.cap}")
        if self.tolerance_kw < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance_kw}")


def consensus_spread(rates) -> float:
    """Largest pairwise gap |c_i - c_j| in a rate vector."""
    rates = np.asarray(rates, dtype=float)
    return float(rates.max() - rates.min())


def make_penalized_fitness(
    ev_params: Sequence[EvCostParams],
    agg_params: AggCostParams,
    penalty: PenaltyConfig,
    lower: float,
    upper: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized objective + graded consensus penalty over rate matrices."""
    alpha = np.array([p.alpha_deg for p in ev_params])
    beta = np.array([p.beta_deg for p in ev_params])
    const = np.array([p.gamma_deg + p.other_ops for p in ev_params])
    price = np.array([p.price for p in ev_params])
    eta = agg_params.eta_array
    if len(eta) != len(ev_params):
        raise ValueError(f"{len(ev_params)} EV params but {len(eta)} efficiencies")
    scale = penalty.spread_scale_kw if penalty.spread_scale_kw is not None else upper - lower
    if not scale > 0.0:
        raise ValueError(f"spread scale must be > 0, got {scale}")

    def fitness(rates: np.ndarray) -> np.ndarray:
        pop = np.atleast_2d(np.asarray(rates, dtype=float))
        if pop.shape[1] != len(eta):
            raise ValueError(f"expected {len(eta)} rates per row, got {pop.shape[1]}")
        ev_cost = (pop * pop) @ alpha + pop @ (beta - price) + const.sum()
        delivered = pop @ eta
        raw = pop.sum(axis=1)
        agg_cost = (
            agg_params.gen_a * delivered * delivered
            + agg_params.gen_b * delivered
            + agg_params.gen_c
            - agg_params.omega * np.log(raw + 1.0)
        )
        spread = pop.max(axis=1) - pop.min(axis=1)
        pen = np.where(
            spread > penalty.tolerance_kw,
            penalty.cap * np.minimum(1.0, spread / scale),
            0.0,
        )
        out = ev_cost + agg_cost + pen
        return out if np.asarray(rates).ndim > 1 else out[0]

    return fitness


def penalized_fitness(
    rates,
    costs: CostSet,
    penalty: PenaltyConfig,
    lower: float,
    upper: float,
) -> float:
    """True total objective of one rate vector plus the consensus penalty."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.shape[0] != len(costs.ev):
        raise ValueError(f"expected {len(costs.ev)} rates, got shape {rates.shape}")
    fn = make_penalized_fitness(costs.ev, costs.agg, penalty, lower, upper)
    return float(fn(rates))


def cwoa_solve(
    dim: int,
    fitness: Callable[[np.ndarray], np.ndarray],
    m: int = 30,
    k_max: int = 300,
    seed=0,
    lower: float = 0.0,
    upper: float = 6.6,
) -> tuple[np.ndarray, list[float]]:
    """Centralized whale optimization over a dim-dimensional box.

    Per-dimension encircle/search moves and per-whale spirals around the
    best-so-far leader; returns the leader vector and the best-fitness trace
    (one entry per iteration, non-increasing).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(lower, upper, (m, dim))
    fit = np.asarray(fitness(pos), dtype=float)
    leader = int(np.argmin(fit))
    best_x = pos[leader].copy()
    best_f = float(fit[leader])
    trace = []

    for k in range(k_max):
        a = 2.0 * (1.0 - k / k_max)
        for i in range(m):
            r1 = rng.random(dim)
            r2 = rng.random(dim)
            A = 2.0 * a * r1 - a
            C = 2.0 * r2
            p = rng.random()
            if p < 0.5:
                encircle = best_x - A * np.abs(C * best_x - pos[i])
                other = pos[int(rng.integers(m))]
                search = other - A * np.abs(C * other - pos[i])
                pos[i] = np.where(np.abs(A) < 1.0, encircle, search)
            else:
                l = 2.0 * rng.random() - 1.0
                dist = np.abs(best_x - pos[i])
                pos[i] = dist * np.exp(l) * np.cos(2.0 * np.pi * l) + best_x
        np.clip(pos, lower, upper, out=pos)
        fit = np.asarray(fitness(pos), dtype=float)
        leader = int(np.argmin(fit))
        if fit[leader] < best_f:
            best_f = float(fit[leader])
            best_x = pos[leader].copy()
        trace.append(best_f)
    return best_x, trace


def gwo_solve(
    dim: int,
    fitness: Callable[[np.ndarray], np.ndarray],
    pack_size: int = 30,
    k_max: int = 300,
    seed=0,
    lower: float = 0.0,
    upper: float = 6.6,
) -> tuple[np.ndarray, list[float]]:
    """Grey wolf optimization: every wolf averages pulls toward the three
    current leaders. Same trace contract as cwoa_solve."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if pack_size < 3:
        raise ValueError(f"pack needs at least 3 wolves, got {pack_size}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(lower, upper, (pack_size, dim))
    fit = np.asarray(fitness(pos), dtype=float)
    order = np.argsort(fit)
    leaders = pos[order[:3]].copy()
    best_x = pos[order[0]].copy()
    best_f = float(fit[order[0]])
    trace = []

    for k in range(k_max):
        a = 2.0 * (1.0 - k / k_max)
        pulls = np.empty((3, pack_size, dim))
        for j in range(3):
            r1 = rng.random((pack_size, dim))
            r2 = rng.random((pack_size, dim))
            A = 2.0 * a * r1 - a
            C = 2.0 * r2
            pulls[j] = leaders[j] - A * np.abs(C * leaders[j] - pos)
        pos = pulls.mean(axis=0)
        np.clip(pos, lower, upper, out=pos)
        fit = np.asarray(fitness(pos), dtype=float)
        order = np.argsort(fit)
        leaders = pos[order[:3]].copy()
        if fit[order[0]] < best_f:
            best_f = float(fit[order[0]])
            best_x = pos[order[0]].copy()
        trace.append(best_f)
    return best_x, trace
