"""Whale-style position updates over a pool of candidate discharge rates.

The pool holds M scalar candidates clamped to [lower, upper]. Each iteration
every candidate moves by one of three rules: shrink toward the incumbent best
("encircle"), jump relative to a random reference ("search", fires while the
step coefficient is still large), or spiral in around the best. The control
scalar ``alpha`` decays linearly from 2 to 0 so late iterations exploit.

The incumbent (``best_rate``, ``best_value``) is elitist: the best pair ever
evaluated, retained even when every pool position has moved off it. It is
both the anchor of the update rules and the reported answer, which keeps the
best-so-far objective non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def alpha_schedule(k: int, k_max: int) -> float:
    """Linear decay from 2 at k=0 to 0 at k=k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not 0 <= k <= k_max:
        raise ValueError(f"iteration {k} outside [0, {k_max}]")
    return 2.0 * (1.0 - k / k_max)


def clamp_to_bounds(rate: float, lower: float, upper: float) -> float:
    """Amend a position that left the search space."""
    if lower > upper:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    return min(max(rate, lower), upper)


@dataclass(frozen=True)
class WoaCoefficients:
    """Per-whale random control numbers for one update."""

    alpha: float
    r: float       # in [0, 1]
    l: float       # in [-1, 1], spiral shape
    p_rand: float  # in [0, 1], branch selector

    @property
    def A(self) -> float:
        return 2.0 * self.alpha * self.r - self.alpha

    @property
    def C(self) -> float:
        return 2.0 * self.r

    @classmethod
    def draw(cls, alpha: float, rng) -> "WoaCoefficients":
        # fresh r, l, p per whale per iteration; draw order is part of the
        # reproducibility contract
        r = float(rng.random())
        l = 2.0 * float(rng.random()) - 1.0
        p_rand = float(rng.random())
        return cls(alpha=alpha, r=r, l=l, p_rand=p_rand)


@dataclass
class WhalePool:
    """The M candidate rates plus selection bookkeeping, owned by the ECN."""

    positions: np.ndarray
    lower: float
    upper: float
    k_max: int
    k: int = 0
    best_index: int = 0
    best_rate: float = math.nan
    best_value: float = math.inf

    def __post_init__(self) -> None:
        if len(self.positions) < 1:
            raise ValueError("pool needs at least one candidate")
        if self.lower > self.upper:
            raise ValueError(f"need lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def size(self) -> int:
        return len(self.positions)

    def record_evaluation(self, values, index: int | None = None) -> int:
        """Note this iteration's evaluated totals; keep the elitist best.

        ``index`` overrides the argmin (the coordinator's own selection);
        ties resolve to the lowest candidate index either way.
        """
        values = np.asarray(values, dtype=float)
        if index is None:
            index = int(np.argmin(values))
        self.best_index = index
        if values[index] < self.best_value:
            self.best_value = float(values[index])
            self.best_rate = float(self.positions[index])
        return index


def init_pool(m: int, lower: float, upper: float, k_max: int, rng) -> WhalePool:
    """Uniform random initial candidates over the search interval."""
    if m < 1:
        raise ValueError(f"need at least one whale, got {m}")
    rng = np.random.default_rng(rng)
    positions = rng.uniform(lower, upper, m)
    return WhalePool(positions=positions, lower=lower, upper=upper, k_max=k_max)


def update_position(h: int, pool: WhalePool, coeffs: WoaCoefficients, rng) -> float:
    """New position for whale ``h`` from the pool's pre-update state.

    Branch on p_rand: below 0.5 the move is an absolute-distance step toward
    the incumbent best (|A| < 1) or a random reference (|A| >= 1); otherwise
    a log-spiral around the best. A single-whale pool has no distinct random
    reference, so the search branch falls back to a uniform point in bounds
    (otherwise every move scales with the incumbent's magnitude and a whale
    started near zero stays trapped there). The result is clamped to bounds.
    """
    if math.isnan(pool.best_rate):
        raise ValueError("pool has no evaluated best yet")
    cur = float(pool.positions[h])
    if coeffs.p_rand < 0.5:
        if abs(coeffs.A) < 1.0:
            ref = pool.best_rate
        elif pool.size > 1:
            ref = float(pool.positions[int(rng.integers(pool.size))])
        else:
            ref = pool.lower + (pool.upper - pool.lower) * float(rng.random())
        new = ref - coeffs.A * abs(coeffs.C * ref - cur)
    else:
        dist = abs(pool.best_rate - cur)
        new = dist * math.exp(coeffs.l) * math.cos(2.0 * math.pi * coeffs.l) + pool.best_rate
    return clamp_to_bounds(new, pool.lower, pool.upper)


def advance_pool(pool: WhalePool, rng) -> None:
    """One update pass: move every whale, ascending h, reading the state from
    the start of the iteration; then advance the iteration counter."""
    alpha = alpha_schedule(pool.k, pool.k_max)
    new_positions = np.empty_like(pool.positions)
    for h in range(pool.size):
        coeffs = WoaCoefficients.draw(alpha, rng)
        new_positions[h] = update_position(h, pool, coeffs, rng)
    pool.positions = new_positions
    pool.k += 1
