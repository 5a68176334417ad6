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

Stream contract (part of every run's reproducibility): one update pass
visits the whales in ascending h. Each whale takes three uniform doubles,
r, then l' (the spiral shape l = 2l' − 1) and then the branch selector p,
and after them, only for a search move, its reference: ``integers(M)``, or
one more uniform double in a single-whale pool. A search move needs
|A| >= 1, and |A| <= alpha, so once alpha < 1 the pass draws all M triples
as one (M, 3) block, which consumes the generator exactly as the per-whale
draws do; before that, each whale's triple is drawn into one reused
3-buffer (``random(out=...)``), which consumes the generator as
``random(3)`` does.
``exp`` and ``cos`` stay per whale on the libm scalars of
``math``: numpy's SIMD exp is not correctly rounded either, and the two
disagree in the last bit on 91 855 of 2·10⁶ uniform inputs in [-1, 1]
(numpy 2.4.6, AVX-512); one such bit moves a whale, and so the run.
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


@dataclass
class WhalePool:
    """The M candidate rates plus the elitist best, owned by the ECN.

    The ECN's own selection (``orchestrator.ecn_select_best``) supplies the
    index of each iteration's best candidate; the pool keeps the best, its
    ``best_value`` the total as the ECN compares it (int units in an epoch).
    """

    positions: np.ndarray
    lower: float
    upper: float
    k_max: int
    k: int = 0
    best_rate: float = math.nan
    best_value: float = math.inf

    def __post_init__(self) -> None:
        if len(self.positions) < 1:
            raise ValueError("pool needs at least one candidate")
        if self.lower > self.upper:
            raise ValueError(f"need lower <= upper, got [{self.lower}, {self.upper}]")

    def record_evaluation(self, values, index: int) -> None:
        """Note this iteration's totals and the selected candidate's index;
        keep the elitist best and its total as given, never rounded to a float."""
        if values[index] < self.best_value:
            self.best_value = values[index]
            self.best_rate = float(self.positions[index])


def init_pool(m: int, lower: float, upper: float, k_max: int, rng) -> WhalePool:
    """Uniform random initial candidates over the search interval."""
    rng = np.random.default_rng(rng)
    positions = rng.uniform(lower, upper, m)
    return WhalePool(positions=positions, lower=lower, upper=upper, k_max=k_max)


def advance_pool(pool: WhalePool, rng) -> None:
    """One update pass: move every whale, ascending h, reading the state from
    the start of the iteration; then advance the iteration counter.

    With A = 2·alpha·r − alpha and C = 2r, whale h moves on p: below 0.5 an
    absolute-distance step ``ref − A·|C·ref − cur|`` toward the incumbent
    best (|A| < 1) or a random reference (|A| >= 1); otherwise a log-spiral
    ``|best − cur|·e^l·cos(2πl) + best``. A single-whale pool has no
    distinct random reference, so its search step takes a uniform point in
    bounds instead (otherwise every move scales with the incumbent's
    magnitude and a whale started near zero stays trapped there). Each new
    position is clamped to bounds by two comparisons, which give the bits of
    ``min(max(new, lower), upper)`` (lower <= upper), for ±0.0 and NaN too.
    Draws follow the module's stream contract.
    """
    alpha = alpha_schedule(pool.k, pool.k_max)
    best = pool.best_rate
    if math.isnan(best):
        raise ValueError("pool has no evaluated best yet")
    lower, upper = pool.lower, pool.upper
    positions = pool.positions.tolist()
    m = len(positions)
    random = rng.random
    # |A| <= alpha, so below 1 no whale draws a reference and the M triples
    # lie back to back in the stream
    triples = random((m, 3)).tolist() if alpha < 1.0 else None
    triple = np.empty(3)
    moved = []
    for h, cur in enumerate(positions):
        r, l, p = triples[h] if triples is not None else random(out=triple).tolist()
        l = 2.0 * l - 1.0
        A = 2.0 * alpha * r - alpha
        if p < 0.5:
            if abs(A) < 1.0:
                ref = best
            elif m > 1:
                ref = positions[int(rng.integers(m))]
            else:
                ref = lower + (upper - lower) * float(random())
            new = ref - A * abs(2.0 * r * ref - cur)
        else:
            new = abs(best - cur) * math.exp(l) * math.cos(2.0 * math.pi * l) + best
        if new < lower:
            new = lower
        elif new > upper:
            new = upper
        moved.append(new)
    pool.positions = np.array(moved)
    pool.k += 1
