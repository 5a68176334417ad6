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

Stream contract (part of every run's reproducibility): the pool reads a
PCG64 stream of its own from its first word, through one ``PoolDraws``. Its
first M doubles u are the initial positions, ``lower + (upper − lower)·u``
as ``Generator.uniform`` has it. Then one update pass visits the whales in
ascending h. Each whale takes three uniform doubles, r, then l' (the spiral
shape l = 2l' − 1) and then the branch selector p, and after them, only for
a search move, its reference: ``integers(M)``, or one more uniform double in
a single-whale pool. The draws are numpy's ``Generator`` draws on that
stream, decoded from its raw 64-bit words: a uniform double is one word w
decoded as ``(w >> 11) * 2**-53``, and ``integers(M)`` is Lemire's bounded
draw on 32-bit halves: the low half of a word first, its high half kept for
the next 32-bit draw, and a draw u retried while
``(u*M) % 2**32 < (2**32 − M) % M``, else ``(u*M) >> 32``. A double does not
touch the kept half.
``exp`` and ``cos`` stay per whale on the libm scalars of ``math``: numpy's
SIMD exp is not correctly rounded either, and the two disagree in the last
bit on 91 855 of 2·10⁶ uniform inputs in [-1, 1] (numpy 2.4.6, AVX-512); one
such bit moves a whale, and so the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the pool reads its stream this many raw words a ``random_raw`` call (more
# when one read needs more). The draws do not depend on it. 2**11 moved a
# pool within 1 % of the fastest of 2**8 to 2**12 words, at M = 10 over 150
# iterations and at M = 30 over 300
POOL_BLOCK_WORDS = 2**11


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


def init_pool(m: int, lower: float, upper: float, k_max: int, draws: PoolDraws) -> WhalePool:
    """Uniform random initial candidates over the search interval: the
    first ``m`` doubles ``draws`` decodes (module docstring). The pool uses
    at most 4m words a pass after them, so it reads at most 4m·k_max ahead."""
    i = draws.reserve(draws.pos, m, 4 * m * k_max)
    draws.pos = i + m
    positions = lower + (upper - lower) * np.array(draws.doubles[i:i + m])
    return WhalePool(positions=positions, lower=lower, upper=upper, k_max=k_max)


class PoolDraws:
    """The pool's own PCG64 stream, seeded as ``np.random.default_rng(seed)``
    seeds it, read from its first word a block of raw words at a time and
    handed out as numpy's own ``random()`` and ``integers(m)`` would give
    them (module docstring).

    ``doubles`` (a list of uniform doubles) and ``words`` (the raw uint64
    words) hold the same words, read and not yet dropped; the pool's next
    read starts at ``pos``. ``half`` is the buffered high 32-bit half of a
    word, or None.
    """

    def __init__(self, seed) -> None:
        self.bit_generator = np.random.PCG64(seed)
        self.half = None
        self.doubles: list[float] = []
        self.words = np.empty(0, dtype=np.uint64)
        self.pos = 0

    def reserve(self, i: int, n: int, ahead: float = math.inf) -> int:
        """Cursor ``i`` with at least ``n`` words unread from it. A read
        drops the words before ``i``, from ``doubles`` in place, so a list a
        caller holds stays the list; it reads ``POOL_BLOCK_WORDS`` words, or
        ``ahead`` if fewer (the most the caller can still use), or as many
        as are missing if more."""
        unread = len(self.words) - i
        if unread < n:
            raw = self.bit_generator.random_raw(max(min(POOL_BLOCK_WORDS, ahead), n - unread))
            del self.doubles[:i]
            self.doubles += ((raw >> 11) * 2.0**-53).tolist()
            self.words = np.concatenate((self.words[i:], raw))
            i = 0
        return i

    def double(self, i: int) -> tuple[float, int]:
        """``random()`` at cursor ``i``: the value and the next cursor."""
        i = self.reserve(i, 1)
        return self.doubles[i], i + 1

    def index(self, m: int, i: int, keep: int = 0) -> tuple[int, int]:
        """``integers(m)`` at cursor ``i``, for 2 <= m <= 2**32: the value
        and the next cursor, with at least ``keep`` words unread after it."""
        threshold = (2**32 - m) % m
        while True:
            if self.half is None:
                i = self.reserve(i, 1 + keep)
                word = int(self.words[i])
                i += 1
                u, self.half = word & 0xFFFFFFFF, word >> 32
            else:
                u, self.half = self.half, None
            x = u * m
            if x & 0xFFFFFFFF >= threshold:
                return x >> 32, i


def advance_pool(pool: WhalePool, draws: PoolDraws) -> None:
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
    Draws follow the module's stream contract, from ``draws``.
    """
    alpha = alpha_schedule(pool.k, pool.k_max)
    best = pool.best_rate
    if math.isnan(best):
        raise ValueError("pool has no evaluated best yet")
    lower, upper = pool.lower, pool.upper
    positions = pool.positions.tolist()
    m = len(positions)
    # the triples are read unchecked: three words a whale are reserved, and
    # a reference draw keeps those of the whales after it. A pass takes at
    # most 4m words but for a retried reference, so an epoch's last read
    # stops near its end
    doubles = draws.doubles
    i = draws.reserve(draws.pos, 3 * m, 4 * m * (pool.k_max - pool.k))
    moved = []
    for h, cur in enumerate(positions):
        r, l, p = doubles[i], doubles[i + 1], doubles[i + 2]
        i += 3
        l = 2.0 * l - 1.0
        A = 2.0 * alpha * r - alpha
        if p < 0.5:
            if abs(A) < 1.0:
                ref = best
            elif m > 1:
                h_ref, i = draws.index(m, i, 3 * (m - 1 - h))
                ref = positions[h_ref]
            else:
                u, i = draws.double(i)
                ref = lower + (upper - lower) * u
            new = ref - A * abs(2.0 * r * ref - cur)
        else:
            new = abs(best - cur) * math.exp(l) * math.cos(2.0 * math.pi * l) + best
        if new < lower:
            new = lower
        elif new > upper:
            new = upper
        moved.append(new)
    draws.pos = i
    pool.positions = np.array(moved)
    pool.k += 1
