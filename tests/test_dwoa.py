"""Whale pool update rules, schedule, clamping, and scalar convergence.

``advance_pool`` is checked against a scalar reference kept here: one
``WoaCoefficients.draw`` and one ``update_position`` per whale, three scalar
draws and then the reference draw, as the module's stream contract states,
with ``clamp_to_bounds`` amending a position that left [lower, upper]. The
reference draws from numpy's ``Generator`` one call at a time, its initial
positions through ``uniform`` (``reference_pool``); the pool reads the same
stream through ``PoolDraws``.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from v2gdispatch import dwoa
from v2gdispatch.dwoa import (
    PoolDraws,
    WhalePool,
    advance_pool,
    alpha_schedule,
    init_pool,
)
from v2gdispatch.orchestrator import ecn_select_best


def _evaluate(pool: WhalePool, values) -> None:
    """Record ``values`` at the candidate the ECN selects, as an iteration does."""
    pool.record_evaluation(values, ecn_select_best(np.asarray(values).tolist()))


def test_alpha_schedule_endpoints_and_midpoint():
    assert alpha_schedule(0, 100) == 2.0
    assert alpha_schedule(100, 100) == 0.0
    assert alpha_schedule(50, 100) == 1.0


def test_alpha_schedule_domain_errors():
    with pytest.raises(ValueError):
        alpha_schedule(101, 100)
    with pytest.raises(ValueError):
        alpha_schedule(-1, 100)
    with pytest.raises(ValueError):
        alpha_schedule(0, 0)


def clamp_to_bounds(rate: float, lower: float, upper: float) -> float:
    """Reference: amend a position that left the search space."""
    if lower > upper:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    return min(max(rate, lower), upper)


def test_clamp_examples():
    assert clamp_to_bounds(7.1, 0.0, 6.6) == 6.6
    assert clamp_to_bounds(-0.3, 0.0, 6.6) == 0.0
    assert clamp_to_bounds(3.3, 0.0, 6.6) == 3.3
    with pytest.raises(ValueError):
        clamp_to_bounds(1.0, 2.0, 1.0)


@dataclass(frozen=True)
class WoaCoefficients:
    """Reference: per-whale random control numbers for one update."""

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
        r = float(rng.random())
        l = 2.0 * float(rng.random()) - 1.0
        p_rand = float(rng.random())
        return cls(alpha=alpha, r=r, l=l, p_rand=p_rand)


def update_position(h: int, pool: WhalePool, coeffs: WoaCoefficients, rng) -> float:
    """Reference: whale ``h``'s new position from the pool's pre-update state,
    one scalar draw at a time."""
    cur = float(pool.positions[h])
    if coeffs.p_rand < 0.5:
        if abs(coeffs.A) < 1.0:
            ref = pool.best_rate
        elif len(pool.positions) > 1:
            ref = float(pool.positions[int(rng.integers(len(pool.positions)))])
        else:
            ref = pool.lower + (pool.upper - pool.lower) * float(rng.random())
        new = ref - coeffs.A * abs(coeffs.C * ref - cur)
    else:
        dist = abs(pool.best_rate - cur)
        new = dist * math.exp(coeffs.l) * math.cos(2.0 * math.pi * coeffs.l) + pool.best_rate
    return clamp_to_bounds(new, pool.lower, pool.upper)


def reference_pool(m: int, lower: float, upper: float, k_max: int, rng) -> WhalePool:
    """Reference: the initial pool from numpy's own ``uniform``."""
    return WhalePool(positions=rng.uniform(lower, upper, m), lower=lower, upper=upper,
                     k_max=k_max)


def reference_advance(pool: WhalePool, rng) -> None:
    alpha = alpha_schedule(pool.k, pool.k_max)
    new_positions = np.empty_like(pool.positions)
    for h in range(len(pool.positions)):
        coeffs = WoaCoefficients.draw(alpha, rng)
        new_positions[h] = update_position(h, pool, coeffs, rng)
    pool.positions = new_positions
    pool.k += 1


def test_coefficient_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 2.0))
        c = WoaCoefficients.draw(alpha, rng)
        assert c.A == 2.0 * alpha * c.r - alpha
        assert c.C == 2.0 * c.r
        assert 0.0 <= c.r <= 1.0
        assert -1.0 <= c.l <= 1.0
        assert 0.0 <= c.p_rand <= 1.0
        # the search branch needs |A| >= 1, out of reach once alpha < 1
        assert abs(c.A) <= alpha


def _generator_position(rng):
    """Where a Generator's stream stands: its PCG64 state and the 32-bit
    half it buffers, or None."""
    state = rng.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


def _draws_position(draws: PoolDraws):
    """Where ``draws``' stream stands, as ``_generator_position`` reads a
    Generator that made the same draws: its bit generator's state rewound
    over the words read ahead, and the half it buffers."""
    bit_generator = np.random.PCG64()
    bit_generator.state = draws.bit_generator.state
    bit_generator.advance(-(len(draws.words) - draws.pos) % 2**128)
    return bit_generator.state["state"], draws.half


@pytest.mark.parametrize("m", [1, 2, 10, 30])
def test_advance_pool_matches_scalar_reference(m):
    # same positions bit for bit and the same stream position after every
    # pass of a full schedule, through both halves (alpha >= 1 and < 1)
    for seed in range(3):
        draws, rng = PoolDraws(seed), np.random.default_rng(seed)
        pools = [init_pool(m, 0.5, 6.6, 150, draws), reference_pool(m, 0.5, 6.6, 150, rng)]
        for _ in range(150):
            for pool in pools:
                positions = pool.positions
                _evaluate(pool, (positions - 3.1) ** 2 + 0.01 * np.sin(7.0 * positions))
            advance_pool(pools[0], draws)
            reference_advance(pools[1], rng)
            assert pools[0].positions.tobytes() == pools[1].positions.tobytes()
            assert _draws_position(draws) == _generator_position(rng)
        assert pools[0].k == pools[1].k == 150


@pytest.mark.parametrize("m", [1, 2, 10, 30])
@pytest.mark.parametrize("lower, upper", [(0.5, 6.6), (3.0, 3.0), (-1e300, 1e300),
                                          (0.0, 5e-324), (1.0, 1.0 + 2.0**-52)],
                         ids=["default", "equal", "wide", "subnormal", "one-ulp"])
def test_init_pool_is_numpys_uniform_and_the_first_pass_reads_on(m, lower, upper):
    # the initial positions are Generator.uniform's bits on the pool's
    # stream, and the first pass reads the words a Generator reads next
    for ss in np.random.SeedSequence(42).spawn(3):
        draws, rng = PoolDraws(ss), np.random.default_rng(ss)
        pool = init_pool(m, lower, upper, 150, draws)
        reference = reference_pool(m, lower, upper, 150, rng)
        assert pool.positions.tobytes() == reference.positions.tobytes()
        assert _draws_position(draws) == _generator_position(rng)
        for each in (pool, reference):
            _evaluate(each, np.arange(m) % 3)
        advance_pool(pool, draws)
        reference_advance(reference, rng)
        assert pool.positions.tobytes() == reference.positions.tobytes()
        assert _draws_position(draws) == _generator_position(rng)


@pytest.mark.parametrize("block_words", [1, 5, None])
@pytest.mark.parametrize("integers_before", [0, 3])
@pytest.mark.parametrize("m", [2, 3, 10, 30, 2**31 + 1])
def test_pool_draws_are_numpys_generator_draws(m, integers_before, block_words, monkeypatch):
    # random() and integers(m) interleaved, from the stream's first word and
    # after three integers(7), which leave a 32-bit half kept. At m = 2**31
    # + 1 about half the 32-bit draws are rejected, so the retry runs;
    # blocks of 1 and 5 words make the reads cross blocks, retries included
    if block_words is not None:
        monkeypatch.setattr(dwoa, "POOL_BLOCK_WORDS", block_words)
    draws, reference = PoolDraws(m), np.random.default_rng(m)
    i = draws.pos
    for _ in range(integers_before):
        value, i = draws.index(7, i)
        assert value == int(reference.integers(7))
    assert (draws.half is None) == (integers_before == 0)
    for kind in np.random.default_rng(1).integers(2, size=400).tolist():
        if kind:
            value, i = draws.double(i)
            assert value == float(reference.random())
        else:
            value, i = draws.index(m, i)
            assert value == int(reference.integers(m))
    draws.pos = i
    assert _draws_position(draws) == _generator_position(reference)


@pytest.mark.parametrize("m", [1, 10])
def test_the_block_size_moves_no_position(m, monkeypatch):
    # a block of one word, the default block and one block for the whole
    # epoch give the same positions after every pass; at this k_max the
    # default block ends within the epoch
    k_max = dwoa.POOL_BLOCK_WORDS // (3 * m) + 20
    runs = []
    for block_words in (1, dwoa.POOL_BLOCK_WORDS, 4 * m * k_max):
        monkeypatch.setattr(dwoa, "POOL_BLOCK_WORDS", block_words)
        draws = PoolDraws(4)
        pool = init_pool(m, 0.5, 6.6, k_max, draws)
        passes = []
        for _ in range(k_max - 1):
            _evaluate(pool, (pool.positions - 3.1) ** 2)
            advance_pool(pool, draws)
            passes.append(pool.positions.tobytes())
        runs.append(passes)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("m", [1, 2, 10, 30])
def test_an_epochs_last_read_stops_near_its_end(m):
    # a read takes at most 4m words for each pass the schedule has left, and
    # a pass uses at least 3m, so a full schedule ends with less than a
    # quarter block and two passes unread, at any k_max
    for k_max in (150, 1000):
        draws = PoolDraws(k_max)
        pool = init_pool(m, 0.5, 6.6, k_max, draws)
        for _ in range(k_max - 1):
            _evaluate(pool, (pool.positions - 3.1) ** 2)
            advance_pool(pool, draws)
        assert len(draws.words) - draws.pos < dwoa.POOL_BLOCK_WORDS // 4 + 6 * m


def _pool(positions, best_rate, lower=0.0, upper=6.6, k_max=100, k=0):
    pool = WhalePool(
        positions=np.asarray(positions, dtype=float),
        lower=lower,
        upper=upper,
        k_max=k_max,
        k=k,
    )
    pool.best_rate = best_rate
    pool.best_value = 0.0
    return pool


class _ScriptedDraws:
    """Stand-in for ``PoolDraws``: scripted (r, l', p) triples per whale,
    with l = 2l' - 1, a fixed reference index and a fixed uniform
    reference. The reference draws take no triple's place."""

    def __init__(self, triples, integer=0, uniform=0.5):
        self.doubles = [x for triple in triples for x in triple]
        self.pos = 0
        self._integer = integer
        self._uniform = uniform

    def reserve(self, i, n, ahead=0):
        return i

    def double(self, i):
        return self._uniform, i

    def index(self, m, i, keep=0):
        return self._integer % m, i


def test_encircle_with_zero_step_snaps_to_best():
    # r = 0.5 makes A = 0 and C = 1: the move collapses onto the best
    pool = _pool([5.5, 1.0], best_rate=4.0)
    advance_pool(pool, _ScriptedDraws([(0.5, 0.65, 0.1)] * 2))
    assert pool.positions.tolist() == [4.0, 4.0]


def test_spiral_at_best_is_fixed_point():
    pool = _pool([4.0, 2.0], best_rate=4.0)
    advance_pool(pool, _ScriptedDraws([(0.9, 0.3, 0.9)] * 2))
    assert pool.positions[0] == 4.0


def test_update_requires_an_evaluated_best():
    pool = WhalePool(positions=np.array([1.0]), lower=0.0, upper=6.6, k_max=10)
    with pytest.raises(ValueError):
        advance_pool(pool, _ScriptedDraws([(0.2, 0.5, 0.1)]))


def test_update_matches_independent_formulas():
    # every branch re-derived inline and compared over random draws, with
    # alpha on both sides of 1
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        positions = rng.uniform(0.0, 6.6, m)
        best = float(rng.uniform(0.0, 6.6))
        k = int(rng.integers(0, 100))
        pool = _pool(positions, best, k=k)
        triples = rng.random((m, 3))
        h_ref = int(rng.integers(m))
        advance_pool(pool, _ScriptedDraws(triples.tolist(), integer=h_ref))
        alpha = 2.0 * (1.0 - k / 100)
        for h, (r, l, p) in enumerate(triples.tolist()):
            l = 2.0 * l - 1.0
            A, C, cur = 2.0 * alpha * r - alpha, 2.0 * r, positions[h]
            if p < 0.5:
                ref = best if abs(A) < 1.0 else positions[h_ref]
                expected = ref - A * abs(C * ref - cur)
            else:
                d = abs(best - cur)
                expected = d * math.exp(l) * math.cos(2.0 * math.pi * l) + best
            assert pool.positions[h] == min(max(expected, 0.0), 6.6)
        assert pool.k == k + 1


@pytest.mark.parametrize("k", [0, 60])  # alpha on either side of 1
@pytest.mark.parametrize("best", [0.0, -0.0, 6.6, 3.3, 7.5, -1.0, 1e300, -1e300])
def test_clamp_matches_min_max_bit_for_bit(best, k):
    # r = 0.5 gives A = 0, so whale 0's encircle move lands on the best
    # itself: on a bound, beyond either one, or at -0.0 with lower = 0.0.
    # Whale 1 spirals around the best from a position beyond the upper bound.
    positions = [5.5, 8.0]
    triples = [(0.5, 0.65, 0.1), (0.9, 0.3, 0.9)]
    pool = _pool(positions, best, k=k)
    advance_pool(pool, _ScriptedDraws(triples))
    expected = []
    for cur, (r, l, p) in zip(positions, triples):
        alpha = 2.0 * (1.0 - k / 100)
        A = 2.0 * alpha * r - alpha
        l = 2.0 * l - 1.0
        if p < 0.5:
            new = best - A * abs(2.0 * r * best - cur)
        else:
            new = abs(best - cur) * math.exp(l) * math.cos(2.0 * math.pi * l) + best
        expected.append(min(max(new, 0.0), 6.6))
    assert pool.positions.tobytes() == np.array(expected).tobytes()
    if best == 0.0:
        assert math.copysign(1.0, pool.positions[0]) == math.copysign(1.0, best)


def test_single_whale_search_branch_uses_uniform_reference():
    # |A| >= 1 with a one-whale pool: the random reference is a fresh
    # uniform point, not the whale itself
    pool = _pool([1.0], best_rate=1.0)  # alpha = 2; r = 1 gives A = 2, C = 2
    advance_pool(pool, _ScriptedDraws([(1.0, 0.5, 0.1)], uniform=0.5))
    ref = 0.0 + 6.6 * 0.5
    expected = ref - 2.0 * abs(2.0 * ref - 1.0)
    assert pool.positions[0] == min(max(expected, 0.0), 6.6)


def test_positions_stay_in_bounds_every_iteration():
    draws = PoolDraws(5)
    pool = init_pool(8, 1.0, 5.0, 60, draws)
    _evaluate(pool, np.random.default_rng(5).uniform(0.0, 1.0, 8))
    for _ in range(60):
        advance_pool(pool, draws)
        assert np.all(pool.positions >= 1.0)
        assert np.all(pool.positions <= 5.0)
        _evaluate(pool, (pool.positions - 3.0) ** 2)


def test_record_evaluation_tie_breaks_to_lowest_index():
    pool = WhalePool(positions=np.array([2.0, 1.0, 1.5]), lower=0.0, upper=6.6, k_max=5)
    values = np.array([4.0, 4.0, 9.0])
    idx = ecn_select_best(values.tolist())
    pool.record_evaluation(values, idx)
    assert idx == 0
    assert pool.best_rate == 2.0
    # an equal total later does not displace the incumbent
    pool.positions = np.array([3.0, 1.0, 1.5])
    pool.record_evaluation(values, 0)
    assert pool.best_rate == 2.0


def test_record_evaluation_keeps_an_int_total_exactly():
    # a float would round both totals to 2**60, and the pool could not tell
    # them apart at the next comparison
    pool = WhalePool(positions=np.array([2.0, 1.0]), lower=0.0, upper=6.6, k_max=5)
    pool.record_evaluation([2**60 + 1, 2**60], 1)
    assert type(pool.best_value) is int
    assert pool.best_value == 2**60
    assert pool.best_rate == 1.0


def _drive_pool(fn, m, k_max, seed, lower=0.0, upper=6.6):
    """(best rate, best value) after each iteration of a pool moved against
    ``fn`` as ``run_optimization`` moves it: ``k_max=0`` evaluates the
    initial pool once."""
    draws = PoolDraws(seed)
    pool = init_pool(m, lower, upper, max(k_max, 1), draws)
    trace = []
    for _ in range(max(k_max, 1)):
        _evaluate(pool, fn(pool.positions))
        trace.append((pool.best_rate, pool.best_value))
        if k_max > 0:
            advance_pool(pool, draws)
    return trace


def test_elitist_best_non_increasing():
    fn = lambda x: (x - 3.0) ** 2
    values = [v for _, v in _drive_pool(fn, m=4, k_max=80, seed=11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_kmax_zero_returns_best_of_initial_pool():
    fn = lambda x: (x - 2.0) ** 2
    ((best_rate, best_value),) = _drive_pool(fn, m=5, k_max=0, seed=9)
    init = np.random.default_rng(9).uniform(0.0, 6.6, 5)
    expected_idx = int(np.argmin(fn(init)))
    assert best_rate == init[expected_idx]
    assert best_value == fn(init)[expected_idx]


def test_single_whale_pool_still_evolves_and_converges():
    fn = lambda x: (x - 3.1) ** 2
    moved = 0
    for seed in range(10):
        trace = _drive_pool(fn, m=1, k_max=150, seed=seed)
        first = trace[0][0]
        if any(abs(r - first) > 1e-12 for r, _ in trace[1:]):
            moved += 1
        assert abs(trace[-1][0] - 3.1) <= 1e-2
    assert moved == 10


def test_pool_validation():
    with pytest.raises(ValueError):
        init_pool(0, 0.0, 6.6, 10, PoolDraws(0))
    with pytest.raises(ValueError):
        WhalePool(positions=np.array([1.0]), lower=2.0, upper=1.0, k_max=10)
