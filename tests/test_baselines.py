"""Penalty fitness and the centralized baseline solvers."""

import warnings

import numpy as np
import pytest

from v2gdispatch.baselines import (
    PENALTY_CAP,
    PENALTY_TOLERANCE_KW,
    cwoa_solve,
    gwo_solve,
    make_penalized_fitness,
)
from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.costs import consensus_objective, grid_search_rate
from v2gdispatch.fleet import available_ids

@pytest.fixture(scope="module")
def small():
    instance = build_instance(ScenarioConfig(n_evs=8, seed=21))
    avail = available_ids(instance.fleet)
    return instance.costs.restrict(avail)


def test_consensus_vector_gets_no_penalty(small):
    vec = np.full(8, 3.7)
    fitness = float(make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)(vec))
    true_obj = float(consensus_objective(3.7, small.ev, small.agg))
    assert fitness == pytest.approx(true_obj, rel=1e-12)


def test_maximal_spread_adds_full_cap(small):
    vec = np.array([0.0, 6.6] * 4)
    without = objective_reference(small.ev, small.agg, vec)
    with_pen = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)(vec)
    assert with_pen - without == PENALTY_CAP


def test_zero_width_range_adds_full_cap_without_dividing(small):
    # lower == upper: a consensus vector gets no penalty and any spread
    # beyond the tolerance the whole cap, with no division by zero
    rates = np.array([np.full(8, 3.0), [3.0] * 7 + [3.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        without = objective_reference(small.ev, small.agg, rates)
        with_pen = make_penalized_fitness(small.ev, small.agg, 3.0, 3.0)(rates)
    assert with_pen[0] == without[0]
    assert with_pen[1] - without[1] == pytest.approx(PENALTY_CAP, rel=1e-12)
    for lower, upper in ((3.0, 2.0), (float("nan"), 6.6), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="bounds"):
            make_penalized_fitness(small.ev, small.agg, lower, upper)


def test_fitness_never_below_true_objective(small):
    rng = np.random.default_rng(3)
    fitness = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)
    for _ in range(1000):
        vec = rng.uniform(0.0, 6.6, 8)
        assert fitness(vec) >= objective_reference(small.ev, small.agg, vec)


def test_penalty_grades_with_spread(small):
    fitness = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)
    base = np.full(8, 3.0)
    narrow, wide = base.copy(), base.copy()
    narrow[0] += 0.5
    wide[0] += 3.0
    pen_narrow = fitness(narrow) - objective_reference(small.ev, small.agg, narrow)
    pen_wide = fitness(wide) - objective_reference(small.ev, small.agg, wide)
    assert 0.0 < pen_narrow < pen_wide <= PENALTY_CAP
    assert pen_narrow == pytest.approx(PENALTY_CAP * 0.5 / 6.6)


def test_vector_length_checked(small):
    with pytest.raises(ValueError):
        make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)(np.ones(5))


def test_batch_matches_single_rows(small):
    fitness = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)
    rng = np.random.default_rng(8)
    pop = rng.uniform(0.0, 6.6, (6, 8))
    batch = fitness(pop)
    for row, value in zip(pop, batch):
        assert fitness(row) == value


def objective_reference(ev, agg, rates):
    """The EV and aggregator costs of each row, the aggregator term written
    out in full."""
    alpha, beta, gamma, other = ev.columns()
    pop = np.atleast_2d(np.asarray(rates, dtype=float))
    ev_cost = (pop * pop) @ alpha + pop @ (beta - ev.price) + (gamma + other).sum()
    delivered = pop @ ev.eta
    raw = pop.sum(axis=1)
    agg_cost = (
        agg.gen_a * delivered * delivered
        + agg.gen_b * delivered
        + agg.gen_c
        - agg.omega * np.log(raw + 1.0)
    )
    out = ev_cost + agg_cost
    return out if np.asarray(rates).ndim > 1 else out[0]


def penalized_fitness_reference(ev, agg, lower, upper, rates):
    """The fitness with its objective and penalty written out in full."""
    pop = np.atleast_2d(np.asarray(rates, dtype=float))
    spread = pop.max(axis=1) - pop.min(axis=1)
    grade = np.minimum(1.0, spread / (upper - lower))
    pen = np.where(spread > PENALTY_TOLERANCE_KW, PENALTY_CAP * grade, 0.0)
    out = objective_reference(ev, agg, pop) + pen
    return out if np.asarray(rates).ndim > 1 else out[0]


@pytest.mark.parametrize("dim", [1, 8, 100])
def test_fitness_matches_written_out_reference_bit_for_bit(dim):
    costs = build_instance(ScenarioConfig(n_evs=dim, seed=70 + dim)).costs
    fitness = make_penalized_fitness(costs.ev, costs.agg, 0.0, 6.6)
    rng = np.random.default_rng(dim)
    cases = [np.full(dim, 3.7), rng.uniform(0.0, 6.6, dim), rng.uniform(0.0, 6.6, (30, dim)),
             np.linspace(0.0, 6.6, dim)]  # the last spreads over the whole range
    for rates in cases:
        want = penalized_fitness_reference(costs.ev, costs.agg, 0.0, 6.6, rates)
        got = fitness(rates)
        assert np.shape(got) == np.shape(want)
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def one_dim():
    instance = build_instance(ScenarioConfig(n_evs=1, seed=33))
    costs = instance.costs
    oracle_rate, _ = grid_search_rate(costs.ev, costs.agg, 0.0, 6.6)
    fitness = make_penalized_fitness(costs.ev, costs.agg, 0.0, 6.6)
    return fitness, oracle_rate


def test_cwoa_dim1_matches_grid_oracle(one_dim):
    fitness, oracle_rate = one_dim
    best, trace = cwoa_solve(1, fitness, m=20, k_max=150, seed=2)
    assert abs(float(best[0]) - oracle_rate) <= 1e-2
    assert len(trace) == 150


def test_gwo_dim1_matches_grid_oracle(one_dim):
    fitness, oracle_rate = one_dim
    best, trace = gwo_solve(1, fitness, pack_size=20, k_max=150, seed=2)
    assert abs(float(best[0]) - oracle_rate) <= 1e-2
    assert len(trace) == 150


def test_traces_reproducible_and_non_increasing(one_dim):
    fitness, _ = one_dim
    _, t1 = cwoa_solve(1, fitness, m=10, k_max=60, seed=5)
    _, t2 = cwoa_solve(1, fitness, m=10, k_max=60, seed=5)
    assert t1 == t2
    assert all(a >= b for a, b in zip(t1, t1[1:]))
    _, g1 = gwo_solve(1, fitness, pack_size=10, k_max=60, seed=5)
    _, g2 = gwo_solve(1, fitness, pack_size=10, k_max=60, seed=5)
    assert g1 == g2
    assert all(a >= b for a, b in zip(g1, g1[1:]))


def test_solver_argument_validation(one_dim):
    fitness, _ = one_dim
    with pytest.raises(ValueError):
        cwoa_solve(0, fitness)
    with pytest.raises(ValueError):
        gwo_solve(0, fitness)
    with pytest.raises(ValueError):
        gwo_solve(1, fitness, pack_size=2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        cwoa_solve(1, fitness, m=0)
    for solve in (cwoa_solve, gwo_solve):
        with pytest.raises(ValueError, match="k_max"):
            solve(1, fitness, k_max=-1)
        with pytest.raises(ValueError, match="lower"):
            solve(1, fitness, lower=2.0, upper=1.0)
        for lower, upper in ((float("nan"), 6.6), (0.0, float("inf")), (float("-inf"), 0.0)):
            with pytest.raises(ValueError, match="lower"):
                solve(1, fitness, lower=lower, upper=upper)
        best, trace = solve(1, fitness, k_max=0, seed=4)
        assert trace == [] and 0.0 <= best[0] <= 6.6


def test_solutions_respect_bounds(small):
    fitness = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)
    best_c, _ = cwoa_solve(8, fitness, m=10, k_max=40, seed=3)
    best_g, _ = gwo_solve(8, fitness, pack_size=10, k_max=40, seed=3)
    for vec in (best_c, best_g):
        assert np.all(vec >= 0.0) and np.all(vec <= 6.6)


@pytest.mark.parametrize("solve, size", [(cwoa_solve, "m"), (gwo_solve, "pack_size")])
def test_solvers_hand_fitness_fresh_populations(small, solve, size):
    # the solvers keep per-solve buffers; no population they pass on may be
    # overwritten later, and the returned best must be a copy of its own
    fitness = make_penalized_fitness(small.ev, small.agg, 0.0, 6.6)
    seen = []

    def keeping(pop):
        seen.append((pop, pop.copy()))
        return fitness(pop)

    best, _ = solve(8, keeping, **{size: 5}, k_max=30, seed=6)
    assert len(seen) == 31
    for pop, copy in seen:
        assert np.array_equal(pop, copy)
        assert not np.shares_memory(best, pop)


# Per-whale and per-leader forms of the two solvers. They fix the random
# stream and the arithmetic, which the array forms must reproduce bit for bit.


def cwoa_reference(dim, fitness, m, k_max, seed, lower=0.0, upper=6.6):
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


def gwo_reference(dim, fitness, pack_size, k_max, seed, lower=0.0, upper=6.6):
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


GRID_DIMS = (1, 2, 5, 100)
GRID_K_MAX = (0, 1, 7, 60)
GRID_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def fitness_by_dim():
    costs = {dim: build_instance(ScenarioConfig(n_evs=dim, seed=50 + dim)).costs
             for dim in GRID_DIMS}
    return {dim: make_penalized_fitness(c.ev, c.agg, 0.0, 6.6) for dim, c in costs.items()}


@pytest.mark.parametrize("dim", GRID_DIMS)
@pytest.mark.parametrize("m", [1, 2, 3, 30])
def test_cwoa_matches_per_whale_reference_bit_for_bit(fitness_by_dim, dim, m):
    fitness = fitness_by_dim[dim]
    for k_max in GRID_K_MAX:
        for seed in GRID_SEEDS:
            want_x, want_trace = cwoa_reference(dim, fitness, m, k_max, seed)
            got_x, got_trace = cwoa_solve(dim, fitness, m=m, k_max=k_max, seed=seed)
            assert got_x.tobytes() == want_x.tobytes(), (k_max, seed)
            assert got_trace == want_trace, (k_max, seed)


@pytest.mark.parametrize("dim", GRID_DIMS)
@pytest.mark.parametrize("pack_size", [3, 4, 30])
def test_gwo_matches_per_leader_reference_bit_for_bit(fitness_by_dim, dim, pack_size):
    fitness = fitness_by_dim[dim]
    for k_max in GRID_K_MAX:
        for seed in GRID_SEEDS:
            want_x, want_trace = gwo_reference(dim, fitness, pack_size, k_max, seed)
            got_x, got_trace = gwo_solve(dim, fitness, pack_size=pack_size, k_max=k_max, seed=seed)
            assert got_x.tobytes() == want_x.tobytes(), (k_max, seed)
            assert got_trace == want_trace, (k_max, seed)
