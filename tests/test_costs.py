"""Cost-model tests: closed forms, convexity, the grid oracle, the call-counting wrapper.

The scalar per-EV cost ``ev_net_cost`` and the per-EV-rate aggregator cost
``agg_net_cost`` are kept here as references: ``src`` holds per-EV
coefficients only as ``EvCostTable`` columns, and its matrix and consensus
forms are checked against these formulas.
"""

import math
import warnings

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from v2gdispatch import costs as costs_module
from v2gdispatch.config import ScenarioConfig, build_instance
from v2gdispatch.fleet import available_ids, common_rate_bounds
from v2gdispatch.costs import (
    AggCostParams,
    CostMatrix,
    CostOracle,
    CostSet,
    EvCostTable,
    agg_consensus_cost,
    consensus_objective,
    consensus_optimum,
    grid_search_rate,
    sample_ev_cost_params,
)


def ev_net_cost(rate, params):
    """Reference: net cost of one EV discharging at ``rate`` kW (scalar or
    array). ``params`` is its (alpha_deg, beta_deg, gamma_deg, other_ops,
    price) row."""
    alpha, beta, gamma, other, price = params
    if np.any(np.asarray(rate) < 0.0):
        raise ValueError("discharge rate must be >= 0")
    degradation = alpha * rate * rate + beta * rate + gamma
    revenue = price * rate
    return degradation + other - revenue


def agg_net_cost(rates, eta, params: AggCostParams):
    """Reference: aggregator net cost for one per-EV rate vector of EVs with
    efficiencies ``eta``."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.shape[0] != len(eta):
        raise ValueError(f"expected {len(eta)} rates, got shape {rates.shape}")
    if np.any(rates < 0.0):
        raise ValueError("discharge rates must be >= 0")
    delivered = float(np.dot(eta, rates))
    raw = float(np.sum(rates))
    generation = params.gen_a * delivered * delivered + params.gen_b * delivered + params.gen_c
    return generation - params.omega * math.log(raw + 1.0)


def rows(ev: EvCostTable):
    """Each EV's coefficient row and the table's price, as Python floats, in
    EV order."""
    return [(*row, ev.price) for row in zip(*(column.tolist() for column in ev.columns()))]


def reference_consensus_objective(rate, ev: EvCostTable, agg: AggCostParams):
    """Reference: the aggregator's consensus cost plus each EV's, one at a time."""
    total = agg_consensus_cost(rate, ev, agg)
    for params in rows(ev):
        total = total + ev_net_cost(rate, params)
    return total


EV = (0.1, 0.05, 0.1, 0.2, 0.02)  # alpha_deg, beta_deg, gamma_deg, other_ops, price
UNIT_AGG = AggCostParams(gen_a=1.0, gen_b=0.0, gen_c=0.0, omega=0.0)


def one_ev_table(params=EV, eta=1.0) -> EvCostTable:
    *coefficients, price = params
    return EvCostTable(*([value] for value in coefficients), price, [eta])


def one_ev_costs(rates, params=EV) -> np.ndarray:
    """The EV row of a one-EV ``CostMatrix``: its net cost at each rate."""
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    return CostMatrix(one_ev_table(params), UNIT_AGG, len(rates), 0)(rates)[1]


def test_ev_net_cost_zero_rate_all_terms_vanish():
    p = (1.0, 0.0, 0.0, 0.0, 0.02)
    assert one_ev_costs(0.0, p)[0] == 0.0
    assert ev_net_cost(0.0, p) == 0.0


def test_ev_net_cost_direct_substitution():
    # 0.1*4 + 0.05*2 + 0.1 + 0.2 - 0.02*2
    assert one_ev_costs(2.0)[0] == pytest.approx(0.76, abs=1e-12)
    assert ev_net_cost(2.0, EV) == pytest.approx(0.76, abs=1e-12)


def test_ev_net_cost_rejects_negative_rate():
    table = one_ev_table()
    with pytest.raises(ValueError):
        consensus_objective(-0.1, table, UNIT_AGG)
    with pytest.raises(ValueError):
        consensus_objective(np.array([1.0, -0.5]), table, UNIT_AGG)
    with pytest.raises(ValueError):
        ev_net_cost(-0.1, EV)


def test_ev_net_cost_vectorized_matches_scalar():
    rates = np.linspace(0.0, 6.6, 7)
    table = one_ev_table()
    vec = consensus_objective(rates, table, UNIT_AGG)
    for r, v in zip(rates, vec):
        assert consensus_objective(float(r), table, UNIT_AGG) == v
    row = one_ev_costs(rates)
    for r, v in zip(rates, row):
        assert one_ev_costs(float(r))[0] == v


def test_ev_argmin_matches_brute_force_grid():
    # analytic vertex of the 1-EV net cost, projected onto [0, 6.6]
    grid = np.linspace(0.0, 6.6, 66001)
    values = one_ev_costs(grid)
    brute = float(grid[np.argmin(values)])
    alpha, beta, _, _, price = EV
    vertex = (price - beta) / (2.0 * alpha)
    expected = min(max(vertex, 0.0), 6.6)
    assert abs(brute - expected) <= 1e-4


def test_ev_net_cost_strictly_convex():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r1, r2 = rng.uniform(0.0, 6.6, 2)
        if abs(r1 - r2) < 1e-9:
            continue
        at_r1, at_r2, mid = one_ev_costs([r1, r2, (r1 + r2) / 2.0])
        assert mid < 0.5 * (at_r1 + at_r2)


def test_ev_params_validation():
    with pytest.raises(ValueError):
        one_ev_table((0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        one_ev_table((1.0, 0.0, 0.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        one_ev_table((1.0, 0.0, 0.0, 0.0, -0.1))
    with pytest.raises(ValueError):  # the check covers every row, not just the first
        EvCostTable([1.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        EvCostTable([1.0, 1.0], [0.0], [0.0, 0.0], [0.0, 0.0], 0.0, [1.0, 1.0])


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["alpha_deg", "beta_deg", "gamma_deg", "other_ops", "price"])
def test_ev_params_reject_non_finite_coefficients(field, value):
    columns = dict(alpha_deg=[1.0, 1.0], beta_deg=[0.0, 0.0], gamma_deg=[0.0, 0.0],
                   other_ops=[0.0, 0.0], price=0.0, eta=[1.0, 1.0])
    # the second row, or the one price every row shares
    columns[field] = value if field == "price" else [columns[field][0], value]
    with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
        EvCostTable(**columns)


@pytest.mark.parametrize("price", [np.full(2, 0.02), [0.02, 0.02], [0.02], -0.5, -np.inf])
def test_ev_table_refuses_a_price_that_is_not_one_finite_number_from_0(price):
    columns = ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert EvCostTable(*columns, np.float64(0.02), [1.0, 1.0]).price == 0.02
    with pytest.raises(ValueError, match="^price must be one finite number >= 0 for every EV"):
        EvCostTable(*columns, price, [1.0, 1.0])


@pytest.mark.parametrize("value", [0.0, 1.2, float("nan")])
def test_ev_table_refuses_an_eta_outside_0_1_by_its_row(value):
    columns = ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0)
    assert EvCostTable(*columns, [0.9, 1.0]).eta_sum == 1.9
    with pytest.raises(ValueError, match=r"^eta\[1\] must be in \(0, 1\]"):
        EvCostTable(*columns, [0.9, value])  # the second row


AGG = AggCostParams(gen_a=0.01, gen_b=0.5, gen_c=2.0, omega=1.5)
ETA = (0.9, 0.8, 1.0)
AGG_EVS = EvCostTable(*([value] * 3 for value in EV[:4]), EV[4], ETA)  # efficiencies ETA


def test_agg_net_cost_all_zero_rates_is_constant_term():
    # log(0 + 1) = 0: no delivery means no utility and no generation cost
    assert agg_net_cost([0.0, 0.0, 0.0], ETA, AGG) == AGG.gen_c
    assert agg_consensus_cost(0.0, AGG_EVS, AGG) == AGG.gen_c


def test_agg_net_cost_single_unit():
    assert agg_net_cost([1.0], (1.0,), UNIT_AGG) == 1.0
    assert agg_consensus_cost(1.0, one_ev_table(), UNIT_AGG) == 1.0


def test_agg_net_cost_utility_sums_raw_generation_sums_scaled():
    rates = [1.0, 2.0, 3.0]
    delivered = 0.9 * 1.0 + 0.8 * 2.0 + 1.0 * 3.0
    raw = 6.0
    expected = 0.01 * delivered**2 + 0.5 * delivered + 2.0 - 1.5 * np.log(raw + 1.0)
    assert agg_net_cost(rates, ETA, AGG) == pytest.approx(expected, rel=1e-12)


def test_agg_net_cost_rejects_bad_input():
    with pytest.raises(ValueError):
        agg_net_cost([1.0, 2.0], ETA, AGG)  # length mismatch
    with pytest.raises(ValueError):
        agg_net_cost([1.0, -2.0, 3.0], ETA, AGG)
    with pytest.raises(ValueError):
        agg_consensus_cost(-2.0, AGG_EVS, AGG)
    with pytest.raises(ValueError):
        agg_consensus_cost(np.array([1.0, -2.0]), AGG_EVS, AGG)


def test_agg_generation_non_decreasing_in_every_rate():
    rng = np.random.default_rng(11)
    no_utility = AggCostParams(gen_a=0.01, gen_b=0.5, gen_c=2.0, omega=0.0)
    for _ in range(100):
        rates = rng.uniform(0.0, 6.6, 3)
        i = rng.integers(3)
        bumped = rates.copy()
        bumped[i] += rng.uniform(0.0, 1.0)
        assert agg_net_cost(bumped, ETA, no_utility) >= agg_net_cost(rates, ETA, no_utility)


def test_agg_params_validation():
    with pytest.raises(ValueError):
        AggCostParams(gen_a=0.0, gen_b=0.0, gen_c=0.0, omega=0.0)
    with pytest.raises(ValueError):
        one_ev_table(eta=1.2)  # an efficiency is the EV table's column
    with pytest.raises(ValueError):
        one_ev_table(eta=0.0)
    with pytest.raises(ValueError, match="omega"):
        AggCostParams(gen_a=1.0, gen_b=0.0, gen_c=0.0, omega=float("nan"))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["gen_a", "gen_b", "gen_c", "omega"])
def test_agg_params_reject_non_finite_coefficients(field, value):
    coefficients = dict(gen_a=1.0, gen_b=0.0, gen_c=0.0, omega=0.0)
    with pytest.raises(ValueError, match=field):
        AggCostParams(**{**coefficients, field: value})


def test_agg_consensus_matches_vector_form():
    for rate in (0.0, 1.3, 4.4, 6.6):
        vec = agg_net_cost([rate] * 3, ETA, AGG)
        cons = agg_consensus_cost(rate, AGG_EVS, AGG)
        assert cons == pytest.approx(vec, rel=1e-12)


def _toy_cost_set(n=5, seed=3):
    rng = np.random.default_rng(seed)
    columns = sample_ev_cost_params(np.ones(n), rng, price=0.02).columns()
    ev = EvCostTable(*columns, 0.02, rng.uniform(0.85, 0.95, n))
    return CostSet(ev=ev, agg=AggCostParams(gen_a=5e-6, gen_b=0.001, gen_c=0.5, omega=0.1))


def test_cost_matrix_rows_equal_the_agent_costs_bit_for_bit():
    costs = _toy_cost_set(n=40, seed=8)
    rng = np.random.default_rng(4)
    matrix = CostMatrix(costs.ev, costs.agg, 6, 0)
    for _ in range(5):  # each call refills the same buffer
        rates = np.concatenate(([0.0], rng.uniform(0.0, 6.6, 5)))
        values = matrix(rates)
        assert values is matrix.values and values.shape == (41, 6)
        assert values[0].tobytes() == agg_consensus_cost(rates, costs.ev, costs.agg).tobytes()
        for i, params in enumerate(rows(costs.ev)):
            assert values[i + 1].tobytes() == ev_net_cost(rates, params).tobytes()


@pytest.mark.parametrize("n", [1, 100, 1000])
def test_cost_matrix_aggregator_row_is_bit_exact_at_zero_rates_and_any_sign(n):
    # row 0 runs the EV operations with coefficients (gen_a, gen_b, gen_c,
    # 0, 0): adding 0 and subtracting 0 * D must change no bit, also at
    # zero rates and with a negative or signed-zero gen_b and gen_c
    rng = np.random.default_rng(n)
    columns = sample_ev_cost_params(np.ones(n), rng, price=0.02).columns()
    for _ in range(40):
        gen_b, gen_c = rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0)], size=2)
        agg = AggCostParams(gen_a=rng.uniform(1e-7, 1e-2), gen_b=float(gen_b),
                            gen_c=float(gen_c), omega=rng.uniform(0.0, 1.0))
        ev = EvCostTable(*columns, 0.02, rng.uniform(0.85, 1.0, n))
        matrix = CostMatrix(ev, agg, 10, 0)
        for _ in range(5):
            rates = np.where(rng.random(10) < 0.3, 0.0, rng.uniform(0.0, 6.6, 10))
            assert matrix(rates)[0].tobytes() == agg_consensus_cost(rates, ev, agg).tobytes()


# magnitudes of 2**-60 or more, or zero: at these scales and rates no product
# of the cost matrix is subnormal, where scaling by 2**unit_bits is not exact
_TINY = 2.0**-60


def _magnitudes(*zeros):
    """Floats in [2**-60, 1], or one of ``zeros``."""
    magnitudes = st.floats(_TINY, 1.0)
    return st.sampled_from(zeros) | magnitudes if zeros else magnitudes


def _signed(*zeros):
    """Floats in [-1, -2**-60] or [2**-60, 1], or one of ``zeros``."""
    return _magnitudes(*zeros) | st.floats(-1.0, -_TINY)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_cost_matrix_in_units_is_the_currency_matrix_times_a_power_of_two(data):
    # any signs the tables allow, each coefficient at its own scale, signed
    # zeros for gen_b and gen_c, and zero rates among the candidates: the
    # matrix at b unit bits is the one at 0 times 2**b, byte for byte
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(1, 6), label="m")
    unit_bits = data.draw(st.integers(0, 48), label="unit_bits")

    def draw(label, size, elements):
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label=f"{label} scale")
        return data.draw(hnp.arrays(np.float64, size, elements=elements), label=label) * scale

    ev = EvCostTable(draw("alpha", n, _magnitudes()), draw("beta", n, _signed(0.0)),
                     draw("gamma", n, _signed(0.0)), draw("other", n, _magnitudes(0.0)),
                     *draw("price", 1, _magnitudes(0.0)),
                     data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 1.0)),
                               label="eta"))
    agg = AggCostParams(*draw("gen_a", 1, _magnitudes()), *draw("gen_b", 1, _signed(0.0, -0.0)),
                        *draw("gen_c", 1, _signed(0.0, -0.0)),
                        *draw("omega", 1, _magnitudes(0.0)))
    rates = data.draw(hnp.arrays(np.float64, m, elements=_magnitudes(0.0).map(lambda r: 10 * r)),
                      label="rates")
    currency = CostMatrix(ev, agg, m, 0)(rates) * 2.0**unit_bits
    assert CostMatrix(ev, agg, m, unit_bits)(rates).tobytes() == currency.tobytes()


def test_cost_matrix_refuses_a_coefficient_that_overflows_when_scaled():
    # 2**990 fits float64 and its cost at rate 0 is 0, but times 2**48 it
    # would be inf: refused before numpy scales anything
    ev = one_ev_table((2.0**990, 0.0, 0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^unit_bits: .* overflows float64 at 48 unit bits$"):
            CostMatrix(ev, UNIT_AGG, 3, 48)
    assert CostMatrix(ev, UNIT_AGG, 3, 24)(np.zeros(3)).tolist() == [[0.0] * 3] * 2


@pytest.mark.parametrize("n", [1, 5, 100])
def test_consensus_objective_matches_per_ev_reference_bit_for_bit(n):
    costs = _toy_cost_set(n=n, seed=n)
    grid = np.linspace(0.0, 6.6, 66001)
    assert (consensus_objective(grid, costs.ev, costs.agg).tobytes()
            == reference_consensus_objective(grid, costs.ev, costs.agg).tobytes())
    for rate in (0.0, 1e-4, 3.3, float(np.random.default_rng(n).uniform(0.0, 6.6)), 6.6):
        value = consensus_objective(rate, costs.ev, costs.agg)
        reference = reference_consensus_objective(rate, costs.ev, costs.agg)
        assert np.float64(value).tobytes() == np.float64(reference).tobytes()


@pytest.mark.parametrize("length", [1, costs_module._GRID_BLOCK - 1, costs_module._GRID_BLOCK,
                                    costs_module._GRID_BLOCK + 1, 2 * costs_module._GRID_BLOCK + 1])
def test_consensus_objective_matches_the_reference_at_block_edges(length):
    costs = _toy_cost_set(n=20, seed=length)
    rates = np.random.default_rng(length).uniform(0.0, 6.6, length)
    assert (consensus_objective(rates, costs.ev, costs.agg).tobytes()
            == reference_consensus_objective(rates, costs.ev, costs.agg).tobytes())
    rate = float(rates[0])
    assert (np.float64(consensus_objective(rate, costs.ev, costs.agg)).tobytes()
            == np.float64(reference_consensus_objective(rate, costs.ev, costs.agg)).tobytes())


@pytest.mark.parametrize("n", [1, 1000])
def test_a_scalar_rate_of_any_form_gives_the_references_float64(n):
    # a scalar runs as a one-point array at every N
    costs = _toy_cost_set(n=n, seed=n)
    for rate in (0.0, 2.7, 6.6):
        reference = np.float64(reference_consensus_objective(rate, costs.ev, costs.agg))
        for form in (rate, np.float64(rate), np.array(rate)):
            value = consensus_objective(form, costs.ev, costs.agg)
            assert type(value) is np.float64
            assert value.tobytes() == reference.tobytes()


# the one price of 31 EVs: the default 0.02, and -0.0, equal to 0.0 as a
# float but not in its bits
PRICES = {"uniform": 0.02, "signed-zero": -0.0}


def _priced_cost_set(prices: str, n=31, seed=5) -> CostSet:
    rng = np.random.default_rng(seed)
    columns = sample_ev_cost_params(np.ones(n), rng, price=0.0).columns()
    eta = rng.uniform(0.85, 0.95, n)
    agg = AggCostParams(gen_a=5e-6, gen_b=0.001, gen_c=0.5, omega=0.1)
    return CostSet(ev=EvCostTable(*columns, PRICES[prices], eta), agg=agg)


@pytest.mark.parametrize("prices", list(PRICES))
def test_consensus_objective_matches_the_reference_for_any_price_column(prices):
    # the array path computes one revenue row for every EV; it must give the
    # reference's bits, a signed zero price included
    costs = _priced_cost_set(prices)
    assert math.copysign(1.0, costs.ev.price) == (-1.0 if prices == "signed-zero" else 1.0)
    rates = np.concatenate(([0.0, -0.0], np.linspace(0.0, 6.6, 6601)))
    assert (consensus_objective(rates, costs.ev, costs.agg).tobytes()
            == reference_consensus_objective(rates, costs.ev, costs.agg).tobytes())


@pytest.mark.parametrize("prices", list(PRICES))
def test_grid_search_on_any_price_column_is_the_reference_argmin(prices):
    costs = _priced_cost_set(prices)
    grid = np.linspace(0.0, 6.6, 66001)
    values = reference_consensus_objective(grid, costs.ev, costs.agg)
    i = int(np.argmin(values))
    assert grid_search_rate(costs.ev, costs.agg, 0.0, 6.6) == (float(grid[i]), float(values[i]))


def _full_grid_argmin(ev, agg, lower, upper, step):
    grid = np.linspace(lower, upper, int(round((upper - lower) / step)) + 1)
    values = consensus_objective(grid, ev, agg)
    i = int(np.argmin(values))
    return float(grid[i]), float(values[i])


@pytest.mark.parametrize("block", [2, 7, 64])
def test_blocked_grid_search_is_the_full_grid_argmin(monkeypatch, block):
    monkeypatch.setattr(costs_module, "_GRID_BLOCK", block)
    tie = one_ev_table((1.0, -6.6, 0.0, 0.0, 0.0))
    tie_agg = AggCostParams(gen_a=1e-12, gen_b=0.0, gen_c=0.0, omega=0.0)
    assert grid_search_rate(tie, tie_agg, 0.0, 6.6, 0.1) == _full_grid_argmin(tie, tie_agg, 0.0, 6.6, 0.1)
    rng = np.random.default_rng(block)
    for _ in range(20):
        costs = _toy_cost_set(n=int(rng.integers(1, 30)), seed=int(rng.integers(1 << 30)))
        lower = float(rng.uniform(0.0, 3.0))
        upper = lower + float(rng.uniform(0.0, 3.6))
        step = float(rng.choice([0.01, 0.05, 0.1]))
        assert (grid_search_rate(costs.ev, costs.agg, lower, upper, step)
                == _full_grid_argmin(costs.ev, costs.agg, lower, upper, step))


def test_blocked_grid_search_keeps_the_first_of_equal_minima_across_blocks(monkeypatch):
    # a floor of equal values from about 3.21 to 3.39 spans several 4-point blocks
    monkeypatch.setattr(costs_module, "_GRID_BLOCK", 4)
    monkeypatch.setattr(costs_module, "consensus_objective",
                        lambda rate, ev, agg: np.floor(np.abs(rate - 3.3) * 10.0))
    costs = _toy_cost_set()
    rate, value = grid_search_rate(costs.ev, costs.agg, 0.0, 6.6, 0.01)
    grid = np.linspace(0.0, 6.6, 661)
    values = np.floor(np.abs(grid - 3.3) * 10.0)
    assert np.count_nonzero(values == 0.0) > 8
    assert (rate, value) == (float(grid[np.argmin(values)]), 0.0)


def test_consensus_objective_minimizer_matches_grid_oracle():
    costs = _toy_cost_set()
    best_rate, best_value = grid_search_rate(costs.ev, costs.agg, 0.0, 6.6)
    # independent check: dense numpy argmin over the same interval
    grid = np.linspace(0.0, 6.6, 66001)
    values = consensus_objective(grid, costs.ev, costs.agg)
    assert abs(best_rate - grid[np.argmin(values)]) <= 1e-4
    assert best_value == pytest.approx(values.min(), rel=1e-12)


def _optimum_and_grid(config, step):
    """The closed-form optimum and the grid oracle's rate over the
    available EVs of ``config``'s instance, after checking that the optimum
    lies in the bounds and scores no worse than the grid's best point, up to
    the rounding of N + 1 added costs."""
    inst = build_instance(config)
    avail = available_ids(inst.fleet)
    costs = inst.costs.restrict(avail)
    lower, upper = common_rate_bounds(inst.fleet, avail)
    rate = consensus_optimum(costs.ev, costs.agg, lower, upper)
    grid_rate, grid_value = grid_search_rate(costs.ev, costs.agg, lower, upper, step)
    assert lower <= rate <= upper
    value = consensus_objective(np.array([rate]), costs.ev, costs.agg)[0]
    assert value <= grid_value + (len(avail) + 1) * 8 * np.finfo(float).eps * abs(grid_value)
    return rate, grid_rate


@pytest.mark.parametrize("n_evs", [1, 2, 3, 10, 30, 100, 300, 1000])
def test_consensus_optimum_is_within_a_grid_step_of_the_grid_oracle(n_evs):
    for seed in range(20 if n_evs <= 100 else 3):
        config = replace(ScenarioConfig(), n_evs=n_evs, seed=seed)
        rate, grid_rate = _optimum_and_grid(config, 1e-4)
        assert abs(rate - grid_rate) <= 1e-4


@pytest.mark.parametrize("n_evs", [1, 10, 100])
def test_consensus_optimum_without_revenue_is_within_a_grid_step(n_evs):
    # at price 0 the root's linear coefficient 2A + BN is positive, so the
    # root is taken as 2c / (-b - sqrt(b^2 - 4ac)); it lies inside the bounds
    for seed in range(5):
        config = replace(ScenarioConfig(), n_evs=n_evs, seed=seed, price=0.0)
        rate, grid_rate = _optimum_and_grid(config, 1e-4)
        assert 0.0 < rate < 6.6 and abs(rate - grid_rate) <= 1e-4


def test_consensus_optimum_at_ten_thousand_evs():
    rate, grid_rate = _optimum_and_grid(replace(ScenarioConfig(), n_evs=10**4, seed=0), 1e-3)
    assert abs(rate - grid_rate) <= 1e-3
    assert rate == pytest.approx(0.2041009, abs=1e-7)


@pytest.mark.parametrize("changes, bound", [
    ({"n_evs": 1}, "rate_max_kw"),  # the root lies past 6.6 kW
    ({"n_evs": 100, "rate_min_kw": 5.0}, "rate_min_kw"),  # the root, 4.72 kW, lies below 5
    ({"n_evs": 100, "price": 0.0, "omega": 0.0}, "rate_min_kw"),  # F increases from 0 on
    ({"n_evs": 10, "rate_min_kw": 1.0, "rate_max_kw": 1.0}, "rate_max_kw"),  # one point
])
def test_consensus_optimum_clips_to_the_bound_that_binds(changes, bound):
    for seed in range(3):
        config = replace(ScenarioConfig(), seed=seed, **changes)
        rate, grid_rate = _optimum_and_grid(config, 1e-4)
        assert rate == grid_rate == getattr(config, bound)


def test_consensus_optimum_of_the_default_instances():
    for n_evs, want in ((100, 4.7192881), (1000, 1.5463494)):
        rate, _ = _optimum_and_grid(replace(ScenarioConfig(), n_evs=n_evs, seed=0), 1e-3)
        assert rate == pytest.approx(want, abs=1e-7)


def test_grid_search_breaks_ties_toward_lowest_rate():
    # symmetric single-EV objective around 3.3: grid argmin picks the first hit
    ev = one_ev_table((1.0, -6.6, 0.0, 0.0, 0.0))
    agg = AggCostParams(gen_a=1e-12, gen_b=0.0, gen_c=0.0, omega=0.0)
    rate, _ = grid_search_rate(ev, agg, 0.0, 6.6, step=0.1)
    assert rate == pytest.approx(3.3)


def test_grid_search_rejects_inverted_interval():
    costs = _toy_cost_set()
    with pytest.raises(ValueError):
        grid_search_rate(costs.ev, costs.agg, 2.0, 1.0)


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
def test_grid_search_rejects_a_step_that_is_not_finite_and_positive(step):
    costs = _toy_cost_set()
    with pytest.raises(ValueError, match="step"):
        grid_search_rate(costs.ev, costs.agg, 0.0, 6.6, step)


@pytest.mark.parametrize("lower, upper, step", [(0.0, 6.6, 1e-320), (0.0, 6.6, 5e-324),
                                                (0.0, 1e308, 1e-10), (0.0, 6.6, 1e-300),
                                                (0.0, 2.0**53 - 1, 1.0), (0.0, 6.6, 1e-12),
                                                (0.0, 2.0**27, 1.0),
                                                (-1.0, 1.0, 2.0**-26 * (1 + 2**-40))])
def test_grid_search_names_a_step_too_small_to_count_the_grid(lower, upper, step, monkeypatch):
    # grids past the 2**27-point cap, by 2**53 or more points down to one
    # (the last two cases hold 2**27 + 1), refused by name before linspace
    # allocates
    costs = _toy_cost_set()

    def linspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", linspace)
    with pytest.raises(ValueError, match=fr"^step = {step} is too small: .* more than 2\*\*27 "):
        grid_search_rate(costs.ev, costs.agg, lower, upper, step)


def test_cost_set_validation_and_restrict():
    costs = _toy_cost_set()
    sub = costs.restrict([0, 2, 4])
    assert len(sub.ev) == 3
    assert rows(sub.ev) == [rows(costs.ev)[i] for i in (0, 2, 4)]
    assert sub.ev.eta.tolist() == [costs.ev.eta[i] for i in (0, 2, 4)]
    assert sub.agg == costs.agg
    # the sub-table keeps the one price, and equality reads it
    priced = EvCostTable(*costs.ev.columns(), 0.03, costs.ev.eta)
    assert sub.ev.price == 0.02 and priced.take([0, 2, 4]).price == 0.03
    assert sub.ev == costs.ev.take([0, 2, 4]) and priced != costs.ev
    assert priced == EvCostTable(*costs.ev.columns(), 0.03, costs.ev.eta)


def _ev_oracle() -> CostOracle:
    return CostOracle(lambda rate: ev_net_cost(rate, EV))


def test_oracle_counts_every_evaluation():
    oracle = _ev_oracle()
    assert oracle.call_count == 0
    oracle.evaluate(1.0)
    assert oracle.call_count == 1
    oracle.evaluate_many(np.array([0.5, 1.5, 2.5]))
    assert oracle.call_count == 4


def test_oracle_matches_closed_form_on_random_rates():
    oracle = _ev_oracle()
    rng = np.random.default_rng(5)
    for rate in rng.uniform(0.0, 6.6, 100):
        assert oracle.evaluate(rate) == ev_net_cost(float(rate), EV)


def test_two_oracles_same_params_are_deterministic():
    a = _ev_oracle()
    b = _ev_oracle()
    rng = np.random.default_rng(6)
    rates = rng.uniform(0.0, 6.6, 20)
    assert list(a.evaluate_many(rates)) == list(b.evaluate_many(rates))


def test_oracle_propagates_domain_errors():
    oracle = _ev_oracle()
    with pytest.raises(ValueError):
        oracle.evaluate(-1.0)


def test_aggregator_oracle_variants():
    vec = CostOracle(lambda rates: agg_net_cost(rates, ETA, AGG))
    cons = CostOracle(lambda rate: agg_consensus_cost(rate, AGG_EVS, AGG))
    assert vec.evaluate([1.0, 1.0, 1.0]) == pytest.approx(cons.evaluate(1.0), rel=1e-12)
    assert vec.call_count == 1 and cons.call_count == 1


def test_sample_ev_cost_params_ranges_and_determinism():
    eta = np.linspace(0.85, 0.95, 50)
    a = sample_ev_cost_params(eta, np.random.default_rng(9), price=0.02)
    b = sample_ev_cost_params(eta, np.random.default_rng(9), price=0.02)
    assert a == b and a.eta.tobytes() == eta.tobytes()
    assert a.price == 0.02
    for column, (lo, hi) in zip(a.columns(), ((0.001, 0.002), (0.001, 0.003), (0.005, 0.015),
                                              (0.005, 0.02)), strict=True):
        assert len(column) == 50
        assert np.all((lo <= column) & (column <= hi))


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
def test_sample_ev_cost_params_draws_the_bits_of_one_uniform_call(n, seed):
    bounds = ((0.001, 0.002), (-0.5, 0.003), (0.005, 0.015), (0.0, 20.0))
    reference = np.random.default_rng(seed)
    lows, highs = zip(*bounds)
    expected = reference.uniform(lows, highs, size=(n, len(bounds)))
    rng = np.random.default_rng(seed)
    table = sample_ev_cost_params(np.full(n, 0.9), rng, price=0.03, alpha_range=bounds[0],
                                  beta_range=bounds[1], gamma_range=bounds[2],
                                  other_range=bounds[3])
    for k, column in enumerate(table.columns()):
        assert column.tobytes() == np.ascontiguousarray(expected[:, k]).tobytes()
    assert table.price == 0.03
    assert rng.random() == reference.random()  # the stream continues where uniform's would


def _left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_eta_sum_is_a_left_to_right_sum(n):
    eta = np.random.default_rng(n).uniform(1e-3, 1.0, n)
    table = EvCostTable(np.ones(n), *np.zeros((3, n)), 0.0, eta)
    assert table.eta_sum == _left_to_right(eta.tolist()) and type(table.eta_sum) is float
    odd = table.take(range(1, n, 2))
    assert odd.eta_sum == _left_to_right(eta[1::2].tolist())
