"""Centralized baselines: whale and grey-wolf optimizers over per-EV rate vectors.

Both solvers work on the full N-dimensional vector of per-EV rates and handle
the equal-rates requirement through a penalty added to the fitness, graded by
how far the vector spreads over the search range's width:
penalty = PENALTY_CAP * min(1, spread / (upper - lower)) whenever the largest
pairwise gap exceeds PENALTY_TOLERANCE_KW. A pure all-or-nothing penalty would
be unsatisfiable on a continuous search space, so partial progress toward
consensus still registers. A range of zero width makes that the full cap, the
limit of the ratio.

Fitness callables accept a (pop, dim) matrix and return one value per row
(a single vector is promoted), which keeps the solvers vectorized.

Stream contract (part of every comparison's reproducibility): after the
initial ``uniform`` positions, one CWOA iteration makes three draws. First
``random((m, 2·dim + 1))``, each whale's row r1, r2 and then the branch
selector p. Then ``integers(m, size=n)`` for the search references of the n
whales with p < 0.5, in whale order (which draws nothing when m = 1). Then
``random(n')`` for the spiral shapes l of the n' whales with p >= 0.5. The
moves themselves are then computed for the whole population at once, and a
search move toward an earlier whale reads that whale's new position.
One GWO iteration draws a single (3, 2, pack, dim) block, r1 and r2 for
each of the three leaders in turn. The spiral applies numpy's ``exp`` and
``cos`` to every spiralling whale's l at once, which gives the same bits as
numpy on each l alone. ``math.exp`` would not do: it differs from numpy's
in the last bit on 949 of 2·10⁴ uniform inputs in [-1, 1] (numpy 2.4.6,
AVX-512), and one such bit can move a whale. At the default instance and
k_max = 300 it does not reach the comparison: CWOA ends every one of the
20 acceptance seeds with all coordinates clipped to the upper bound, and
the compare digests are the same with numpy's AVX-512 kernels switched
off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``), under
which numpy's ``exp`` agrees with ``math.exp`` on 2·10⁴ such inputs.

Each solve allocates its work arrays once and refills them in place every
iteration. It applies the same operations in the same order as the plain
expressions, so the bits are those of the per-whale and per-leader
references in the tests. Only the positions handed to the fitness are a new
array each iteration: no population is written after it is passed on.
CWOA keeps A, C, the encircle and search moves and the |A| < 1 mask in
(m, dim) arrays and the search references in an index array, where a
spiralling whale refers to itself; the whales that search toward an earlier
whale move again in one ascending pass, each reading its target's final
position. Once a < 1, |A| <= a < 1 in every coordinate, so no whale takes a
search move and the solver skips all search work. GWO refills one
(3, 2, pack, dim) draw array with ``random(out=...)``, the same stream as a
fresh block, forms A and C = 2·r2 in its two halves, and builds the pulls
in one (3, pack, dim) array that starts as a contiguous copy of the
leaders; the mean is numpy's, ``add.reduce`` over the leaders and then
``/ 3``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .costs import AggCostParams, EvCostTable, agg_cost_of_power


PENALTY_CAP = 10.0
PENALTY_TOLERANCE_KW = 1e-6


def make_penalized_fitness(
    ev_params: EvCostTable,
    agg_params: AggCostParams,
    lower: float,
    upper: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized objective + graded consensus penalty over rate matrices.

    The spread of each row is graded by the width of the search range
    [lower, upper]; raises ValueError unless lower <= upper.
    """
    alpha, beta, gamma, other = ev_params.columns()
    linear = beta - ev_params.price
    const = (gamma + other).sum()
    eta = ev_params.eta
    scale = upper - lower
    if not scale >= 0.0:
        raise ValueError(f"need bounds lower <= upper, got lower={lower}, upper={upper}")

    def fitness(rates: np.ndarray) -> np.ndarray:
        pop = np.atleast_2d(np.asarray(rates, dtype=float))
        if pop.shape[1] != len(eta):
            raise ValueError(f"expected {len(eta)} rates per row, got {pop.shape[1]}")
        ev_cost = (pop * pop) @ alpha + pop @ linear + const
        agg_cost = agg_cost_of_power(pop @ eta, pop.sum(axis=1), agg_params)
        spread = pop.max(axis=1) - pop.min(axis=1)
        # min(1, spread / scale), dividing only where that is below 1: the
        # same bits, and a zero scale divides nowhere
        grade = np.divide(spread, scale, out=np.ones_like(spread), where=spread < scale)
        pen = np.where(spread > PENALTY_TOLERANCE_KW, PENALTY_CAP * grade, 0.0)
        out = ev_cost + agg_cost + pen
        return out if np.asarray(rates).ndim > 1 else out[0]

    return fitness


def _check_box(dim: int, k_max: int, lower: float, upper: float) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if not -np.inf < lower <= upper < np.inf:
        raise ValueError(f"need finite lower <= upper, got lower={lower}, upper={upper}")


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
    (one entry per iteration, non-increasing). ``seed`` goes through
    ``np.random.default_rng``, so a Generator is used as passed; each
    iteration draws from it in the three calls of the module's stream
    contract.
    """
    _check_box(dim, k_max, lower, upper)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(lower, upper, (m, dim))
    fit = np.asarray(fitness(pos), dtype=float)
    leader = int(np.argmin(fit))
    best_x = pos[leader].copy()
    best_f = float(fit[leader])
    trace = []

    draws = np.empty((m, 2 * dim + 1))  # per whale: r1, r2, then p
    whales = np.arange(m)
    A, C, encircle, search = (np.empty((m, dim)) for _ in range(4))
    near = np.empty((m, dim), dtype=bool)  # |A| < 1: encircle, else search
    for k in range(k_max):
        a = 2.0 * (1.0 - k / k_max)
        chained = a >= 1.0  # below 1, |A| < 1 and no whale takes a search move
        rng.random(out=draws)
        searching = draws[:, -1] < 0.5
        ref = whales.copy()  # search reference; a spiralling whale's own index
        ref[searching] = rng.integers(m, size=np.count_nonzero(searching))
        spiral = np.flatnonzero(~searching)
        ell = rng.random(spiral.size)
        np.multiply(draws[:, :dim], 2.0 * a, out=A)
        A -= a
        np.multiply(draws[:, dim:-1], 2.0, out=C)
        np.multiply(C, best_x, out=encircle)
        encircle -= pos
        np.abs(encircle, out=encircle)
        encircle *= A
        np.subtract(best_x, encircle, out=encircle)
        if chained:
            np.less(np.abs(A, out=search), 1.0, out=near)
            new = pos[ref]
            np.multiply(C, new, out=search)
            search -= pos
            np.abs(search, out=search)
            search *= A
            np.subtract(new, search, out=new)
            np.copyto(new, encircle, where=near)
            later = np.flatnonzero(ref < whales).tolist()
        else:
            new = encircle.copy()
            later = []
        l = 2.0 * ell - 1.0
        dist = np.abs(best_x - pos[spiral])
        new[spiral] = dist * np.exp(l)[:, None] * np.cos(2.0 * np.pi * l)[:, None] + best_x
        # A search move toward an earlier whale sees that whale's new
        # position: in ascending order, each target is final when read.
        for i in later:
            other = new[ref[i]]
            moved = C[i] * other
            moved -= pos[i]
            np.abs(moved, out=moved)
            moved *= A[i]
            np.subtract(other, moved, out=new[i])
            np.copyto(new[i], encircle[i], where=near[i])
        pos = np.clip(new, lower, upper, out=new)
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
    _check_box(dim, k_max, lower, upper)
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

    draws = np.empty((3, 2, pack_size, dim))  # per leader: r1, r2
    A, C = draws[:, 0], draws[:, 1]
    pulls = np.empty((3, pack_size, dim))
    for k in range(k_max):
        a = 2.0 * (1.0 - k / k_max)
        rng.random(out=draws)
        A *= 2.0 * a
        A -= a
        C *= 2.0
        # a contiguous copy of the leaders: in place, a broadcast operand
        # on these strided views makes numpy copy through its buffers
        np.copyto(pulls, leaders[:, None, :])
        C *= pulls
        C -= pos
        np.abs(C, out=C)
        C *= A
        np.subtract(pulls, C, out=pulls)
        pos = np.add.reduce(pulls, axis=0)  # the mean, as numpy forms it
        pos /= 3
        np.clip(pos, lower, upper, out=pos)
        fit = np.asarray(fitness(pos), dtype=float)
        order = np.argsort(fit)
        leaders = pos[order[:3]].copy()
        if fit[order[0]] < best_f:
            best_f = float(fit[order[0]])
            best_x = pos[order[0]].copy()
        trace.append(best_f)
    return best_x, trace
