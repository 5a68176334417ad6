"""The platform primitives a trace's bits rest on, each pinned by a named
check (see the ``records`` module docstring for the contract)."""

import hashlib
import math

import numpy as np
import pytest

from v2gdispatch.costs import left_to_right_sum


def test_builtin_sum_of_floats_adds_left_to_right():
    values = [1e16, 1.0, -1e16]
    assert sum(values) == left_to_right_sum(np.array(values)) == 0.0, (
        "the built-in sum() of floats is not left to right here (Python 3.12 and later "
        "compensate it): frozen acceptance criterion 7 assumes a left-to-right sum()")


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


# an epoch's four child streams, spawned from its seed as ``run_optimization``
# spawns them, and the first draw each makes at N = 100, M = 10, k_max = 150:
# the topology's one target per EV, the pool's M positions (which
# ``dwoa.PoolDraws`` decodes as ``uniform`` gives them), the first
# 8-round block of every row's kept fractions and the first 150-round block
# of the aggregator's share routes
@pytest.mark.parametrize("stream, draw, digest", [
    (0, lambda rng: rng.integers(100, size=100), "1e51a09700d0ce64"),
    (1, lambda rng: rng.uniform(0.0, 10.0, 10), "57f3136ccbf6d976"),
    (2, lambda rng: rng.random(out=np.empty((8, 101, 10))), "a909e12adeb43c27"),
    (3, lambda rng: rng.integers(100, size=(150, 10)), "43c1da29f383ed58"),
], ids=["topology-integers", "pool-uniform", "masking-block-random", "route-block-integers"])
def test_an_epochs_first_draws_are_numpys_generator_streams(stream, draw, digest):
    rng = np.random.default_rng(np.random.SeedSequence(42).spawn(4)[stream])
    assert _digest(draw(rng)) == digest, (
        f"numpy's Generator gave other first draws on child stream {stream} of seed 42 "
        "than numpy 2.4 does: NEP 19 does not promise a Generator's streams across numpy "
        "versions, and every trace digest rests on them")


# the pool's stream from its first word, as the seed-42 epoch at N = 100
# reads it: its first ``random_raw`` block of 2**11 words, from which
# ``dwoa.PoolDraws`` decodes the 10 initial positions and then every move's
# doubles and reference draws
def test_the_pool_reads_pcg64s_raw_stream():
    bit_generator = np.random.PCG64(np.random.SeedSequence(42).spawn(4)[1])
    assert _digest(bit_generator.random_raw(2048)) == "fd473ad72ed4161b", (
        "PCG64's raw stream gave other words on child stream 1 of seed 42 than numpy 2.4 "
        "does: the whale pool's initial positions and every move are decoded from these "
        "words, and every trace digest rests on them")


# the spiral's l = 2u - 1 lies in [-1, 1); advance_pool takes exp(l) and
# cos(2*pi*l) from libm one whale at a time
_SPIRAL = [k / 1000.0 - 1.0 for k in range(2001)]
# the aggregator's utility term takes log(N * rate + 1) of a row of candidates;
# here N = 100 on the default bounds [0, 6.6]
_UTILITY = 100 * np.linspace(0.0, 6.6, 1001) + 1.0
# quantisation rounds scaled costs to whole units; half-way values round to even
_HALF_WAY = np.concatenate([np.arange(-2048, 2048) + 0.5, 2.0**52 - 0.5 - np.arange(64)])


@pytest.mark.parametrize("primitive, values, digest", [
    ("math.exp", lambda: [math.exp(l) for l in _SPIRAL], "506157fc9e8cde81"),
    ("math.cos", lambda: [math.cos(2.0 * math.pi * l) for l in _SPIRAL], "8a9ee345d04d74a9"),
    ("np.log", lambda: np.log(_UTILITY), "010c6ea1b4cbfc5f"),
    ("np.rint", lambda: np.rint(_HALF_WAY), "c0b8bba224de2647"),
], ids=["math.exp", "math.cos", "np.log", "np.rint"])
def test_the_traces_float_primitives_give_the_bits_they_gave(primitive, values, digest):
    assert _digest(np.array(values())) == digest, (
        f"{primitive} gave other bits on its fixed inputs than on Python 3.11.7, numpy 2.4.6 "
        "and glibc 2.36 on x86-64: neither libm nor numpy's kernels promise correctly rounded "
        f"results, and every trace digest rests on {primitive}")
