"""The platform primitives a trace's bits rest on, each pinned by a named
check (see the ``records`` module docstring for the contract)."""

import hashlib

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


# an epoch's three child streams, spawned from its seed as ``run_optimization``
# spawns them, and the first draw each makes at N = 100, M = 10: the topology's
# one target per EV, the pool's M positions and a 16-round block's first row
@pytest.mark.parametrize("stream, draw, digest", [
    (0, lambda rng: rng.integers(100, size=100), "1e51a09700d0ce64"),
    (1, lambda rng: rng.uniform(0.0, 10.0, 10), "57f3136ccbf6d976"),
    (2, lambda rng: rng.random(out=np.empty((1, 16, 10))), "ec3d2ee119c545b7"),
], ids=["topology-integers", "pool-uniform", "masking-block-random"])
def test_an_epochs_first_draws_are_numpys_generator_streams(stream, draw, digest):
    rng = np.random.default_rng(np.random.SeedSequence(42).spawn(3)[stream])
    assert _digest(draw(rng)) == digest, (
        f"numpy's Generator gave other first draws on child stream {stream} of seed 42 "
        "than numpy 2.4 does: NEP 19 does not promise a Generator's streams across numpy "
        "versions, and every trace digest rests on them")
