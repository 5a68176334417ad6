"""The platform primitives a trace's bits rest on, each pinned by a named
check (see the ``records`` module docstring for the contract)."""

import numpy as np

from v2gdispatch.costs import left_to_right_sum


def test_builtin_sum_of_floats_adds_left_to_right():
    values = [1e16, 1.0, -1e16]
    assert sum(values) == left_to_right_sum(np.array(values)) == 0.0, (
        "the built-in sum() of floats is not left to right here (Python 3.12 and later "
        "compensate it): frozen acceptance criterion 7 assumes a left-to-right sum()")
