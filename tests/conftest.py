"""Shared test helpers."""

import numpy as np
import pytest

FLEET_COLUMNS = ("capacity_kwh", "soc", "soc_min", "rate_min_kw", "rate_max_kw", "eta", "departed")


@pytest.fixture
def assert_same_fleet():
    """Asserts that two fleets hold equal columns: the six float columns and
    ``departed``, value for value and of the same length."""
    def check(a, b):
        for name in FLEET_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    return check
