import math

import numpy as np
import pytest

from ncalg.report import severity, worst


def by_severity(residuals):
    """worst as the largest by the severity key: the first NaN, else the first of the largest."""
    return max(residuals, key=severity, default=0.0)


def test_worst_of_none_is_zero():
    assert worst([]) == 0.0 and worst(iter(())) == 0.0


@pytest.mark.parametrize("at", [0, 1, 3, 5])
def test_worst_is_the_first_nan_wherever_it_stands(at):
    first, second = float("nan"), float("nan")
    residuals = [1.0, 2.0, 5.0, 0.5, -1.0, 3.0]
    residuals.insert(at, first)
    residuals.insert(at + 2, second)
    assert worst(residuals) is first is by_severity(residuals)


@pytest.mark.parametrize("residuals", [[0.0, -0.0], [-0.0, 0.0], [-1.0, -0.0, 0.0], [-1.0, 0.0, -0.0]])
def test_worst_keeps_the_first_of_equal_maxima(residuals):
    got = worst(residuals)
    assert math.copysign(1.0, got) == math.copysign(1.0, by_severity(residuals))
    assert got is by_severity(residuals)


def test_worst_takes_generators_and_numpy_floats():
    values = [np.float64(0.5), 2.0, np.float64(2.0), np.float64(-3.0)]
    assert worst(v for v in values) is values[1]
    nan = np.float64(np.nan)
    assert worst(iter([np.float64(1.0), nan, float("nan")])) is nan
    assert worst(np.array([0.25, 4.0, 1.0]).tolist()) == 4.0


def test_worst_agrees_with_the_severity_order_on_random_lists():
    rng = np.random.default_rng(0)
    pool = [0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, 1e-300, np.float64(2.0), np.float64(np.nan)]
    for _ in range(500):
        residuals = [pool[i] if i < len(pool) else float("nan") for i in rng.integers(0, len(pool) + 1, 6)]
        assert worst(residuals) is by_severity(residuals)
