import math

import numpy as np
import pytest

from nnasolve import (
    DimensionMismatch,
    InfiniteDivergence,
    NegativeInput,
    NonFiniteValue,
    kl_divergence,
    l2_bridge,
)


def simplex_point(rng, m):
    u = rng.uniform(0.0, 1.0, m) + 1e-12
    return u / u.sum()


def test_kl_identical_is_exactly_zero():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.uniform(0, 1, 6)
        u[rng.integers(0, 6)] = 0.0
        assert kl_divergence(u, u) == 0.0


def test_kl_closed_form_and_infinity():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-12)
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_finite_where_the_ratio_leaves_the_float_range():
    # 0.5 / 5e-323 overflows and 5e-323 / 1e300 underflows to 0, yet each
    # term u_i (log u_i - log v_i) is finite
    expected = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(5e-323))
    assert kl_divergence([0.5, 0.5], [1.0, 5e-323]) == pytest.approx(expected, rel=1e-12)
    assert kl_divergence([5e-323, 1.0], [1e300, 1.0]) == pytest.approx(0.0, abs=1e-300)


def test_kl_input_validation():
    with pytest.raises(NegativeInput):
        kl_divergence([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(NonFiniteValue):
        kl_divergence([math.inf, 0.5], [0.5, 0.5])


def test_kl_nonnegative_on_simplex_pairs():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        m = int(rng.integers(2, 8))
        assert kl_divergence(simplex_point(rng, m), simplex_point(rng, m)) >= 0.0


def test_l2_bridge_values():
    assert l2_bridge([1.0, 2.0], 0.0) == 0.0
    assert l2_bridge([1.0, 1.0], 0.5) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(InfiniteDivergence):
        l2_bridge([1.0], math.inf)
    with pytest.raises(NegativeInput):
        l2_bridge([-1.0, 1.0], 0.1)
