"""Unit + property tests for Weibull primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.reliability import weibull


def test_exponential_special_case():
    # shape 1: hazard constant = 1/scale.
    t = np.array([1.0, 10.0, 100.0])
    assert np.allclose(weibull.hazard(t, 1.0, 50.0), 1.0 / 50.0)


def test_hazard_monotonicity_by_shape():
    t = np.linspace(1.0, 100.0, 50)
    increasing = weibull.hazard(t, 3.0, 50.0)
    decreasing = weibull.hazard(t, 0.5, 50.0)
    assert np.all(np.diff(increasing) > 0)
    assert np.all(np.diff(decreasing) < 0)


def test_mean_matches_gamma_formula():
    # shape 1 -> mean == scale
    assert weibull.mean(1.0, 42.0) == pytest.approx(42.0)
    # shape 2 -> scale * gamma(1.5) = scale * sqrt(pi)/2
    assert weibull.mean(2.0, 10.0) == pytest.approx(10.0 * np.sqrt(np.pi) / 2)


def test_sampling_distribution_roughly_correct():
    rng = np.random.default_rng(0)
    samples = weibull.sample(rng, 2.0, 100.0, 20_000)
    assert samples.min() > 0
    assert np.mean(samples) == pytest.approx(weibull.mean(2.0, 100.0), rel=0.05)


def test_hazard_matches_closed_form():
    # h(t) = (shape / scale) * (t / scale) ** (shape - 1)
    assert float(weibull.hazard(2000.0, 3.0, 1000.0)) == pytest.approx(0.012)


def test_validation():
    with pytest.raises(ConfigurationError):
        weibull.hazard(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        weibull.hazard(1.0, 1.0, 0.0)


@given(
    st.floats(min_value=0.3, max_value=5.0),
    st.floats(min_value=1.0, max_value=1e5),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_property_survival_in_unit_interval_and_decreasing(shape, scale, t):
    s1 = float(weibull.survival(t, shape, scale))
    s2 = float(weibull.survival(t + 1.0, shape, scale))
    assert 0.0 <= s2 <= s1 <= 1.0
