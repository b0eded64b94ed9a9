"""Unit tests for the wearout FIT profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.wearout import wearout_fit_profile


def test_fit_profile_shape():
    profile = wearout_fit_profile(100.0, onset_us=1000, full_us=2000, multiplier=10.0)
    t = np.array([0, 500, 1000, 1500, 2000, 3000])
    rates = profile(t)
    assert rates[0] == rates[1] == rates[2] == pytest.approx(100.0)
    assert rates[3] == pytest.approx(100.0 * (1 + 9 * 0.25))
    assert rates[4] == rates[5] == pytest.approx(1000.0)
    # monotone non-decreasing
    assert np.all(np.diff(rates) >= -1e-12)


def test_fit_profile_validation():
    with pytest.raises(ConfigurationError):
        wearout_fit_profile(0.0, 0, 1)
    with pytest.raises(ConfigurationError):
        wearout_fit_profile(1.0, 10, 10)
    with pytest.raises(ConfigurationError):
        wearout_fit_profile(1.0, 0, 10, multiplier=0.5)
