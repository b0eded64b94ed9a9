"""Unit + property tests for fault-tolerant clock synchronisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.errors import ConfigurationError
from repro.tta.sync import (
    SyncService,
    achieved_precision_us,
    fault_tolerant_average,
)


def test_fta_plain_mean_with_k0():
    assert fault_tolerant_average([1.0, 2.0, 3.0], k=0) == pytest.approx(2.0)


def test_fta_discards_extremes():
    # One byzantine measurement far off must not shift the result.
    assert fault_tolerant_average([1.0, 2.0, 3.0, 1e9], k=1) == pytest.approx(2.5)
    assert fault_tolerant_average([-1e9, 1.0, 2.0, 3.0], k=1) == pytest.approx(1.5)


def test_fta_needs_enough_measurements():
    with pytest.raises(ConfigurationError):
        fault_tolerant_average([1.0, 2.0], k=1)
    with pytest.raises(ConfigurationError):
        fault_tolerant_average([1.0], k=-1)


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100),
        min_size=3,
        max_size=20,
    ),
    st.floats(min_value=1e6, max_value=1e9),
)
# Three equal survivors whose float sum rounds down: the unclamped mean
# lands one ulp below every good value.
@example(good=[85.45428512246357] * 4, outlier=1e6)
def test_property_fta_bounded_by_good_values_despite_outlier(good, outlier):
    """With k=1, a single arbitrary outlier cannot drag the FTA outside the
    range of the good measurements."""
    result = fault_tolerant_average(good + [outlier], k=1)
    assert min(good) <= result <= max(good)


def test_sync_service_round_correction():
    svc = SyncService(k=1)
    for dev in (5.0, 6.0, 7.0, 1e6):
        svc.observe(dev)
    correction = svc.round_correction()
    # deviation = err_sender - err_receiver; correction moves the receiver
    # towards the ensemble: positive mean deviation -> positive correction.
    assert correction == pytest.approx(6.5)
    assert svc.corrections_applied == 1
    # measurements consumed
    assert svc.round_correction() is None


def test_sync_service_too_few_measurements_free_runs():
    svc = SyncService(k=1)
    svc.observe(1.0)
    assert svc.round_correction() is None


def test_achieved_precision_scales_with_drift_and_round():
    p_small = achieved_precision_us([10.0], 1_000)
    p_big = achieved_precision_us([10.0], 100_000)
    assert p_big > p_small
    with pytest.raises(ConfigurationError):
        achieved_precision_us([], 1000)
