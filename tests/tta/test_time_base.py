"""Unit + property tests for the sparse time base."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.tta.time_base import SparseTimeBase


def test_lattice_point_indexing():
    tb = SparseTimeBase(granularity_us=100, precision_us=10)
    assert tb.lattice_point(0) == 0
    assert tb.lattice_point(99) == 0
    assert tb.lattice_point(100) == 1


def test_simultaneity():
    tb = SparseTimeBase(100, 10)
    assert tb.simultaneous(10, 90)
    assert not tb.simultaneous(90, 110)


def test_reasonableness_condition_enforced():
    with pytest.raises(ConfigurationError):
        SparseTimeBase(granularity_us=20, precision_us=10)
    SparseTimeBase(granularity_us=21, precision_us=10)  # ok


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        SparseTimeBase(0, 0)
    with pytest.raises(ConfigurationError):
        SparseTimeBase(10, -1)


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=0, max_value=10**9),
)
def test_property_point_start_consistency(granularity, t):
    tb = SparseTimeBase(granularity, 0)
    p = tb.lattice_point(t)
    assert p * granularity <= t < (p + 1) * granularity


@given(
    st.integers(min_value=3, max_value=1000),
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=10**7),
)
def test_property_simultaneity_symmetric(granularity, t1, t2):
    tb = SparseTimeBase(granularity, (granularity - 1) // 2)
    assert tb.simultaneous(t1, t2) == tb.simultaneous(t2, t1)
