"""Unit tests for time/rate unit conversions."""

from __future__ import annotations

import pytest

from repro import units


def test_time_conversions_roundtrip():
    assert units.ms(1.5) == 1500
    assert units.seconds(2) == 2_000_000
    assert units.minutes(1) == 60_000_000
    assert units.hours(1) == 3_600_000_000
    assert units.to_ms(1500) == 1.5
    assert units.to_seconds(2_000_000) == 2.0
    assert units.to_hours(units.hours(3)) == 3.0


def test_fit_conversions():
    assert units.fit_to_per_us(1e9) == pytest.approx(1.0 / units.US_PER_HOUR)


def test_mtbf():
    # Paper: 100 FIT is about 1000 years.
    years = units.mtbf_hours(100.0) / units.HOURS_PER_YEAR
    assert 1000 == pytest.approx(years, rel=0.15)
    # Paper: 100,000 FIT is about 1 year.
    years = units.mtbf_hours(100_000.0) / units.HOURS_PER_YEAR
    assert 1.0 == pytest.approx(years, rel=0.15)
    with pytest.raises(ValueError):
        units.mtbf_hours(0.0)
