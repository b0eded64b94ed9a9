"""Unit tests for drifting local clocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tta.clock import LocalClock


def test_zero_drift_tracks_reference():
    clock = LocalClock()
    assert clock.read(1_000_000) == pytest.approx(1_000_000)
    assert clock.error(1_000_000) == 0.0


def test_drift_accumulates_linearly():
    clock = LocalClock(drift_ppm=100.0)
    # 100 ppm over one second = 100 us.
    assert clock.error(1_000_000) == pytest.approx(100.0)
    assert clock.read(1_000_000) == pytest.approx(1_000_100.0)


def test_correction_rebases_drift():
    clock = LocalClock(drift_ppm=100.0)
    clock.apply_correction(-clock.error(1_000_000), 1_000_000)
    assert clock.error(1_000_000) == pytest.approx(0.0)
    # Drift resumes from the correction instant.
    assert clock.error(2_000_000) == pytest.approx(100.0)


def test_resynchronise_clears_error():
    clock = LocalClock(drift_ppm=50.0)
    assert clock.error(10_000_000) != 0.0
    clock.resynchronise(10_000_000)
    assert clock.error(10_000_000) == 0.0


def test_jitter_requires_rng():
    with pytest.raises(ConfigurationError):
        LocalClock(jitter_us=1.0)


def test_jitter_perturbs_reads():
    rng = np.random.default_rng(0)
    clock = LocalClock(jitter_us=5.0, rng=rng)
    reads = {clock.read(1000) for _ in range(10)}
    assert len(reads) > 1
    # error() stays jitter-free
    assert clock.error(1000) == 0.0


def test_negative_jitter_rejected():
    with pytest.raises(ConfigurationError):
        LocalClock(jitter_us=-1.0)
