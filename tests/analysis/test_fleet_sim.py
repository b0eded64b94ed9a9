"""End-to-end diagnosed-fleet simulation tests (kept small for CI)."""

from __future__ import annotations

import pytest

from repro.analysis.fleet_sim import CANDIDATE_JOBS, simulate_diagnosed_fleet
from repro.core.fleet import analyse_fleet
from repro.errors import AnalysisError
from repro.units import seconds


def test_diagnosed_fleet_identifies_hot_job():
    result = simulate_diagnosed_fleet(
        8, seed=3, fault_probability=0.75, drive_duration_us=seconds(2)
    )
    assert result.vehicles_simulated == 8
    assert result.vehicles_with_fault >= 3
    # the on-board diagnosis catches (nearly) every planted Heisenbug
    assert result.detection_rate >= 0.8
    analysis = analyse_fleet(result.report)
    # the OEM-side correlation identifies a subset containing the truth
    assert set(result.report.hot_types) <= set(analysis.identified_hot)


def test_fault_free_fleet_reports_nothing():
    result = simulate_diagnosed_fleet(
        3, seed=4, fault_probability=0.0, drive_duration_us=seconds(1)
    )
    assert result.vehicles_with_fault == 0
    assert result.report.totals().sum() == 0
    with pytest.raises(AnalysisError):
        analyse_fleet(result.report)


def test_candidate_jobs_are_non_safety_critical():
    from repro.presets import figure10_cluster

    parts = figure10_cluster(seed=0)
    for job_name in CANDIDATE_JOBS:
        assert not parts.cluster.job(job_name).spec.safety_critical


def test_validation():
    with pytest.raises(AnalysisError):
        simulate_diagnosed_fleet(0)
    with pytest.raises(AnalysisError):
        simulate_diagnosed_fleet(1, fault_probability=1.5)


def test_drive_duration_below_one_microsecond_is_refused():
    for duration in (0, -5_000):
        with pytest.raises(AnalysisError, match="drive_duration_us"):
            simulate_diagnosed_fleet(1, drive_duration_us=duration)
