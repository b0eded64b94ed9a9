"""Unit tests for the detection service (symptom generation)."""

from __future__ import annotations

import pytest

from repro.core.symptoms import Symptom, SymptomType
from repro.diagnosis.detector import (
    DetectionService,
    TmrMonitor,
    sensor_range_check,
    sensor_stuck_check,
)
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster, small_cluster
from repro.units import ms


def collect(cluster):
    symptoms: list[Symptom] = []
    service = DetectionService(cluster, lambda obs, s: symptoms.append(s))
    return service, symptoms


def by_type(symptoms, type_):
    return [s for s in symptoms if s.type is type_]


def test_healthy_cluster_emits_no_symptoms():
    cluster = small_cluster(4, seed=31)
    _, symptoms = collect(cluster)
    cluster.run(ms(100))
    assert symptoms == []


def test_silent_component_yields_omissions_from_each_receiver():
    cluster = small_cluster(4, seed=32)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_permanent_internal("c1", ms(10))
    cluster.run(ms(30))
    omissions = by_type(symptoms, SymptomType.OMISSION)
    assert omissions
    assert {s.subject_component for s in omissions} == {"c1"}
    assert {s.observer for s in omissions} == {"c0", "c2", "c3"}
    assert all(s.subject_job is None for s in omissions)


def test_corrupt_component_yields_crc_symptoms():
    cluster = small_cluster(4, seed=33)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_permanent_internal("c1", ms(10), mode="corrupt")
    cluster.run(ms(30))
    crc = by_type(symptoms, SymptomType.CRC_ERROR)
    assert crc
    assert all(s.magnitude >= 1 for s in crc)


def test_connector_fault_yields_channel_omissions():
    cluster = small_cluster(4, seed=34)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_connector_fault(
        "c2", channel=0, omission_prob=1.0, at_us=ms(10), direction="tx"
    )
    cluster.run(ms(50))
    chan = by_type(symptoms, SymptomType.CHANNEL_OMISSION)
    assert chan
    assert {s.subject_component for s in chan} == {"c2"}
    assert {s.channel for s in chan} == {0}


def test_timing_fault_yields_timing_violations():
    cluster = small_cluster(4, seed=35)
    service, symptoms = collect(cluster)
    FaultInjector(cluster).inject_permanent_internal(
        "c1", ms(10), mode="timing", timing_offset_us=60.0
    )
    cluster.run(ms(50))
    timing = by_type(symptoms, SymptomType.TIMING_VIOLATION)
    assert timing
    assert all(abs(s.magnitude) > service.timing_threshold_us for s in timing)


def test_job_crash_yields_job_level_omissions():
    cluster = small_cluster(4, seed=36)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_job_crash("p0", ms(10))
    cluster.run(ms(40))
    job_om = [
        s
        for s in by_type(symptoms, SymptomType.OMISSION)
        if s.subject_job == "p0"
    ]
    assert job_om
    # component-level frame still arrives: no component-level omission
    assert not [
        s
        for s in by_type(symptoms, SymptomType.OMISSION)
        if s.subject_job is None
    ]


def test_value_violation_and_marginal_symptoms():
    cluster = small_cluster(4, seed=37)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_software_bohrbug("p0", ms(10))
    cluster.run(ms(40))
    violations = by_type(symptoms, SymptomType.VALUE_VIOLATION)
    assert violations
    assert {s.subject_job for s in violations} == {"p0"}
    assert all(s.magnitude > 0 for s in violations)


def test_queue_overflow_symptom():
    parts = figure10_cluster(seed=38)
    cluster = parts.cluster
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_queue_config_fault("A3", "in", 1, at_us=ms(10))
    cluster.run(ms(100))
    overflows = by_type(symptoms, SymptomType.QUEUE_OVERFLOW)
    assert overflows
    assert {s.subject_job for s in overflows} == {"A3"}


def test_vn_budget_overflow_symptom():
    parts = figure10_cluster(seed=39)
    cluster = parts.cluster
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_vn_budget_config_fault(
        "vn-C", slot_budget=1, at_us=ms(10)
    )
    cluster.run(ms(100))
    overflows = by_type(symptoms, SymptomType.VN_BUDGET_OVERFLOW)
    assert overflows
    assert all("vn-C" in s.detail for s in overflows)


def test_membership_loss_symptom():
    cluster = small_cluster(4, seed=40)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_permanent_internal("c2", ms(10))
    cluster.run(ms(50))
    losses = by_type(symptoms, SymptomType.MEMBERSHIP_LOSS)
    assert losses
    assert {s.subject_component for s in losses} == {"c2"}


def test_guardian_block_symptom():
    cluster = small_cluster(4, seed=41)
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_permanent_internal("c1", ms(10), mode="babbling")
    cluster.run(ms(50))
    blocks = by_type(symptoms, SymptomType.GUARDIAN_BLOCK)
    assert blocks
    assert {s.subject_component for s in blocks} == {"c1"}


def test_tmr_monitor_reports_deviating_replica():
    parts = figure10_cluster(seed=42)
    cluster = parts.cluster
    service, symptoms = collect(cluster)
    service.add_tmr_monitor(parts.tmr_monitor)
    FaultInjector(cluster).inject_job_crash("S2", ms(20))
    cluster.run(ms(100))
    deviations = by_type(symptoms, SymptomType.REPLICA_DEVIATION)
    assert deviations
    assert {s.subject_job for s in deviations} == {"S2"}
    assert {s.subject_component for s in deviations} == {"comp2"}


def test_tmr_monitor_quiet_when_replicas_agree():
    parts = figure10_cluster(seed=43)
    cluster = parts.cluster
    service, symptoms = collect(cluster)
    service.add_tmr_monitor(parts.tmr_monitor)
    cluster.run(ms(100))
    assert by_type(symptoms, SymptomType.REPLICA_DEVIATION) == []


def test_tmr_monitor_needs_three_replicas():
    with pytest.raises(ConfigurationError):
        TmrMonitor("v", {"a": "p1", "b": "p2"})


def test_sensor_internal_checks():
    parts = figure10_cluster(seed=44)
    cluster = parts.cluster
    _, symptoms = collect(cluster)
    FaultInjector(cluster).inject_sensor_fault(
        "C1", ms(10), mode="stuck", stuck_value=25.0
    )
    cluster.run(ms(300))
    implausible = by_type(symptoms, SymptomType.SENSOR_IMPLAUSIBLE)
    assert implausible
    assert {s.subject_job for s in implausible} == {"C1"}


def test_check_factories_behaviour():
    from repro.components.job import Job, JobSpec

    job = Job(JobSpec("j", "d", ()))
    job.sensors["t"] = 5.0
    range_check = sensor_range_check("t", 0.0, 10.0)
    assert range_check(job, 0) is None
    job.sensors["t"] = 20.0
    assert range_check(job, 0) is not None

    stuck_check = sensor_stuck_check("t", min_change=0.1, window_polls=3)
    job.sensors["t"] = 1.0
    assert stuck_check(job, 0) is None
    assert stuck_check(job, 1) is None
    assert stuck_check(job, 2) is not None  # three identical readings

    missing = sensor_range_check("ghost", 0, 1)
    assert missing(job, 0) is None
