"""Unit + integration tests for the service station (repair loop)."""

from __future__ import annotations

import pytest

from repro.core.fault_model import (
    FaultClass,
    Persistence,
    component_fru,
    job_fru,
)
from repro.core.classification import Verdict
from repro.core.maintenance import MaintenanceAction, determine_action
from repro.core.workshop import ServiceStation
from repro.diagnosis.diag_das import DiagnosticService
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster
from repro.units import ms, seconds


def make_rec(action, fru, fault_class=FaultClass.COMPONENT_INTERNAL):
    from repro.core.maintenance import MaintenanceRecommendation

    return MaintenanceRecommendation(
        fru=fru,
        fault_class=fault_class,
        action=action,
        confidence=1.0,
        removes_fru=True,
    )


@pytest.fixture
def broken_vehicle():
    parts = figure10_cluster(seed=17)
    cluster = parts.cluster
    service = DiagnosticService(cluster, collector="comp5")
    injector = FaultInjector(cluster)
    return parts, cluster, service, injector


def test_replace_component_repairs_permanent_fault(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_permanent_internal("comp2", ms(200))
    cluster.run(seconds(2))
    station = ServiceStation(cluster)
    recs = [determine_action(v) for v in service.verdicts()]
    orders = station.execute_all(recs)
    assert any(
        o.recommendation.action is MaintenanceAction.REPLACE_COMPONENT
        for o in orders
    )
    # the bench confirms the removed unit was really broken
    assert station.justified_removals == 1
    assert station.nff_count == 0
    # and the vehicle runs clean afterwards
    before = cluster.trace.count("frame.silent")
    cluster.run(seconds(1))
    assert cluster.trace.count("frame.silent") == before
    assert cluster.components["comp2"].hardware.operational(cluster.now)


def test_replacement_for_external_fault_is_nff(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    cluster.run(ms(100))
    # A misguided replacement of a healthy unit retests OK at the bench.
    station = ServiceStation(cluster)
    order = station.execute(
        make_rec(MaintenanceAction.REPLACE_COMPONENT, component_fru("comp3"))
    )
    assert order.bench_retest_ok is True
    assert station.nff_count == 1


def test_connector_reseat_clears_borderline_fault(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_connector_fault("comp3", 0, omission_prob=1.0, at_us=ms(100))
    cluster.run(seconds(1))
    att = cluster.bus.attachment("comp3")
    assert att.tx[0].omission_prob > 0
    station = ServiceStation(cluster)
    station.execute(
        make_rec(
            MaintenanceAction.INSPECT_CONNECTOR,
            component_fru("comp3"),
            FaultClass.COMPONENT_BORDERLINE,
        )
    )
    assert att.tx[0].omission_prob == 0.0
    assert att.rx[0].omission_prob == 0.0


def test_loom_repair(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_wiring_fault(1, omission_prob=0.5, at_us=ms(100))
    cluster.run(seconds(1))
    station = ServiceStation(cluster)
    station.execute(
        make_rec(
            MaintenanceAction.INSPECT_CONNECTOR,
            component_fru("loom-channel-1"),
            FaultClass.COMPONENT_BORDERLINE,
        )
    )
    assert cluster.bus.channel_state[1].omission_prob == 0.0


def test_configuration_update_stops_overflows(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_queue_config_fault("A3", "in", capacity=1, at_us=ms(100))
    cluster.run(seconds(1))
    port = cluster.job("A3").port("in")
    assert port.overflow_count > 0
    station = ServiceStation(cluster)
    station.execute(
        make_rec(
            MaintenanceAction.UPDATE_CONFIGURATION,
            job_fru("A3"),
            FaultClass.JOB_BORDERLINE,
        )
    )
    overflows_before = port.overflow_count
    cluster.run(seconds(1))
    assert port.overflow_count == overflows_before


def test_transducer_replacement(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_sensor_fault("C1", ms(100), mode="stuck", stuck_value=3.0)
    cluster.run(seconds(1))
    station = ServiceStation(cluster)
    order = station.execute(
        make_rec(
            MaintenanceAction.INSPECT_TRANSDUCER,
            job_fru("C1"),
            FaultClass.JOB_INHERENT_TRANSDUCER,
        )
    )
    assert order.bench_retest_ok is False  # the sensor really was faulty
    assert cluster.job("C1").sensor_transform is None


def test_transducer_inspection_of_healthy_sensor_is_nff(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    cluster.run(ms(100))
    station = ServiceStation(cluster)
    order = station.execute(
        make_rec(
            MaintenanceAction.INSPECT_TRANSDUCER,
            job_fru("C1"),
            FaultClass.JOB_INHERENT_TRANSDUCER,
        )
    )
    assert order.bench_retest_ok is True


def test_software_update_clears_bug(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    injector.inject_software_bohrbug("A2", ms(100))
    cluster.run(seconds(1))
    station = ServiceStation(cluster)
    station.execute(
        make_rec(
            MaintenanceAction.UPDATE_SOFTWARE,
            job_fru("A2"),
            FaultClass.JOB_INHERENT_SOFTWARE,
        )
    )
    job = cluster.job("A2")
    assert job.behaviour_wrapper is None
    assert job.version.endswith("+fix")
    spec = job.spec.port("out").value_spec
    trace_before = len(cluster.trace)
    cluster.run(seconds(1))
    # no further value violations reach the wire
    violations = [
        m
        for m in cluster.job("A3").state.get("consumed", [])
        if not spec.conforms(m)
    ]
    assert violations == []


def test_no_action_and_forward_do_not_touch_vehicle(broken_vehicle):
    parts, cluster, service, injector = broken_vehicle
    cluster.run(ms(100))
    station = ServiceStation(cluster)
    order1 = station.execute(
        make_rec(
            MaintenanceAction.NO_ACTION,
            component_fru("comp1"),
            FaultClass.COMPONENT_EXTERNAL,
        )
    )
    order2 = station.execute(
        make_rec(
            MaintenanceAction.FORWARD_TO_OEM,
            job_fru("A1"),
            FaultClass.JOB_INHERENT_SOFTWARE,
        )
    )
    assert not order1.executed and not order2.executed
    assert station.nff_count == 0


def test_replacement_cancels_scheduled_fault_effects(broken_vehicle):
    """Future outages of a wearing-out unit die with the replaced unit."""
    parts, cluster, service, injector = broken_vehicle
    injector.inject_recurring_transients(
        "comp2", ms(100), seconds(4), fit=1.0, min_occurrences=10
    )
    cluster.run(seconds(1))
    assert cluster.trace.count("frame.silent") > 0
    station = ServiceStation(cluster)
    station.execute(
        make_rec(MaintenanceAction.REPLACE_COMPONENT, component_fru("comp2"))
    )
    silent_before = cluster.trace.count("frame.silent")
    cluster.run(seconds(3))
    assert cluster.trace.count("frame.silent") == silent_before


def test_repair_acknowledgement_resets_diagnosis(broken_vehicle):
    """With the diagnosis wired to the station, a repaired FRU's record
    is cleared: the new unit starts fully trusted and verdict-free."""
    parts, cluster, service, injector = broken_vehicle
    injector.inject_permanent_internal("comp2", ms(200))
    cluster.run(seconds(2))
    assert service.verdicts()
    station = ServiceStation(cluster, diagnosis=service)
    station.execute_all([determine_action(v) for v in service.verdicts()])
    assert service.verdicts() == []
    assert service.assessment.trust.values()["component:comp2"] == 1.0
    cluster.run(seconds(1))
    assert service.verdicts() == []
