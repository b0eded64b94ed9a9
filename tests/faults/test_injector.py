"""Unit tests for the fault injector: every mechanism produces its
documented substrate-level manifestation and a correct ledger entry."""

from __future__ import annotations

import pytest

from repro.core.fault_model import FaultClass, FruKind, Persistence
from repro.errors import FaultInjectionError
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster, small_cluster
from repro.units import ms, seconds


@pytest.fixture
def cluster():
    return small_cluster(n_components=4, seed=21)


@pytest.fixture
def injector(cluster):
    return FaultInjector(cluster)


def test_ledger_ids_unique_and_registered(cluster, injector):
    d1 = injector.inject_transient_internal("c1", ms(10))
    d2 = injector.inject_seu("c2", ms(20))
    assert d1.fault_id != d2.fault_id
    assert set(injector.ground_truth()) == {d1.fault_id, d2.fault_id}
    assert cluster.trace.count("fault.injected") == 2


def test_transient_internal_causes_bounded_outage(cluster, injector):
    injector.inject_transient_internal("c1", ms(50), duration_us=ms(20))
    cluster.run(ms(100))
    silent = cluster.trace.records("frame.silent", source="c1")
    # 20 ms outage, c1's slot comes once per 4 ms round: ~5 missed slots.
    assert 3 <= len(silent) <= 7
    assert cluster.components["c1"].hardware.operational(cluster.now)


def test_permanent_silent_never_recovers(cluster, injector):
    d = injector.inject_permanent_internal("c1", ms(10), mode="silent")
    cluster.run(ms(100))
    assert not cluster.components["c1"].hardware.operational(cluster.now)
    assert d.persistence is Persistence.PERMANENT
    assert d.fault_class is FaultClass.COMPONENT_INTERNAL


def test_permanent_babbling_blocked_by_guardians(cluster, injector):
    injector.inject_permanent_internal("c1", ms(10), mode="babbling")
    cluster.run(ms(100))
    assert cluster.guardians["c1"].blocked_count > 0
    # the bus stays clean: no omissions at other receivers
    assert cluster.trace.count("delivery.omitted") == 0


def test_permanent_corrupt_invalidates_frames(cluster, injector):
    injector.inject_permanent_internal("c1", ms(10), mode="corrupt")
    cluster.run(ms(50))
    assert cluster.trace.count("delivery.corrupted") > 0


def test_permanent_timing_shifts_sends(cluster, injector):
    injector.inject_permanent_internal(
        "c1", ms(10), mode="timing", timing_offset_us=60.0
    )
    cluster.run(ms(50))
    # send instants off by 60us but within guardian tolerance: no blocks
    assert cluster.guardians["c1"].blocked_count == 0


def test_unknown_permanent_mode_rejected(injector):
    with pytest.raises(FaultInjectionError):
        injector.inject_permanent_internal("c1", 0, mode="meltdown")


def test_seu_corrupts_about_one_round(cluster, injector):
    injector.inject_seu("c1", ms(20))
    cluster.run(ms(100))
    corrupted = cluster.trace.records("delivery.corrupted")
    senders = {r.data["sender"] for r in corrupted}
    assert senders == {"c1"}
    assert 1 <= len(corrupted) <= 2 * (len(cluster.components) - 1)


def test_emi_burst_affects_zone_only(cluster, injector):
    d = injector.inject_emi_burst(
        ms(20), center=(0.5, 0.0), radius=0.6, duration_us=ms(10)
    )
    cluster.run(ms(100))
    assert d.fault_class is FaultClass.COMPONENT_EXTERNAL
    corrupted = cluster.trace.records("delivery.corrupted")
    assert corrupted, "EMI burst should corrupt frames"
    # senders c0/c1 are inside the zone; c3 well outside it can only be
    # hit as a *receiver* if it were in the zone (it is not).
    senders = {r.data["sender"] for r in corrupted}
    assert senders <= {"c0", "c1", "c2", "c3"}


def test_emi_burst_requires_coverage(cluster, injector):
    with pytest.raises(FaultInjectionError):
        injector.inject_emi_burst(0, center=(99.0, 99.0), radius=0.1)
    with pytest.raises(FaultInjectionError):
        injector.inject_emi_burst(0, duration_us=0)


def test_connector_fault_degrades_one_channel(cluster, injector):
    d = injector.inject_connector_fault(
        "c2", channel=1, omission_prob=1.0, at_us=ms(10)
    )
    cluster.run(ms(50))
    assert d.fault_class is FaultClass.COMPONENT_BORDERLINE
    att = cluster.bus.attachment("c2")
    assert att.tx[1].omission_prob == 1.0
    assert att.rx[1].omission_prob == 1.0
    assert att.tx[0].omission_prob == 0.0
    # replication masks: no omissions at frame level
    assert cluster.trace.count("delivery.omitted") == 0


def test_wiring_fault_hits_whole_channel(cluster, injector):
    injector.inject_wiring_fault(0, omission_prob=1.0, at_us=ms(10))
    cluster.run(ms(50))
    assert cluster.bus.channel_state[0].omission_prob == 1.0
    with pytest.raises(FaultInjectionError):
        injector.inject_wiring_fault(5)


def test_recurring_transients_min_occurrences(cluster, injector):
    d = injector.inject_recurring_transients(
        "c1", ms(10), seconds(1), fit=1.0, min_occurrences=5
    )
    cluster.run(seconds(1))
    assert cluster.trace.count("frame.silent") >= 5
    assert d.fault_class is FaultClass.COMPONENT_INTERNAL


def test_wearout_occurrence_frequency_rises(cluster, injector):
    injector.inject_wearout(
        "c1",
        onset_us=ms(10),
        full_us=seconds(4),
        horizon_us=seconds(5),
        base_fit=2e12,
        multiplier=10.0,
        duration_us=ms(4),
    )
    cluster.run(seconds(5))
    silent = [r.time for r in cluster.trace.records("frame.silent")]
    assert len(silent) >= 6
    mid = (silent[0] + silent[-1]) / 2
    early = sum(1 for t in silent if t <= mid)
    late = len(silent) - early
    assert late > early


def test_job_crash_transient_and_permanent(cluster, injector):
    injector.inject_job_crash("p0", ms(10), duration_us=ms(20))
    cluster.run(ms(100))
    assert cluster.job("p0").active(cluster.now)
    d = injector.inject_job_crash("p0", cluster.now + ms(1))
    cluster.run(ms(20))
    assert not cluster.job("p0").active(cluster.now)
    assert d.persistence is Persistence.PERMANENT


def test_bohrbug_forces_out_of_spec_values(cluster, injector):
    injector.inject_software_bohrbug("p0", ms(10))
    cluster.run(ms(50))
    consumer = cluster.job("k1")
    values = consumer.state.get("consumed", []) + [
        m.value for m in consumer.port("in").drain()
    ]
    spec = cluster.job("p0").spec.port("out").value_spec
    assert any(not spec.conforms(v) for v in values)


def test_heisenbug_manifest_rate(cluster, injector):
    injector.inject_software_heisenbug("p0", ms(0), manifest_prob=0.5)
    cluster.run(ms(400))
    spec = cluster.job("p0").spec.port("out").value_spec
    consumed = cluster.job("k1").state.get("consumed", [])
    port = cluster.job("k1").port("in")
    values = consumed + [m.value for m in port.drain()]
    bad = sum(1 for v in values if not spec.conforms(v))
    assert 0 < bad < len(values)
    with pytest.raises(FaultInjectionError):
        injector.inject_software_heisenbug("p0", 0, manifest_prob=0.0)


def test_sensor_fault_modes():
    parts = figure10_cluster(seed=22)
    cluster = parts.cluster
    injector = FaultInjector(cluster)
    injector.inject_sensor_fault("C1", ms(10), mode="stuck", stuck_value=5.0)
    cluster.run(ms(50))
    assert cluster.job("C1").read_sensors()["wheel_speed"] == 5.0
    with pytest.raises(FaultInjectionError):
        injector.inject_sensor_fault("C1", 0, mode="explode")


def test_sensor_drift_grows_over_time():
    parts = figure10_cluster(seed=23)
    cluster = parts.cluster
    injector = FaultInjector(cluster)
    injector.inject_sensor_fault("C1", 0, mode="drift", drift_per_s=10.0)
    cluster.run(seconds(2))
    raw = cluster.job("C1").sensors["wheel_speed"]
    seen = cluster.job("C1").read_sensors()["wheel_speed"]
    assert seen - raw == pytest.approx(20.0, abs=1.0)


def test_queue_config_fault_causes_overflow():
    parts = figure10_cluster(seed=24)
    cluster = parts.cluster
    injector = FaultInjector(cluster)
    injector.inject_queue_config_fault("A3", "in", capacity=1, at_us=ms(10))
    cluster.run(ms(200))
    assert cluster.job("A3").port("in").overflow_count > 0
    assert cluster.trace.count("port.overflow") > 0


def test_vn_budget_fault_causes_tx_overflow():
    parts = figure10_cluster(seed=25)
    cluster = parts.cluster
    injector = FaultInjector(cluster)
    injector.inject_vn_budget_config_fault("vn-C", slot_budget=1, at_us=ms(10))
    cluster.run(ms(200))
    assert cluster.vns["vn-C"].tx_overflows > 0
    with pytest.raises(FaultInjectionError):
        injector.inject_vn_budget_config_fault("vn-ghost")


def test_unknown_targets_rejected(injector):
    with pytest.raises(FaultInjectionError):
        injector.inject_transient_internal("ghost", 0)
    with pytest.raises(FaultInjectionError):
        injector.inject_software_bohrbug("ghost", 0)


def test_fru_kinds_in_ledger(cluster, injector):
    hw = injector.inject_transient_internal("c1", 0)
    sw = injector.inject_software_bohrbug("p0", 0)
    assert hw.fru.kind is FruKind.COMPONENT
    assert sw.fru.kind is FruKind.JOB
