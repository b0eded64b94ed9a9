"""Tests for the quartz-degradation and power-brownout mechanisms."""

from __future__ import annotations

import pytest

from repro.core.fault_model import FaultClass, Persistence
from repro.diagnosis.diag_das import DiagnosticService
from repro.errors import FaultInjectionError
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster, small_cluster
from repro.units import ms, seconds


def test_quartz_degradation_grows_timing_offset():
    cluster = small_cluster(4, seed=91)
    injector = FaultInjector(cluster)
    d = injector.inject_quartz_degradation(
        "c1", ms(100), drift_step_us=10.0, step_period_us=ms(100)
    )
    assert d.fault_class is FaultClass.COMPONENT_INTERNAL
    assert d.persistence is Persistence.PERMANENT
    cluster.run(ms(550))
    offset_early = cluster.components["c1"].hardware.timing_offset_us
    cluster.run(ms(500))
    offset_late = cluster.components["c1"].hardware.timing_offset_us
    assert 0 < offset_early < offset_late


def test_quartz_degradation_capped():
    cluster = small_cluster(4, seed=92)
    injector = FaultInjector(cluster)
    injector.inject_quartz_degradation(
        "c1", ms(0), drift_step_us=50.0, step_period_us=ms(10), max_offset_us=120.0
    )
    cluster.run(seconds(1))
    assert cluster.components["c1"].hardware.timing_offset_us <= 170.0


def test_quartz_degradation_classified_internal():
    parts = figure10_cluster(seed=93)
    service = DiagnosticService(parts.cluster, collector="comp5")
    FaultInjector(parts.cluster).inject_quartz_degradation("comp1", ms(200))
    parts.cluster.run(seconds(4))
    verdicts = {str(v.fru): v for v in service.verdicts()}
    assert (
        verdicts["component:comp1"].fault_class
        is FaultClass.COMPONENT_INTERNAL
    )


def test_quartz_validation():
    cluster = small_cluster(3, seed=94)
    injector = FaultInjector(cluster)
    with pytest.raises(FaultInjectionError):
        injector.inject_quartz_degradation("c1", 0, drift_step_us=0.0)


def test_brownout_mixes_corruption_and_outages():
    cluster = small_cluster(4, seed=95)
    injector = FaultInjector(cluster)
    injector.inject_power_brownout(
        "c1", ms(100), duration_us=ms(600), outage_us=ms(10)
    )
    cluster.run(seconds(1))
    assert cluster.trace.count("delivery.corrupted") > 0
    assert cluster.trace.count("frame.silent") > 0
    # cleared after the window
    assert cluster.components["c1"].hardware.corrupt_tx_bits == 0


def test_brownout_confined_to_one_component():
    cluster = small_cluster(4, seed=96)
    injector = FaultInjector(cluster)
    injector.inject_power_brownout("c1", ms(100), duration_us=ms(600))
    cluster.run(seconds(1))
    corrupted = cluster.trace.records("delivery.corrupted")
    assert {r.data["sender"] for r in corrupted} == {"c1"}


def test_brownout_classified_internal():
    parts = figure10_cluster(seed=97)
    service = DiagnosticService(parts.cluster, collector="comp5")
    FaultInjector(parts.cluster).inject_power_brownout(
        "comp2", ms(200), duration_us=seconds(1)
    )
    parts.cluster.run(seconds(3))
    verdicts = {str(v.fru): v for v in service.verdicts()}
    assert (
        verdicts["component:comp2"].fault_class
        is FaultClass.COMPONENT_INTERNAL
    )


def test_brownout_validation():
    cluster = small_cluster(3, seed=98)
    injector = FaultInjector(cluster)
    with pytest.raises(FaultInjectionError):
        injector.inject_power_brownout("c1", 0, duration_us=0)
