"""Long-run soak: bounded memory, membership recovery, restart semantics."""

from __future__ import annotations

from repro.diagnosis.diag_das import DiagnosticService
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster, small_cluster
from repro.units import ms, seconds


def test_membership_recovers_after_transient_outage():
    cluster = small_cluster(4, seed=101)
    FaultInjector(cluster).inject_transient_internal(
        "c1", ms(100), duration_us=ms(40)
    )
    cluster.run(ms(120))
    assert not cluster.memberships["c0"].is_member("c1")
    cluster.run(ms(200))
    # after the outage ends, c1 rejoins every view
    for observer, svc in cluster.memberships.items():
        assert svc.is_member("c1"), observer
    assert cluster.memberships["c0"].removal_count("c1") == 1


def test_restart_recovers_external_victim():
    """§III-C: 'a restart of the component with subsequent state
    synchronisation is a typical strategy' for external faults."""
    cluster = small_cluster(4, seed=102)
    component = cluster.components["c2"]
    component.hardware.transient_outage_until_us = seconds(10)  # stuck
    cluster.run(ms(100))
    assert not component.hardware.operational(cluster.now)
    component.restart(cluster.now)
    assert component.hardware.operational(cluster.now)
    cluster.run(ms(200))
    assert cluster.memberships["c0"].is_member("c2")


def test_soak_window_memory_stays_bounded():
    """A noisy fault source over a long run must not grow the assessment
    window past its configured bound (pruning works)."""
    parts = figure10_cluster(seed=103)
    cluster = parts.cluster
    service = DiagnosticService(
        cluster, collector="comp5", window_points=1_000
    )
    injector = FaultInjector(cluster)
    injector.inject_connector_fault("comp3", 0, omission_prob=0.7, at_us=ms(50))
    injector.inject_recurring_transients(
        "comp1", ms(100), seconds(8), fit=5e11, min_occurrences=4
    )
    cluster.run(seconds(8))
    window = service.assessment._window
    assert window, "expected a busy symptom stream"
    newest = max(s.lattice_point for s in window)
    oldest = min(s.lattice_point for s in window)
    assert newest - oldest <= 1_000
    # keys set stays in lockstep with the window (no leak)
    assert len(service.assessment._seen_keys) == len(
        {s.key() for s in window}
    )


def test_soak_diagnosis_remains_correct_over_long_run():
    parts = figure10_cluster(seed=104)
    cluster = parts.cluster
    service = DiagnosticService(cluster, collector="comp5")
    FaultInjector(cluster).inject_connector_fault(
        "comp3", 1, omission_prob=0.6, at_us=ms(100)
    )
    cluster.run(seconds(10))
    verdicts = {str(v.fru): v for v in service.verdicts()}
    assert "component:comp3" in verdicts
    # trust recovers nowhere else
    for name, value in service.assessment.trust.values().items():
        if name != "component:comp3":
            assert value == 1.0, name
