"""Unit tests for the classifier (evidence ledger + alpha interplay)."""

from __future__ import annotations

import pytest

from repro.core.classification import Classifier
from repro.core.fault_model import (
    FaultClass,
    Persistence,
    component_fru,
    job_fru,
)
from repro.core.ona import OnaTrigger


def trig(fault_class, subject, confidence=0.8, time_us=1000, evidence=3):
    return OnaTrigger(
        ona="test",
        fault_class=fault_class,
        subject=subject,
        time_us=time_us,
        confidence=confidence,
        evidence=evidence,
    )


def test_single_trigger_yields_verdict():
    clf = Classifier()
    clf.ingest([trig(FaultClass.COMPONENT_BORDERLINE, component_fru("c1"))])
    verdicts = clf.verdicts()
    assert len(verdicts) == 1
    assert verdicts[0].fault_class is FaultClass.COMPONENT_BORDERLINE
    assert verdicts[0].fru == component_fru("c1")


def test_min_confidence_filters():
    clf = Classifier()
    clf.ingest(
        [trig(FaultClass.COMPONENT_EXTERNAL, component_fru("c1"), confidence=0.2)]
    )
    assert clf.verdicts(min_confidence=0.3) == []
    assert len(clf.verdicts(min_confidence=0.1)) == 1


def test_strongest_class_wins_per_fru():
    clf = Classifier()
    fru = component_fru("c1")
    clf.ingest(
        [
            trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.4),
            trig(FaultClass.COMPONENT_INTERNAL, fru, confidence=0.9),
        ]
    )
    assert clf.verdicts()[0].fault_class is FaultClass.COMPONENT_INTERNAL


def test_verdicts_sorted_by_confidence():
    clf = Classifier()
    clf.ingest(
        [
            trig(FaultClass.JOB_INHERENT_SOFTWARE, job_fru("j1"), confidence=0.5),
            trig(FaultClass.COMPONENT_INTERNAL, component_fru("c1"), confidence=0.9),
        ]
    )
    verdicts = clf.verdicts()
    assert verdicts[0].fru == component_fru("c1")


def test_alpha_count_adds_internal_weight_for_recurring_failures():
    clf = Classifier(alpha_decay=0.9, alpha_threshold=2.0)
    for i in range(4):
        clf.observe_component_epoch("c1", failed=True, now_us=i)
    verdicts = clf.verdicts()
    assert len(verdicts) == 1
    assert verdicts[0].fault_class is FaultClass.COMPONENT_INTERNAL


def test_externally_explained_failures_do_not_accumulate_alpha():
    clf = Classifier(alpha_decay=0.9, alpha_threshold=2.0)
    for i in range(6):
        clf.observe_component_epoch(
            "c1", failed=True, now_us=i, external_evidence=True
        )
    # no internal verdict: all failures had an external explanation
    assert all(
        v.fault_class is not FaultClass.COMPONENT_INTERNAL
        for v in clf.verdicts()
    )


def test_external_trigger_survives_when_failures_explained():
    clf = Classifier(alpha_decay=0.9, alpha_threshold=2.0)
    fru = component_fru("c1")
    clf.ingest([trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.9)])
    for i in range(4):
        clf.observe_component_epoch(
            "c1", failed=True, now_us=i, external_evidence=True
        )
    assert clf.verdicts()[0].fault_class is FaultClass.COMPONENT_EXTERNAL


def test_persistence_estimates():
    clf = Classifier(permanence_window=4)
    # permanent: every recent epoch failed
    for i in range(6):
        clf.observe_component_epoch("dead", failed=True, now_us=i)
    # intermittent: several triggers
    clf.ingest(
        [
            trig(FaultClass.COMPONENT_BORDERLINE, component_fru("flaky"))
            for _ in range(3)
        ]
    )
    # transient: single trigger
    clf.ingest([trig(FaultClass.COMPONENT_EXTERNAL, component_fru("once"))])
    by_name = {v.fru.name: v for v in clf.verdicts()}
    assert by_name["dead"].persistence is Persistence.PERMANENT
    assert by_name["flaky"].persistence is Persistence.INTERMITTENT
    assert by_name["once"].persistence is Persistence.TRANSIENT


def test_healthy_components_produce_no_verdicts():
    clf = Classifier()
    for i in range(50):
        clf.observe_component_epoch("c1", failed=False, now_us=i)
    assert clf.verdicts() == []


def test_detail_lists_ranked_weights():
    clf = Classifier()
    fru = component_fru("c1")
    clf.ingest(
        [
            trig(FaultClass.COMPONENT_INTERNAL, fru, confidence=0.9),
            trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.3),
        ]
    )
    detail = clf.verdicts()[0].detail
    assert detail.startswith("component-internal")
    assert "component-external" in detail


def test_secondary_verdict_for_strong_independent_evidence():
    """A component carrying two faults (say EMI victim + bad connector)
    receives a verdict for each class when both have strong evidence."""
    clf = Classifier()
    fru = component_fru("c1")
    clf.ingest(
        [
            trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.9),
            trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.9),
            trig(FaultClass.COMPONENT_BORDERLINE, fru, confidence=0.8),
            trig(FaultClass.COMPONENT_BORDERLINE, fru, confidence=0.8),
        ]
    )
    classes = {v.fault_class for v in clf.verdicts() if v.fru == fru}
    assert classes == {
        FaultClass.COMPONENT_EXTERNAL,
        FaultClass.COMPONENT_BORDERLINE,
    }


def test_weak_runner_up_not_emitted():
    clf = Classifier()
    fru = component_fru("c1")
    clf.ingest(
        [
            trig(FaultClass.COMPONENT_INTERNAL, fru, confidence=0.9),
            trig(FaultClass.COMPONENT_EXTERNAL, fru, confidence=0.3),
        ]
    )
    classes = [v.fault_class for v in clf.verdicts() if v.fru == fru]
    assert classes == [FaultClass.COMPONENT_INTERNAL]


def test_clear_forgets_fru():
    clf = Classifier()
    fru = component_fru("c1")
    clf.ingest([trig(FaultClass.COMPONENT_INTERNAL, fru, confidence=0.9)])
    for i in range(5):
        clf.observe_component_epoch("c1", failed=True, now_us=i)
    assert clf.verdicts()
    clf.clear(fru)
    assert clf.verdicts() == []
    assert not clf.alpha.count(str(fru)).has_triggered
