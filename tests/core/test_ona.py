"""Unit tests for each Out-of-Norm Assertion on hand-built windows."""

from __future__ import annotations

import pytest

from repro.core.fault_model import FaultClass
from repro.core.ona import (
    ConfigurationOna,
    ConnectorOna,
    CorrelatedJobFailureOna,
    IsolatedTransientOna,
    MassiveTransientOna,
    SingleJobOna,
    TimingOna,
    WearoutOna,
    default_onas,
)
from repro.core.symptoms import SymptomType

from tests.core.factory import ctx, sym


# -- MassiveTransientOna -------------------------------------------------------


def test_massive_transient_fires_on_close_simultaneous_corruption():
    window = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp2", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp3", point=101),
    ]
    triggers = MassiveTransientOna(radius=5.0).evaluate(ctx(window))
    assert {t.subject.name for t in triggers} == {"comp1", "comp2", "comp3"}
    assert all(t.fault_class is FaultClass.COMPONENT_EXTERNAL for t in triggers)


def test_massive_transient_needs_min_components():
    window = [sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100)]
    assert MassiveTransientOna().evaluate(ctx(window)) == []


def test_massive_transient_requires_simultaneity():
    window = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp2", point=200),
    ]
    assert MassiveTransientOna(delta_points=1).evaluate(ctx(window)) == []


def test_massive_transient_requires_spatial_proximity():
    window = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp5", point=100),
    ]
    assert MassiveTransientOna(radius=1.5).evaluate(ctx(window)) == []


def test_massive_transient_fires_once_per_evidence():
    ona = MassiveTransientOna()
    window = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp2", point=100),
    ]
    assert len(ona.evaluate(ctx(window))) == 2
    assert ona.evaluate(ctx(window)) == []  # same window: no re-fire


def test_massive_transient_ignores_job_level_symptoms():
    window = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=1, job="A1"),
        sym(type=SymptomType.CRC_ERROR, subject="comp2", point=1, job="C1"),
    ]
    assert MassiveTransientOna().evaluate(ctx(window)) == []


# -- ConnectorOna ---------------------------------------------------------------


def chan(subject, observer, point, channel=0):
    return sym(
        type=SymptomType.CHANNEL_OMISSION,
        subject=subject,
        observer=observer,
        point=point,
        channel=channel,
    )


def test_connector_tx_side_attribution():
    window = [chan("comp3", f"comp{1 + i % 2}", p) for i, p in enumerate((1, 50, 90, 200))]
    triggers = ConnectorOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "comp3"
    assert triggers[0].fault_class is FaultClass.COMPONENT_BORDERLINE
    assert "tx" in triggers[0].detail


def test_connector_rx_side_attribution():
    window = [chan(f"comp{1 + i % 2}", "comp4", p) for i, p in enumerate((1, 50, 90, 200))]
    triggers = ConnectorOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "comp4"
    assert "rx" in triggers[0].detail


def test_connector_hub_attribution_mixed_directions():
    # comp3 involved in every symptom, both as subject and observer.
    window = (
        [chan("comp3", f"comp{i}", p) for i, p in zip((1, 2, 4), (1, 2, 3))]
        + [chan(f"comp{i}", "comp3", p) for i, p in zip((1, 2, 4), (10, 11, 12))]
    )
    triggers = ConnectorOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "comp3"


def test_connector_loom_attribution():
    # All pairings affected: no hub.
    pairs = [("comp1", "comp2"), ("comp2", "comp3"), ("comp3", "comp4"),
             ("comp4", "comp5"), ("comp5", "comp1"), ("comp1", "comp4")]
    window = [chan(s, o, p) for p, (s, o) in enumerate(pairs)]
    triggers = ConnectorOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "loom-channel-0"
    assert "wiring" in triggers[0].detail


def test_connector_channels_independent():
    window = [chan("comp3", "comp1", p, channel=0) for p in (1, 2, 3)] + [
        chan("comp2", "comp1", p, channel=1) for p in (1, 2, 3)
    ]
    triggers = ConnectorOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 2
    assert {t.subject.name for t in triggers} == {"comp3", "comp2"}


def test_connector_below_min_events_silent():
    window = [chan("comp3", "comp1", 1), chan("comp3", "comp2", 2)]
    assert ConnectorOna(min_events=3).evaluate(ctx(window)) == []


# -- WearoutOna -----------------------------------------------------------------


def test_wearout_fires_on_rising_episode_frequency():
    points = [0, 300, 500, 620, 700, 750, 780, 800]
    window = [sym(point=p, subject="comp2") for p in points]
    triggers = WearoutOna(min_episodes=6, trend_factor=2.0).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "comp2"
    assert triggers[0].fault_class is FaultClass.COMPONENT_INTERNAL


def test_wearout_ignores_constant_rate():
    window = [sym(point=p, subject="comp2") for p in range(0, 800, 100)]
    assert WearoutOna(min_episodes=6, trend_factor=2.0).evaluate(ctx(window)) == []


def test_wearout_merges_consecutive_points_into_episodes():
    # One long outage (consecutive points) is a single episode.
    window = [sym(point=p, subject="comp2") for p in range(100, 120)]
    assert WearoutOna(min_episodes=2).evaluate(ctx(window)) == []


def test_wearout_refires_as_evidence_grows():
    ona = WearoutOna(min_episodes=4, trend_factor=1.5)
    points = [0, 400, 600, 700]
    w1 = [sym(point=p, subject="comp2") for p in points]
    assert len(ona.evaluate(ctx(w1))) == 1
    assert ona.evaluate(ctx(w1)) == []
    w2 = w1 + [sym(point=750, subject="comp2")]
    assert len(ona.evaluate(ctx(w2))) == 1


# -- CorrelatedJobFailureOna ---------------------------------------------------


def test_correlated_jobs_across_dases_indicate_component_internal():
    window = [
        sym(type=SymptomType.OMISSION, subject="comp2", job="A3", point=100),
        sym(type=SymptomType.OMISSION, subject="comp2", job="C1", point=100),
        sym(type=SymptomType.REPLICA_DEVIATION, subject="comp2", job="S2", point=101),
    ]
    triggers = CorrelatedJobFailureOna().evaluate(ctx(window))
    assert len(triggers) >= 1
    assert triggers[0].subject.name == "comp2"
    assert triggers[0].fault_class is FaultClass.COMPONENT_INTERNAL


def test_jobs_of_same_das_do_not_correlate():
    window = [
        sym(type=SymptomType.OMISSION, subject="comp2", job="C1", point=100),
        sym(type=SymptomType.OMISSION, subject="comp2", job="C2", point=100),
    ]
    assert CorrelatedJobFailureOna(min_dases=2).evaluate(ctx(window)) == []


def test_jobs_on_different_components_do_not_correlate():
    window = [
        sym(type=SymptomType.OMISSION, subject="comp1", job="A1", point=100),
        sym(type=SymptomType.OMISSION, subject="comp3", job="B2", point=100),
    ]
    assert CorrelatedJobFailureOna().evaluate(ctx(window)) == []


# -- SingleJobOna -----------------------------------------------------------------


def test_single_job_value_violations_software():
    window = [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp3", job="A2", point=p)
        for p in (1, 2, 3)
    ]
    triggers = SingleJobOna(min_events=2).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "A2"
    assert triggers[0].fault_class is FaultClass.JOB_INHERENT_SOFTWARE


def test_single_job_with_sensor_flag_is_transducer():
    window = [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=1),
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=2),
        sym(type=SymptomType.SENSOR_IMPLAUSIBLE, subject="comp2", job="C1", point=2),
    ]
    triggers = SingleJobOna(min_events=2).evaluate(ctx(window))
    assert triggers[0].fault_class is FaultClass.JOB_INHERENT_TRANSDUCER


def test_sensor_implausibility_alone_sufficient():
    window = [
        sym(type=SymptomType.SENSOR_IMPLAUSIBLE, subject="comp2", job="C1", point=p)
        for p in (1, 2, 3)
    ]
    triggers = SingleJobOna(min_events=2).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].fault_class is FaultClass.JOB_INHERENT_TRANSDUCER


def test_single_job_suppressed_by_component_failure_evidence():
    window = [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=p)
        for p in (1, 2)
    ] + [sym(type=SymptomType.OMISSION, subject="comp2", point=1)]
    assert SingleJobOna(min_events=2).evaluate(ctx(window)) == []


def test_single_job_suppressed_by_sibling_job_failures():
    window = [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=p)
        for p in (1, 2)
    ] + [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="A3", point=p)
        for p in (1, 2)
    ]
    assert SingleJobOna(min_events=2).evaluate(ctx(window)) == []


def test_single_job_omissions_with_budget_explanation_suppressed():
    window = [
        sym(type=SymptomType.OMISSION, subject="comp2", job="C2", point=p)
        for p in (1, 2, 3)
    ] + [
        sym(type=SymptomType.VN_BUDGET_OVERFLOW, subject="comp2", job="C1", point=2)
    ]
    assert SingleJobOna(min_events=2).evaluate(ctx(window)) == []


# -- IsolatedTransientOna --------------------------------------------------------


def test_isolated_transient_after_quiet_period():
    window = [sym(type=SymptomType.CRC_ERROR, subject="comp3", point=100)]
    triggers = IsolatedTransientOna(quiet_points=50).evaluate(
        ctx(window, now_point=200)
    )
    assert len(triggers) == 1
    assert triggers[0].fault_class is FaultClass.COMPONENT_EXTERNAL
    assert triggers[0].subject.name == "comp3"


def test_isolated_transient_waits_for_quiet():
    window = [sym(type=SymptomType.CRC_ERROR, subject="comp3", point=100)]
    assert (
        IsolatedTransientOna(quiet_points=50).evaluate(ctx(window, now_point=120))
        == []
    )


def test_recurring_failures_not_isolated():
    window = [
        sym(type=SymptomType.OMISSION, subject="comp3", point=p)
        for p in (100, 300, 500)
    ]
    assert (
        IsolatedTransientOna(quiet_points=50).evaluate(ctx(window, now_point=900))
        == []
    )


# -- ConfigurationOna -------------------------------------------------------------


def test_configuration_fires_on_overflows():
    window = [
        sym(type=SymptomType.QUEUE_OVERFLOW, subject="comp2", job="A3", point=p)
        for p in (1, 2, 3)
    ]
    triggers = ConfigurationOna(min_events=2).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "A3"
    assert triggers[0].fault_class is FaultClass.JOB_BORDERLINE


def test_configuration_suppressed_when_producer_violates_spec():
    window = [
        sym(type=SymptomType.QUEUE_OVERFLOW, subject="comp2", job="A3", point=p)
        for p in (1, 2)
    ] + [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="A3", point=1)
    ]
    assert ConfigurationOna(min_events=2).evaluate(ctx(window)) == []


# -- TimingOna ---------------------------------------------------------------------


def test_timing_fires_on_persistent_violations():
    window = [
        sym(type=SymptomType.TIMING_VIOLATION, subject="comp1", point=p, magnitude=80.0)
        for p in (1, 2, 3)
    ]
    triggers = TimingOna(min_events=3).evaluate(ctx(window))
    assert len(triggers) == 1
    assert triggers[0].subject.name == "comp1"
    assert triggers[0].fault_class is FaultClass.COMPONENT_INTERNAL


def test_timing_counts_guardian_blocks():
    window = [
        sym(type=SymptomType.GUARDIAN_BLOCK, subject="comp4", point=p)
        for p in (1, 2, 3)
    ]
    assert len(TimingOna(min_events=3).evaluate(ctx(window))) == 1


# -- battery ------------------------------------------------------------------------


def test_default_battery_composition():
    names = {type(o).__name__ for o in default_onas()}
    assert names == {
        "MassiveTransientOna",
        "ConnectorOna",
        "WearoutOna",
        "CorrelatedJobFailureOna",
        "SingleJobOna",
        "IsolatedTransientOna",
        "ConfigurationOna",
        "TimingOna",
    }


def test_empty_window_fires_nothing():
    for ona in default_onas():
        assert ona.evaluate(ctx([])) == []


def test_massive_transient_requires_burst_coherence():
    """A continuously dead component plus a coincidental single-point
    victim must NOT be grouped into an external burst (their failure
    spans differ wildly)."""
    dead = [
        sym(type=SymptomType.OMISSION, subject="comp2", point=p)
        for p in range(100, 400)
    ]
    victim = [sym(type=SymptomType.OMISSION, subject="comp3", point=250)]
    ona = MassiveTransientOna(coherence_points=50)
    assert ona.evaluate(ctx(dead + victim)) == []


# -- neighbourhood boundaries ---------------------------------------------------
#
# The proximity queries are range lookups over lattice points; these pin
# that "within delta" / "within hw_proximity_points" is inclusive on both
# sides and nothing further.


@pytest.mark.parametrize("delta", [0, 1, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beyond, fires", [(0, True), (1, False)])
def test_correlated_widening_stops_at_delta(delta, sign, beyond, fires):
    other = 100 + sign * (delta + beyond)
    window = [
        sym(type=SymptomType.OMISSION, subject="comp2", job="A3", point=100),
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=other),
    ]
    triggers = CorrelatedJobFailureOna(delta_points=delta).evaluate(ctx(window))
    if fires:
        # Each point widens onto the other, so both fire (one shared point
        # when delta is 0), with the A and C jobs jointly.
        assert [t.detail for t in triggers] == [
            "jobs ['A3', 'C1'] of DASs ['A', 'C'] failed together"
        ] * (1 if delta == 0 else 2)
    else:
        assert triggers == []


@pytest.mark.parametrize("delta", [0, 1, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beyond, fires", [(0, True), (1, False)])
def test_massive_transient_widening_stops_at_delta(delta, sign, beyond, fires):
    other = 100 + sign * (delta + beyond)
    burst = [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=100),
        sym(type=SymptomType.CRC_ERROR, subject="comp2", point=other),
    ]
    triggers = MassiveTransientOna(delta_points=delta).evaluate(ctx(burst))
    if fires:
        assert {(t.subject.name, t.evidence) for t in triggers} == {
            ("comp1", 2),
            ("comp2", 2),
        }
    else:
        assert triggers == []


@pytest.mark.parametrize("prox", [0, 1, 20])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beyond, suppressed", [(0, True), (1, False)])
def test_single_job_suppression_reaches_exactly_hw_proximity(
    prox, sign, beyond, suppressed
):
    window = [
        sym(type=SymptomType.VALUE_VIOLATION, subject="comp2", job="C1", point=100),
        sym(type=SymptomType.REPLICA_DEVIATION, subject="comp2", job="C1", point=100),
        sym(type=SymptomType.OMISSION, subject="comp2", point=100 + sign * (prox + beyond)),
    ]
    triggers = SingleJobOna(min_events=2, hw_proximity_points=prox).evaluate(
        ctx(window)
    )
    if suppressed:
        assert triggers == []
    else:
        assert [t.subject.name for t in triggers] == ["C1"]


def test_massive_transient_coherent_burst_still_fires():
    burst = [
        sym(type=SymptomType.CRC_ERROR, subject=s, point=p)
        for s in ("comp1", "comp2")
        for p in (100, 101, 102)
    ]
    triggers = MassiveTransientOna(coherence_points=50).evaluate(ctx(burst))
    assert {t.subject.name for t in triggers} == {"comp1", "comp2"}
