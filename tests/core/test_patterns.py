"""Unit tests for fault patterns and signature measurement (Fig. 8)."""

from __future__ import annotations

import pytest

from repro.core.fault_model import FaultClass
from repro.core.patterns import (
    CONNECTOR_PATTERN,
    FIG8_PATTERNS,
    MASSIVE_TRANSIENT_PATTERN,
    WEAROUT_PATTERN,
    classify_signature,
    compress_episodes,
    hub_component,
    measure_signature,
)
from repro.core.symptoms import SymptomType

from tests.core.factory import sym


def test_fig8_pattern_table_complete():
    assert len(FIG8_PATTERNS) == 3
    assert WEAROUT_PATTERN.indicates is FaultClass.COMPONENT_INTERNAL
    assert MASSIVE_TRANSIENT_PATTERN.indicates is FaultClass.COMPONENT_EXTERNAL
    assert CONNECTOR_PATTERN.indicates is FaultClass.COMPONENT_BORDERLINE


def test_empty_signature():
    sig = measure_signature([])
    assert sig.n_symptoms == 0
    assert sig.dominant_type is None
    assert classify_signature(sig) is None


def wearout_symptoms():
    # Episodes at accelerating cadence on one component.
    points = [0, 100, 180, 240, 280, 300, 310, 315]
    return [sym(point=p, subject="comp2") for p in points]


def massive_symptoms():
    return [
        sym(type=SymptomType.CRC_ERROR, subject=f"comp{i}", point=500, magnitude=4)
        for i in (1, 2, 3)
    ] + [
        sym(type=SymptomType.CRC_ERROR, subject="comp1", point=501, magnitude=3)
    ]


def connector_symptoms():
    return [
        sym(
            type=SymptomType.CHANNEL_OMISSION,
            subject="comp3",
            point=p,
            channel=0,
            observer=f"comp{1 + (p % 2)}",
        )
        for p in (10, 220, 430, 610, 800)
    ]


def test_wearout_signature_measured():
    sig = measure_signature(wearout_symptoms())
    assert sig.n_components == 1
    assert sig.frequency_trend > 1.5
    assert classify_signature(sig) is WEAROUT_PATTERN


def test_massive_transient_signature_measured():
    sig = measure_signature(massive_symptoms())
    assert sig.n_components == 3
    assert sig.simultaneity >= 0.6
    assert sig.dominant_type is SymptomType.CRC_ERROR
    assert sig.mean_magnitude > 1.0
    assert classify_signature(sig) is MASSIVE_TRANSIENT_PATTERN


def test_connector_signature_measured():
    sig = measure_signature(connector_symptoms())
    assert sig.n_components == 1
    assert sig.n_channels == 1
    assert classify_signature(sig) is CONNECTOR_PATTERN


def test_value_trend_detects_drift():
    symptoms = [
        sym(
            type=SymptomType.VALUE_MARGINAL,
            subject="comp2",
            job="C1",
            point=p,
            magnitude=float(p) / 100.0,
        )
        for p in range(0, 500, 50)
    ]
    sig = measure_signature(symptoms)
    assert sig.value_trend > 0.9


def test_single_point_signature_degenerate():
    sig = measure_signature([sym(point=5), sym(point=5, subject="comp2")])
    assert sig.lattice_spread == 0
    assert sig.simultaneity == 1.0
    assert sig.frequency_trend == 1.0


# -- episode compression and hub involvement -----------------------------------


def test_compress_episodes_merges_adjacent_points():
    symptoms = [sym(point=p, subject="comp2") for p in (1, 2, 3, 10, 11, 30)]
    compressed = compress_episodes(symptoms)
    assert [s.lattice_point for s in compressed] == [1, 10, 30]


def test_compress_episodes_gap_parameter():
    # Outage points spaced by the component's round period (5).
    symptoms = [sym(point=p, subject="comp2") for p in (0, 5, 10, 100, 105)]
    assert len(compress_episodes(symptoms, gap_points=1)) == 5
    assert [s.lattice_point for s in compress_episodes(symptoms, gap_points=5)] == [0, 100]


def test_compress_episodes_streams_independent():
    symptoms = [
        sym(point=1, subject="comp1"),
        sym(point=2, subject="comp2"),
        sym(point=2, subject="comp1", type=SymptomType.CRC_ERROR),
    ]
    assert len(compress_episodes(symptoms)) == 3


def test_hub_component_full_involvement():
    symptoms = [
        sym(type=SymptomType.CHANNEL_OMISSION, subject="comp3", observer="comp1", point=1, channel=0),
        sym(type=SymptomType.CHANNEL_OMISSION, subject="comp2", observer="comp3", point=2, channel=0),
    ]
    hub, share = hub_component(symptoms)
    assert hub == "comp3"
    assert share == 1.0


def test_hub_component_empty():
    assert hub_component([]) == (None, 0.0)
