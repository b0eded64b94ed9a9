"""Unit tests for the fault-model taxonomy (Figs. 3-6)."""

from __future__ import annotations

import pytest

from repro.core.fault_model import (
    OVERVIEW_ROWS,
    REPLACEMENT_TARGET,
    ChainLink,
    ChainStage,
    FaultClass,
    FaultDescriptor,
    FaultErrorFailureChain,
    FruKind,
    LaprieBoundary,
    OriginPhase,
    Persistence,
    component_fru,
    job_fru,
)
from repro.errors import ReproError


def test_every_class_has_fru_kind_and_boundary():
    for fc in FaultClass:
        assert isinstance(fc.fru_kind, FruKind)
        assert isinstance(fc.boundary, LaprieBoundary)


def test_component_level_partition():
    component_level = {fc for fc in FaultClass if fc.is_component_level}
    assert component_level == {
        FaultClass.COMPONENT_EXTERNAL,
        FaultClass.COMPONENT_BORDERLINE,
        FaultClass.COMPONENT_INTERNAL,
    }
    for fc in FaultClass:
        assert fc.is_component_level != fc.is_job_level


def test_job_classes_project_to_component_internal():
    """§IV-B.3: job-level classes are refinements of component internals;
    in a federated one-job-per-component system the differentiation is
    obsolete and all collapse to component-internal."""
    for fc in FaultClass:
        if fc.is_job_level:
            assert fc.component_level_view() is FaultClass.COMPONENT_INTERNAL
        else:
            assert fc.component_level_view() is fc


def test_boundary_assignment_matches_paper():
    assert FaultClass.COMPONENT_EXTERNAL.boundary is LaprieBoundary.EXTERNAL
    assert FaultClass.COMPONENT_BORDERLINE.boundary is LaprieBoundary.BORDERLINE
    assert FaultClass.COMPONENT_INTERNAL.boundary is LaprieBoundary.INTERNAL
    assert FaultClass.JOB_EXTERNAL.boundary is LaprieBoundary.EXTERNAL
    assert FaultClass.JOB_BORDERLINE.boundary is LaprieBoundary.BORDERLINE
    assert FaultClass.JOB_INHERENT_SOFTWARE.boundary is LaprieBoundary.INTERNAL
    assert FaultClass.JOB_INHERENT_TRANSDUCER.boundary is LaprieBoundary.INTERNAL


def test_replacement_targets_complete():
    assert set(REPLACEMENT_TARGET) == set(FaultClass)
    # No FRU swap repairs an external fault or a configuration fault.
    assert {fc for fc, kind in REPLACEMENT_TARGET.items() if kind is None} == {
        FaultClass.COMPONENT_EXTERNAL,
        FaultClass.JOB_BORDERLINE,
    }
    assert REPLACEMENT_TARGET[FaultClass.COMPONENT_INTERNAL] is FruKind.COMPONENT
    assert REPLACEMENT_TARGET[FaultClass.JOB_EXTERNAL] is FruKind.COMPONENT
    assert REPLACEMENT_TARGET[FaultClass.JOB_INHERENT_SOFTWARE] is FruKind.JOB


def test_overview_rows_cover_all_classes():
    assert len(OVERVIEW_ROWS) == len(FaultClass)
    classes = {row["class"] for row in OVERVIEW_ROWS}
    assert classes == {fc.value for fc in FaultClass}


def test_fru_refs():
    c = component_fru("comp1")
    j = job_fru("A1")
    assert c.kind is FruKind.COMPONENT and j.kind is FruKind.JOB
    assert str(c) == "component:comp1"
    assert c != j
    assert component_fru("comp1") == c  # value semantics


def test_descriptor_fru_kind_validation():
    with pytest.raises(ReproError):
        FaultDescriptor(
            "F1",
            FaultClass.COMPONENT_INTERNAL,
            Persistence.PERMANENT,
            OriginPhase.OPERATIONAL,
            job_fru("A1"),  # wrong kind
            "pcb-crack",
        )
    # JOB_EXTERNAL may reference either kind.
    FaultDescriptor(
        "F2",
        FaultClass.JOB_EXTERNAL,
        Persistence.TRANSIENT,
        OriginPhase.OPERATIONAL,
        job_fru("A1"),
        "observed-at-job",
    )


def make_chain():
    root = FaultDescriptor(
        "F1",
        FaultClass.COMPONENT_INTERNAL,
        Persistence.TRANSIENT,
        OriginPhase.OPERATIONAL,
        component_fru("comp2"),
        "pcb-crack",
        activation_us=100,
    )
    chain = FaultErrorFailureChain(root)
    chain.extend(ChainLink(ChainStage.FAULT, component_fru("comp2"), 100, "crack active"))
    chain.extend(ChainLink(ChainStage.ERROR, component_fru("comp2"), 150, "memory corrupted"))
    chain.extend(ChainLink(ChainStage.FAILURE, component_fru("comp2"), 200, "frame omitted"))
    chain.extend(ChainLink(ChainStage.FAULT, job_fru("A1"), 200, "input missing"))
    chain.extend(ChainLink(ChainStage.ERROR, job_fru("A1"), 250, "stale state"))
    return chain


def test_chain_traversal_and_reversal():
    chain = make_chain()
    assert [l.stage for l in chain.links][:3] == [
        ChainStage.FAULT,
        ChainStage.ERROR,
        ChainStage.FAILURE,
    ]
    assert chain.reversed_trace()[0].stage is ChainStage.ERROR
    assert chain.affected_frus() == [component_fru("comp2"), job_fru("A1")]
    assert len(chain.failures()) == 1


def test_chain_stops_at_root_fru():
    chain = make_chain()
    assert chain.stops_at() == component_fru("comp2")


def test_chain_rejects_time_regression():
    chain = make_chain()
    with pytest.raises(ReproError):
        chain.extend(ChainLink(ChainStage.ERROR, job_fru("A1"), 0, "too early"))
