"""Unit tests for maintenance-action determination (Fig. 11) and costs."""

from __future__ import annotations

import pytest

from repro.core.classification import Verdict
from repro.core.fault_model import (
    FaultClass,
    Persistence,
    component_fru,
    job_fru,
)
from repro.core.maintenance import (
    ACTION_FOR_CLASS,
    CostModel,
    MaintenanceAction,
    determine_action,
)


def verdict(fault_class, fru=None):
    fru = fru or (
        component_fru("c1")
        if fault_class.is_component_level or fault_class is FaultClass.JOB_EXTERNAL
        else job_fru("j1")
    )
    return Verdict(
        fru=fru,
        fault_class=fault_class,
        confidence=0.9,
        evidence=3,
        persistence=Persistence.INTERMITTENT,
    )


def test_fig11_action_table():
    cases = {
        FaultClass.COMPONENT_EXTERNAL: MaintenanceAction.NO_ACTION,
        FaultClass.COMPONENT_BORDERLINE: MaintenanceAction.INSPECT_CONNECTOR,
        FaultClass.COMPONENT_INTERNAL: MaintenanceAction.REPLACE_COMPONENT,
        FaultClass.JOB_EXTERNAL: MaintenanceAction.REPLACE_COMPONENT,
        FaultClass.JOB_BORDERLINE: MaintenanceAction.UPDATE_CONFIGURATION,
        FaultClass.JOB_INHERENT_TRANSDUCER: MaintenanceAction.INSPECT_TRANSDUCER,
    }
    for fault_class, expected in cases.items():
        rec = determine_action(verdict(fault_class))
        assert rec.action is expected, fault_class


def test_software_action_depends_on_update_availability():
    v = verdict(FaultClass.JOB_INHERENT_SOFTWARE)
    assert (
        determine_action(v, software_update_available=False).action
        is MaintenanceAction.FORWARD_TO_OEM
    )
    assert (
        determine_action(v, software_update_available=True).action
        is MaintenanceAction.UPDATE_SOFTWARE
    )


def test_action_table_covers_all_non_software_classes():
    for fc in FaultClass:
        if fc is FaultClass.JOB_INHERENT_SOFTWARE:
            assert fc not in ACTION_FOR_CLASS
        else:
            assert fc in ACTION_FOR_CLASS


def test_removes_fru_flag():
    assert determine_action(verdict(FaultClass.COMPONENT_INTERNAL)).removes_fru
    assert not determine_action(verdict(FaultClass.COMPONENT_EXTERNAL)).removes_fru
    assert not determine_action(verdict(FaultClass.JOB_BORDERLINE)).removes_fru


def test_cost_model_counts_nff():
    model = CostModel(removal_cost_usd=800.0)
    model.record(
        MaintenanceAction.REPLACE_COMPONENT, fault_present_in_removed_fru=True
    )
    model.record(
        MaintenanceAction.REPLACE_COMPONENT, fault_present_in_removed_fru=False
    )
    model.record(MaintenanceAction.NO_ACTION, fault_present_in_removed_fru=False)
    assert model.removals == 2
    assert model.nff_removals == 1
    assert model.nff_ratio == pytest.approx(0.5)
    assert model.wasted_cost_usd == pytest.approx(800.0)


def test_cost_model_zero_removals():
    assert CostModel().nff_ratio == 0.0


def test_savings_vs_baseline():
    good = CostModel()
    bad = CostModel()
    for _ in range(5):
        bad.record(
            MaintenanceAction.REPLACE_COMPONENT, fault_present_in_removed_fru=False
        )
    good.record(
        MaintenanceAction.REPLACE_COMPONENT, fault_present_in_removed_fru=True
    )
    assert good.savings_vs(bad) == pytest.approx(5 * 800.0)


def test_inspect_actions_count_as_removals():
    model = CostModel()
    model.record(
        MaintenanceAction.INSPECT_CONNECTOR, fault_present_in_removed_fru=False
    )
    model.record(
        MaintenanceAction.INSPECT_TRANSDUCER, fault_present_in_removed_fru=True
    )
    assert model.removals == 2
    assert model.nff_removals == 1
