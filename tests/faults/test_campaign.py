"""Tests for the stochastic campaign generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diagnosis.diag_das import DiagnosticService
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    DEFAULT_MIX,
    MAX_EXPECTED_FAULTS,
    CampaignReplicaSpec,
    RandomCampaign,
)
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster
from repro.units import seconds


def make_campaign(seed=1, expected=4.0, **kwargs):
    parts = figure10_cluster(seed=seed)
    injector = FaultInjector(parts.cluster)
    campaign = RandomCampaign(
        injector,
        expected_faults=expected,
        horizon_us=seconds(8),
        sensor_jobs=("C1",),
        software_jobs=("A1", "A2", "B1", "C2"),
        config_ports=(("A3", "in"),),
        **kwargs,
    )
    return parts, injector, campaign


def test_default_mix_is_a_distribution():
    assert pytest.approx(sum(DEFAULT_MIX.values())) == 1.0
    assert all(w > 0 for w in DEFAULT_MIX.values())


def test_plan_matches_ledger():
    parts, injector, campaign = make_campaign(seed=2)
    plan = campaign.run(np.random.default_rng(2))
    assert len(plan.events) == len(plan.descriptors)
    assert list(plan.descriptors) == injector.injected


def test_activations_within_window():
    parts, injector, campaign = make_campaign(seed=3, expected=6.0)
    plan = campaign.run(np.random.default_rng(3))
    for _mech, _target, at_us in plan.events:
        assert 0.05 * campaign.horizon_us <= at_us <= 0.8 * campaign.horizon_us


def test_no_component_fru_collisions():
    """Internal/borderline mechanisms never share a target component.

    External mechanisms (EMI) are excluded: their descriptor names one
    representative victim of a regional disturbance, which may overlap —
    scoring handles externals by class, not by FRU.
    """
    from repro.core.fault_model import FaultClass

    parts, injector, campaign = make_campaign(seed=4, expected=10.0)
    plan = campaign.run(np.random.default_rng(4))
    component_targets = [
        d.fru.name
        for d in plan.descriptors
        if d.fru.kind.value == "component"
        and not d.fru.name.startswith("loom-")
        and d.fault_class is not FaultClass.COMPONENT_EXTERNAL
    ]
    assert len(component_targets) == len(set(component_targets))


def test_at_most_one_emi_and_one_wiring():
    parts, injector, campaign = make_campaign(seed=5, expected=20.0)
    plan = campaign.run(np.random.default_rng(5))
    mechanisms = [m for m, _t, _a in plan.events]
    assert mechanisms.count("emi-burst") <= 1
    assert mechanisms.count("wiring") <= 1


def test_reproducible():
    _, _, campaign_a = make_campaign(seed=6)
    plan_a = campaign_a.run(np.random.default_rng(6))
    _, _, campaign_b = make_campaign(seed=6)
    plan_b = campaign_b.run(np.random.default_rng(6))
    assert plan_a.events == plan_b.events


def test_campaign_runs_and_is_diagnosable():
    parts, injector, campaign = make_campaign(seed=7)
    service = DiagnosticService(parts.cluster, collector="comp5")
    plan = campaign.run(np.random.default_rng(7))
    parts.cluster.run(seconds(8))
    if plan.descriptors:
        assert service.detection.symptoms_emitted > 0


def test_replica_spec_accepts_expected_faults_up_to_the_cap():
    assert MAX_EXPECTED_FAULTS == 1000.0
    assert CampaignReplicaSpec(expected_faults=0.0).expected_faults == 0.0
    spec = CampaignReplicaSpec(expected_faults=MAX_EXPECTED_FAULTS)
    assert spec.expected_faults == MAX_EXPECTED_FAULTS


@pytest.mark.parametrize(
    "value", [1000.5, 1001.0, 1e9, float("inf"), float("nan"), -1.0]
)
def test_replica_spec_refuses_expected_faults_outside_the_range(value):
    """The spec refuses what the sampler could not finish (a huge
    Poisson mean) or would fail on, so a doctored ledger or store
    header ends in a message."""
    with pytest.raises(ConfigurationError, match="expected_faults must be"):
        CampaignReplicaSpec(expected_faults=value)
