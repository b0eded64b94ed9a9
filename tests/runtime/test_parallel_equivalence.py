"""Serial-equivalence guarantees of the parallel runtime.

The contract under test: for the same root seed, any worker count
produces **bit-identical** aggregates — and a different root seed
produces a genuinely different campaign.  These tests spawn real worker
processes, so they are the slowest in the suite; the workloads are kept
small (sub-second horizons) to bound the cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fleet_sim import simulate_diagnosed_fleet
from repro.analysis.scenarios import CATALOGUE, run_campaign
from repro.errors import AnalysisError
from repro.faults.campaign import CampaignReplicaSpec
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.units import ms

SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(400))


def test_campaign_workers_1_vs_4_identical():
    """The ISSUE acceptance case: workers=4 == workers=1, bit for bit."""
    serial = run_random_campaigns(6, root_seed=11, spec=SPEC, options=RunOptions(workers=1))
    parallel = run_random_campaigns(6, root_seed=11, spec=SPEC, options=RunOptions(workers=4))
    assert serial.value == parallel.value  # full CampaignSummary equality
    assert parallel.metrics.workers == 4
    assert len(parallel.metrics.worker_busy_s) >= 2


def test_campaign_obs_counters_aggregate_identically_across_workers():
    """The obs acceptance case: merged counters match workers=1 exactly,
    and replica trace records survive the reduce with their tags."""
    spec = CampaignReplicaSpec(
        expected_faults=3.0,
        horizon_us=ms(400),
        obs_enabled=True,
        obs_trace=True,
    )
    serial = run_random_campaigns(6, root_seed=11, spec=spec, options=RunOptions(workers=1))
    parallel = run_random_campaigns(6, root_seed=11, spec=spec, options=RunOptions(workers=4))
    assert serial.value.obs_counters is not None
    assert serial.value.obs_counters == parallel.value.obs_counters
    assert serial.value == parallel.value
    # Enabling obs must not perturb the campaign itself.
    baseline = run_random_campaigns(6, root_seed=11, spec=SPEC, options=RunOptions(workers=1))
    assert baseline.value.plan_digest == serial.value.plan_digest
    assert baseline.value.events_simulated == serial.value.events_simulated
    # Replica-tagged trace records come back through the reduce.
    for result in parallel.results:
        assert result.value.obs_trace, "replica returned no trace records"
        assert {
            record["replica"] for record in result.value.obs_trace
        } == {result.index}


def test_campaign_provenance_aggregates_identically_across_workers():
    """The schema-v2 acceptance case: per-stage latency histograms and
    chain-coverage counters merge bit-identically for any worker count."""
    spec = CampaignReplicaSpec(
        expected_faults=3.0,
        horizon_us=ms(400),
        obs_enabled=True,
        obs_provenance=True,
    )
    serial = run_random_campaigns(6, root_seed=11, spec=spec, options=RunOptions(workers=1))
    parallel = run_random_campaigns(6, root_seed=11, spec=spec, options=RunOptions(workers=4))
    counters = serial.value.obs_counters
    assert counters is not None
    assert counters == parallel.value.obs_counters
    assert serial.value == parallel.value
    # The fold actually produced stage-latency and coverage aggregates.
    assert any(
        key.startswith("provenance.stage_latency_us{")
        for key in counters["histograms"]
    )
    chains = {
        key: value
        for key, value in counters["counters"].items()
        if key.startswith("provenance.chains{")
    }
    assert sum(chains.values()) >= 6  # at least one chain per replica
    # Lineage must not perturb the campaign itself.
    baseline = run_random_campaigns(6, root_seed=11, spec=SPEC, options=RunOptions(workers=1))
    assert baseline.value.plan_digest == serial.value.plan_digest
    assert baseline.value.events_simulated == serial.value.events_simulated


def test_campaign_different_root_seed_different_plans():
    a = run_random_campaigns(4, root_seed=1, spec=SPEC, options=RunOptions(workers=1))
    b = run_random_campaigns(4, root_seed=2, spec=SPEC, options=RunOptions(workers=1))
    assert a.value.plan_digest != b.value.plan_digest


def test_campaign_chunking_does_not_change_summary():
    """Chunk layout is an execution detail, not a statistical one."""
    a = run_random_campaigns(
        5, root_seed=4, spec=SPEC, options=RunOptions(chunk_size=1)
    )
    b = run_random_campaigns(
        5, root_seed=4, spec=SPEC, options=RunOptions(chunk_size=5)
    )
    assert a.value == b.value


def test_diagnosed_fleet_workers_equivalence():
    kwargs = dict(
        seed=21, fault_probability=0.7, drive_duration_us=ms(300)
    )
    serial = simulate_diagnosed_fleet(4, **kwargs)
    parallel = simulate_diagnosed_fleet(
        4, options=RunOptions(workers=2), **kwargs
    )
    assert np.array_equal(serial.report.counts, parallel.report.counts)
    assert serial.report.hot_types == parallel.report.hot_types
    assert serial.vehicles_with_fault == parallel.vehicles_with_fault
    assert serial.vehicles_detected == parallel.vehicles_detected
    assert parallel.metrics is not None
    assert parallel.metrics.replicas == 4


def test_catalogue_campaign_workers_equivalence(tmp_path):
    """The pooled runner and the runner at workers=1 (taken because of
    the checkpoint) both reproduce the serial fast path's aggregate."""
    scenarios = CATALOGUE[:3]
    serial = run_campaign(scenarios, seeds=(7,))
    parallel = run_campaign(
        scenarios, seeds=(7,), options=RunOptions(workers=2)
    )
    checkpointed = run_campaign(
        scenarios,
        seeds=(7,),
        options=RunOptions(checkpoint=str(tmp_path / "catalogue.jsonl")),
    )
    for run in (parallel, checkpointed):
        assert serial.score.matrix.rows() == run.score.matrix.rows()
        assert serial.score.matrix.labels() == run.score.matrix.labels()
        assert serial.score.matched == run.score.matched
        assert serial.score.missed == run.score.missed
        assert serial.score.spurious_verdicts == run.score.spurious_verdicts
        assert serial.integrated_cost.removals == run.integrated_cost.removals
        assert (
            serial.integrated_cost.nff_removals
            == run.integrated_cost.nff_removals
        )
        assert serial.integrated_cost.actions == run.integrated_cost.actions
        assert serial.obd_cost.actions == run.obd_cost.actions
        # only the serial fast path keeps the full runs
        assert run.runs == ()
        assert run.metrics is not None
    assert len(serial.runs) == 3
    assert parallel.metrics.workers == 2
    assert checkpointed.metrics.workers == 1


def test_catalogue_campaign_rejects_foreign_scenarios_in_parallel(tmp_path):
    from repro.analysis.scenarios import Scenario
    from repro.core.fault_model import FaultClass

    foreign = Scenario(
        "not-in-catalogue", lambda inj: None, ms(100), FaultClass.COMPONENT_INTERNAL
    )
    with pytest.raises(AnalysisError):
        run_campaign((foreign,), seeds=(1,), options=RunOptions(workers=2))
    with pytest.raises(AnalysisError):
        run_campaign(
            (foreign,),
            seeds=(1,),
            options=RunOptions(checkpoint=str(tmp_path / "foreign.jsonl")),
        )
