"""Unit tests for causal provenance: tracker, fold, schema v2."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.fault_model import FaultClass, component_fru
from repro.core.ona import OnaTrigger
from repro.core.symptoms import Symptom, SymptomType
from repro.errors import ConfigurationError
from repro.obs.provenance import (
    STAGE_BY_NAME,
    STAGES,
    ProvenanceTracker,
    fold_stage_latencies,
    histogram_quantile,
)
from repro.obs.tracer import (
    SUPPORTED_SCHEMA_VERSIONS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    read_jsonl,
    trace_digest,
    validate_record,
    validate_trace,
    write_jsonl,
)


def _symptom(
    subject="comp1",
    time_us=100,
    type_=SymptomType.OMISSION,
    job=None,
    channel=None,
    lattice_point=1,
):
    return Symptom(
        type=type_,
        observer="comp9",
        subject_component=subject,
        time_us=time_us,
        lattice_point=lattice_point,
        subject_job=job,
        channel=channel,
    )


# -- tracker ------------------------------------------------------------------


def test_new_id_is_a_deterministic_per_prefix_sequence():
    tracker = ProvenanceTracker()
    assert tracker.new_id("sym") == "sym:1"
    assert tracker.new_id("sym") == "sym:2"
    assert tracker.new_id("ona") == "ona:1"
    assert ProvenanceTracker().new_id("sym") == "sym:1"


def test_fault_parents_respect_activation_time():
    tracker = ProvenanceTracker()
    early = tracker.register_fault("F0001", ["comp1"], 50)
    late = tracker.register_fault("F0002", ["comp1"], 500)
    assert early == "fault:F0001"
    assert tracker.fault_parents(["comp1"], 100) == ("fault:F0001",)
    assert tracker.fault_parents(["comp1"], 600) == (early, late)
    assert tracker.fault_parents(["comp2"], 600) == ()
    assert tracker.fault_parents([None], 600) == ()


def test_symptom_node_is_allocated_once_per_dedup_key():
    tracker = ProvenanceTracker()
    tracker.register_fault("F0001", ["comp1"], 50)
    a = _symptom(time_us=100)
    b = _symptom(time_us=150)  # same key, later re-report
    id_a, parents_a = tracker.symptom_node(a)
    id_b, parents_b = tracker.symptom_node(b)
    assert id_a == id_b == "sym:1"
    assert parents_a == parents_b == ("fault:F0001",)
    assert tracker.symptom_id(a.key()) == "sym:1"
    assert tracker.symptom_id(_symptom(subject="other").key()) is None


def test_symptom_node_links_job_and_channel_subjects():
    tracker = ProvenanceTracker()
    tracker.register_fault("F0001", ["A2"], 0)
    tracker.register_fault("F0002", ["loom-channel-1"], 0)
    sym_id, parents = tracker.symptom_node(
        _symptom(subject="comp3", job="A2", channel=1)
    )
    assert parents == ("fault:F0001", "fault:F0002")


def test_trigger_parents_match_subject_and_respect_time():
    tracker = ProvenanceTracker()
    tracker.register_fault("F0001", ["comp1"], 0)
    early = _symptom(time_us=100)
    late = _symptom(time_us=900, lattice_point=2)
    other = _symptom(subject="comp2", time_us=100)
    for s in (early, late, other):
        tracker.symptom_node(s)
    trigger = OnaTrigger(
        ona="crash",
        fault_class=FaultClass.COMPONENT_INTERNAL,
        subject=component_fru("comp1"),
        time_us=500,
        confidence=0.9,
        evidence=3,
    )
    parents = tracker.trigger_parents(trigger, [early, late, other])
    # late (after the trigger) and other (wrong subject) are excluded.
    assert parents == (tracker.symptom_id(early.key()),)


def test_trigger_parents_resolve_loom_channel_pseudo_subject():
    from repro.core.fault_model import FruKind, FruRef

    tracker = ProvenanceTracker()
    on_channel = _symptom(channel=1, time_us=100)
    tracker.symptom_node(on_channel)
    trigger = OnaTrigger(
        ona="wiring",
        fault_class=FaultClass.COMPONENT_BORDERLINE,
        subject=FruRef(FruKind.COMPONENT, "loom-channel-1"),
        time_us=500,
        confidence=0.9,
        evidence=1,
    )
    assert tracker.trigger_parents(trigger, [on_channel]) == (
        tracker.symptom_id(on_channel.key()),
    )


def test_evidence_ledgers_deduplicate_and_cap():
    tracker = ProvenanceTracker()
    tracker.add_evidence("component:comp1", "ona:1")
    tracker.add_evidence("component:comp1", "ona:1")
    tracker.add_evidence("component:comp1", "alpha:1")
    assert tracker.evidence("component:comp1") == ("ona:1", "alpha:1")
    assert tracker.evidence("component:none") == ()
    for i in range(40):
        tracker.add_alpha_evidence("component:comp1", f"sym:{i}")
    kept = tracker.alpha_evidence("component:comp1")
    assert len(kept) == ProvenanceTracker.MAX_PARENTS
    assert kept[-1] == "sym:39"


# -- stage-latency fold -------------------------------------------------------


def _chain_records():
    """A hand-built two-fault trace: one full chain, one symptom-only."""
    return [
        {"kind": "meta", "schema": 2, "name": "trace.header", "attrs": {}},
        {
            "kind": "event",
            "name": "fault.injected",
            "t_sim_us": 100,
            "cause_id": "fault:F0001",
            "attrs": {"cls": "component-internal"},
        },
        {
            "kind": "event",
            "name": "detector.symptom",
            "t_sim_us": 300,
            "cause_id": "sym:1",
            "parents": ["fault:F0001"],
            "attrs": {},
        },
        {
            # Re-report of the same node at a later time: fold keeps 300.
            "kind": "event",
            "name": "detector.symptom",
            "t_sim_us": 800,
            "cause_id": "sym:1",
            "parents": ["fault:F0001"],
            "attrs": {},
        },
        {
            "kind": "event",
            "name": "ona.trigger",
            "t_sim_us": 1_300,
            "cause_id": "ona:1",
            "parents": ["sym:1"],
            "attrs": {},
        },
        {
            "kind": "event",
            "name": "maintenance.recommendation",
            "t_sim_us": None,
            "cause_id": "maint:1",
            "parents": ["ona:1"],
            "attrs": {},
        },
        {
            "kind": "event",
            "name": "fault.injected",
            "t_sim_us": 500,
            "cause_id": "fault:F0002",
            "attrs": {"cls": "seu"},
        },
        {
            "kind": "event",
            "name": "detector.symptom",
            "t_sim_us": 600,
            "cause_id": "sym:2",
            "parents": ["fault:F0002"],
            "attrs": {},
        },
    ]


def test_fold_stage_latencies_observes_deltas_and_terminals():
    counters = obs.CounterRegistry()
    fold_stage_latencies(_chain_records(), counters)
    snap = counters.snapshot()
    hists = snap["histograms"]
    key = "provenance.stage_latency_us{cls=component-internal,stage=fault->symptom}"
    assert hists[key]["sum"] == 200  # earliest re-report wins: 300 - 100
    key = "provenance.stage_latency_us{cls=component-internal,stage=symptom->ona}"
    assert hists[key]["sum"] == 1_000
    chains = snap["counters"]
    # The untimed maintenance leaf still counts as the terminal stage.
    assert (
        chains["provenance.chains{cls=component-internal,terminal=maintenance}"]
        == 1
    )
    assert chains["provenance.chains{cls=seu,terminal=symptom}"] == 1


def test_fold_accepts_trace_dicts_and_the_causal_log():
    tracer = Tracer()
    tracer.causal_event(
        "fault.injected", 100, "fault:F0001", (), cls="seu", fault_id="F0001"
    )
    tracer.causal_event("detector.symptom", 250, "sym:1", ("fault:F0001",))
    counters = obs.CounterRegistry()
    fold_stage_latencies(tracer.record_dicts(), counters)
    snap = counters.snapshot()
    key = "provenance.stage_latency_us{cls=seu,stage=fault->symptom}"
    assert snap["histograms"][key]["sum"] == 150
    # Same result from the compact causal log the replicas fold.
    log_counters = obs.CounterRegistry()
    fold_stage_latencies(tracer.causal_log, log_counters)
    assert log_counters.snapshot() == snap


# -- one walk, three readers --------------------------------------------------

#: A small provenance campaign: 18 faults over 6 replicas at seed 11.
CAMPAIGN = dict(replicas=6, root_seed=11)


def _provenance_campaign(trace: bool):
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns
    from repro.units import ms

    spec = CampaignReplicaSpec(
        horizon_us=ms(600),
        obs_enabled=trace,
        obs_trace=trace,
        obs_provenance=True,
    )
    return run_random_campaigns(spec=spec, **CAMPAIGN)


def _provenance_state(snapshot):
    """The ``provenance.*`` counters and histograms of a snapshot."""
    return {
        kind: {
            key: value
            for key, value in snapshot[kind].items()
            if key.startswith("provenance.")
        }
        for kind in ("counters", "histograms")
    }


@pytest.fixture(scope="module")
def traced_campaign():
    return _provenance_campaign(trace=True)


def test_fold_only_replicas_fold_what_traced_replicas_fold(traced_campaign):
    """Without ``--trace`` a replica reads its symptom and dissemination
    nodes from the tracker's ledgers; the folded state is the same."""
    fold_only = _provenance_campaign(trace=False)
    assert fold_only.value.plan_digest == traced_campaign.value.plan_digest
    traced = _provenance_state(traced_campaign.value.obs_counters)
    assert sum(traced["counters"].values()) == 18
    assert _provenance_state(fold_only.value.obs_counters) == traced


def test_explain_chains_equal_the_replicas_fold(traced_campaign):
    """Re-folding explain's chains (deltas clamped at 0, terminals)
    gives the ``provenance.*`` state the replicas shipped."""
    from repro.obs.explain import explain

    records = [
        record
        for result in traced_campaign.results
        for record in result.value.obs_trace
    ]
    chains = explain(records)["chains"]
    assert len(chains) == 18
    refold = obs.CounterRegistry()
    for chain in chains:
        for stage, delta in chain["stage_latency_us"].items():
            refold.observe(
                "provenance.stage_latency_us",
                max(0, delta),
                cls=chain["cls"],
                stage=stage,
            )
        refold.inc(
            "provenance.chains", cls=chain["cls"], terminal=chain["terminal"]
        )
    assert _provenance_state(refold.snapshot()) == _provenance_state(
        traced_campaign.value.obs_counters
    )


def test_histogram_quantile_returns_clamped_bucket_edges():
    counters = obs.CounterRegistry()
    for value in (1, 2, 3, 100):
        counters.observe("lat", value)
    hist = counters.snapshot()["histograms"]["lat"]
    # Median of (1, 2, 3, 100) falls in bucket [2, 4) -> upper edge 4.
    assert histogram_quantile(hist, 0.5) == 4.0
    assert histogram_quantile(hist, 1.0) == 100.0  # clamped to max
    assert histogram_quantile({"count": 0}, 0.5) == 0.0


def test_stage_tables_agree():
    assert set(STAGE_BY_NAME.values()) == set(STAGES)


# -- schema v2 ----------------------------------------------------------------


def test_causal_event_roundtrips_losslessly(tmp_path):
    tracer = Tracer()
    tracer.meta(run="x")
    tracer.causal_event(
        "fault.injected", 10, "fault:F0001", (), fault_id="F0001"
    )
    tracer.causal_event("detector.symptom", 20, "sym:1", ("fault:F0001",))
    tracer.event("assessment.epoch", t_sim_us=30)  # no lineage
    path = write_jsonl(tmp_path / "t.jsonl", tracer.record_dicts())
    records = read_jsonl(path)
    validate_trace(records)
    assert records[0]["schema"] == TRACE_SCHEMA_VERSION == 2
    assert records[1]["cause_id"] == "fault:F0001"
    assert "parents" not in records[1]  # empty parent list is elided
    assert records[2]["parents"] == ["fault:F0001"]
    assert "cause_id" not in records[3]
    # JSONL -> dicts -> JSONL is byte-stable.
    second = write_jsonl(tmp_path / "t2.jsonl", records)
    assert second.read_text() == path.read_text()
    assert trace_digest(records) == trace_digest(tracer.record_dicts())


def test_v1_meta_headers_still_validate():
    assert SUPPORTED_SCHEMA_VERSIONS == (1, 2)
    v1 = {"kind": "meta", "schema": 1, "name": "trace.header", "attrs": {}}
    assert validate_record(v1) == []
    v9 = dict(v1, schema=9)
    assert any("schema" in e for e in validate_record(v9))


def test_validate_record_rejects_malformed_lineage():
    base = {
        "kind": "event",
        "name": "x",
        "seq": 0,
        "t_sim_us": 1,
        "t_wall_s": 0.0,
        "attrs": {},
    }
    assert validate_record(dict(base, cause_id="a:1")) == []
    assert validate_record(dict(base, cause_id="a:1", parents=["b:1"])) == []
    assert any(
        "cause_id" in e for e in validate_record(dict(base, cause_id=""))
    )
    assert any(
        "cause_id" in e for e in validate_record(dict(base, cause_id=7))
    )
    assert any(
        "parents" in e
        for e in validate_record(dict(base, cause_id="a:1", parents=[""]))
    )
    assert any(
        "parents" in e for e in validate_record(dict(base, parents=["b:1"]))
    )


def test_lineage_does_not_perturb_the_trace_digest():
    plain, causal = Tracer(), Tracer()
    plain.event("detector.symptom", t_sim_us=5, type="omission")
    causal.causal_event(
        "detector.symptom", 5, "sym:1", ("fault:F0001",), type="omission"
    )
    assert trace_digest(plain.record_dicts()) == trace_digest(
        causal.record_dicts()
    )


def test_observability_provenance_wiring():
    o = obs.Observability(provenance=True)
    assert o.provenance is not None
    assert o.tracer.enabled  # lineage needs records, even without --trace
    assert obs.Observability().provenance is None
    assert obs.DISABLED.provenance is None


def test_disabled_tracer_ignores_causal_events():
    tracer = Tracer(enabled=False)
    tracer.causal_event("x", 1, "a:1", ())
    assert tracer.records == []
