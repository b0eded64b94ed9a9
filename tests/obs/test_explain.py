"""Tests for `repro explain`, `obs report` hardening and the exporter."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro import obs
from repro.obs.explain import (
    NO_PROVENANCE_MESSAGE,
    explain,
    has_provenance,
    render_explain,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.provenance import causal_dags
from repro.obs.report import counters_record, render_report
from repro.obs.tracer import Tracer, write_jsonl

GOLDEN_REPORT = Path(__file__).parent.parent / "data" / "golden_obs_report.txt"
GOLDEN_EXPLAIN = Path(__file__).parent.parent / "data" / "golden_explain.json"


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.5
        return self.t


def _causal_records():
    """A deterministic mini-trace with one complete causal chain."""
    tracer = Tracer(clock=FakeClock())
    tracer.meta(command="test", root_seed=7)
    tracer.causal_event(
        "fault.injected",
        100,
        "fault:F0001",
        (),
        fault_id="F0001",
        fru="component:comp2",
        cls="component-internal",
        mechanism="permanent-silent",
    )
    tracer.causal_event(
        "detector.symptom",
        300,
        "sym:1",
        ("fault:F0001",),
        type="OMISSION",
        subject="comp2",
    )
    tracer.causal_event(
        "ona.trigger", 900, "ona:1", ("sym:1",), subject="component:comp2"
    )
    tracer.causal_event(
        "trust.suspicious", 1_200, "trust:1", ("ona:1",), fru="component:comp2"
    )
    tracer.causal_event(
        "maintenance.recommendation",
        None,
        "maint:1",
        ("trust:1",),
        fru="component:comp2",
        action="REPLACE_COMPONENT",
    )
    return tracer.record_dicts()


# -- obs report hardening -----------------------------------------------------


def test_report_empty_file_is_a_message_not_a_traceback(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = render_report(path)
    assert "empty file" in out


def test_read_jsonl_rejects_malformed_lines_with_context(tmp_path):
    import pytest

    from repro.errors import ConfigurationError
    from repro.obs.tracer import read_jsonl

    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    with pytest.raises(ConfigurationError, match="line 1 is not valid JSON"):
        read_jsonl(bad)
    scalar = tmp_path / "scalar.jsonl"
    scalar.write_text('{"kind": "meta", "name": "trace.header"}\n[1, 2]\n')
    with pytest.raises(ConfigurationError, match="line 2 is not a JSON object"):
        read_jsonl(scalar)


def test_report_meta_only_trace(tmp_path):
    tracer = Tracer()
    tracer.meta(command="noop")
    path = write_jsonl(tmp_path / "meta.jsonl", tracer.record_dicts())
    out = render_report(path)
    assert "meta header only" in out


def test_report_zero_histogram_counters(tmp_path):
    # A counters record whose histograms never saw a sample (min/max None)
    # must render, not raise.
    registry = obs.CounterRegistry()
    registry.inc("alpha.promotions")
    snapshot = registry.snapshot()
    snapshot["histograms"]["lat"] = {
        "count": 0,
        "sum": 0,
        "min": None,
        "max": None,
        "buckets": {},
    }
    tracer = Tracer()
    tracer.meta(command="x")
    records = tracer.record_dicts() + [counters_record(snapshot)]
    path = write_jsonl(tmp_path / "zh.jsonl", records)
    out = render_report(path)
    assert "alpha.promotions" in out
    assert "lat.min" not in out


def test_report_is_byte_stable_against_the_golden_file(tmp_path):
    registry = obs.CounterRegistry()
    registry.inc("detector.symptoms", type="omission")
    registry.inc("detector.symptoms", type="omission")
    registry.observe("assessment.window", 3)
    records = _causal_records() + [counters_record(registry.snapshot())]
    path = write_jsonl(tmp_path / "golden.jsonl", records)
    out = render_report(path)
    assert out == GOLDEN_REPORT.read_text().rstrip("\n")


# -- explain ------------------------------------------------------------------


def test_v1_style_records_have_no_provenance(tmp_path):
    tracer = Tracer()
    tracer.meta(command="x")
    tracer.event("detector.symptom", t_sim_us=5)
    records = tracer.record_dicts()
    assert not has_provenance(records)
    assert explain(records) == {"provenance": False, "chains": []}
    assert render_explain(records) == NO_PROVENANCE_MESSAGE
    assert "no provenance" in NO_PROVENANCE_MESSAGE


def test_causal_dag_collapses_rereports_to_earliest_time():
    records = _causal_records()
    # sym:1 seen again, later and earlier: the earliest time wins, the
    # first record's name, attrs and parents stay.
    records.append(dict(records[2], t_sim_us=700, attrs={"type": "LATE"}))
    records.append(dict(records[2], t_sim_us=250, parents=[]))
    (dag,) = causal_dags(records).values()
    stage, t_sim, name, attrs, parents = dag.nodes["sym:1"]
    assert (stage, t_sim, name) == ("symptom", 250, "detector.symptom")
    assert attrs["type"] == "OMISSION"
    assert list(parents) == ["fault:F0001"]
    assert dag.children["fault:F0001"] == ["sym:1"]
    assert (dag.replica, dag.roots) == (0, ["fault:F0001"])


def test_explain_reconstructs_the_full_chain():
    result = explain(_causal_records())
    assert result["provenance"] and result["monotonic"]
    (chain,) = result["chains"]
    assert chain["fault_id"] == "F0001"
    assert chain["terminal"] == "maintenance"
    assert chain["stages"] == [
        "fault",
        "symptom",
        "ona",
        "trust",
        "maintenance",
    ]
    assert chain["stage_latency_us"] == {
        "fault->symptom": 200,
        "symptom->ona": 600,
        "ona->trust": 300,
    }
    assert chain["maintenance_actions"] == ["REPLACE_COMPONENT"]
    assert chain["monotonic"] is True


def test_explain_filters_by_fault_and_fru():
    records = _causal_records()
    assert explain(records, fault="F0001")["chains"]
    assert not explain(records, fault="F9999")["chains"]
    assert explain(records, fru="comp2")["chains"]
    assert explain(records, fru="component:comp2")["chains"]
    assert not explain(records, fru="comp9")["chains"]


def test_explain_flags_non_monotonic_paths():
    records = _causal_records()
    for rec in records:
        if rec.get("cause_id") == "ona:1":
            rec["t_sim_us"] = 10  # before its symptom parent
    result = explain(records)
    assert result["monotonic"] is False
    assert "WARNING" in render_explain(records)


def test_render_explain_shows_the_annotated_tree():
    out = render_explain(_causal_records())
    assert "F0001 permanent-silent on component:comp2" in out
    assert "-> maintenance (REPLACE_COMPONENT)" in out
    assert "detector.symptom t=300us (+200us)" in out
    assert "maintenance.recommendation t=?" in out
    assert "stage latencies:" in out


def test_explain_of_a_campaign_trace_matches_the_recorded_golden(
    tmp_path, capsys
):
    """``repro explain`` text and ``--json`` over a six-replica campaign
    trace, byte for byte as recorded before the chain walkers merged."""
    from repro.__main__ import main

    golden = json.loads(GOLDEN_EXPLAIN.read_text(encoding="utf-8"))
    trace = str(tmp_path / "t.jsonl")
    assert main([trace if a == "TRACE" else a for a in golden["argv"]]) == 0
    capsys.readouterr()
    assert main(["explain", trace]) == 0
    text = capsys.readouterr().out
    assert main(["explain", trace, "--json"]) == 0
    as_json = capsys.readouterr().out
    chains = json.loads(as_json)["chains"]
    assert len(chains) == golden["chains"]
    terminals = Counter(f"{c['cls']}/{c['terminal']}" for c in chains)
    assert dict(terminals) == golden["terminals"]
    assert text.count("\n") == golden["text_lines"]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["text_sha256"]
    assert (
        hashlib.sha256(as_json.encode()).hexdigest() == golden["json_sha256"]
    )


# -- chrome export ------------------------------------------------------------


def test_chrome_trace_structure():
    doc = chrome_trace(_causal_records())
    events = doc["traceEvents"]
    assert doc["otherData"]["command"] == "test"
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 5
    # One flow arrow pair per causal edge (4 edges in the chain).
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 4
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    # The untimed maintenance leaf is clamped onto the timeline.
    maint = next(e for e in instants if e["name"] == "maintenance.recommendation")
    assert maint["ts"] == 1_200
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "replica 0" in names


def test_chrome_export_writes_valid_json(tmp_path):
    path = write_chrome_trace(_causal_records(), tmp_path / "t.chrome.json")
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["schema"] == 2
    assert any(e["ph"] == "s" for e in doc["traceEvents"])
