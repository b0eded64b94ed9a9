"""Unit tests for the counter/histogram registry and the trace report."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.obs.counters import (
    CounterRegistry,
    Histogram,
    bucket_of,
    counter_key,
    split_key,
)
from repro.obs.report import (
    counters_record,
    flatten_counters,
    render_report,
    summarize_trace,
)
from repro.obs.tracer import write_jsonl


def test_counter_key_sorts_labels():
    assert counter_key("x") == "x"
    assert (
        counter_key("ona.triggers", {"ona": "wearout", "cls": "a"})
        == "ona.triggers{cls=a,ona=wearout}"
    )


#: Names and label text that hold none of the key's delimiters.
_plain = st.text(st.characters(blacklist_characters="{},="), max_size=8)


@given(
    name=_plain,
    labels=st.dictionaries(_plain, _plain | st.integers(), max_size=4),
)
def test_split_key_inverts_counter_key(name, labels):
    assert split_key(counter_key(name, labels)) == (
        name,
        {k: str(v) for k, v in labels.items()},
    )


def test_split_key_of_a_key_without_labels():
    assert split_key("sim.events") == ("sim.events", {})
    assert split_key("odd{key") == ("odd{key", {})
    assert split_key("ona.triggers{cls=a,ona=wearout}") == (
        "ona.triggers",
        {"cls": "a", "ona": "wearout"},
    )


@pytest.mark.parametrize(
    ("value", "bucket"),
    [(0, 0), (0.5, 0), (1, 1), (1.9, 1), (2, 2), (3, 2), (4, 3), (1024, 11)],
)
def test_bucket_of_power_of_two_edges(value, bucket):
    assert bucket_of(value) == bucket


def test_histogram_observe_and_summary():
    hist = Histogram()
    for value in (0, 1, 3, 8):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == 12.0
    assert (hist.min, hist.max) == (0.0, 8.0)
    assert hist.mean == 3.0
    assert hist.buckets == {0: 1, 1: 1, 2: 1, 4: 1}


def test_histogram_merge_equals_combined_stream():
    a, b, combined = Histogram(), Histogram(), Histogram()
    for value in (1, 5, 9):
        a.observe(value)
        combined.observe(value)
    for value in (0, 2):
        b.observe(value)
        combined.observe(value)
    a.merge(b)
    assert a.to_dict() == combined.to_dict()
    assert Histogram.from_dict(a.to_dict()).to_dict() == a.to_dict()


def test_registry_inc_observe_and_labels():
    reg = CounterRegistry()
    reg.inc("sim.events")
    reg.inc("sim.events", 41)
    reg.inc("ona.triggers", ona="wearout", cls="component-internal")
    reg.observe("latency", 3, stage="dissemination")
    assert reg.get("sim.events") == 42
    assert reg.get("ona.triggers", ona="wearout", cls="component-internal") == 1
    assert reg.histogram("latency", stage="dissemination").count == 1
    assert reg.counters("sim.") == {"sim.events": 42}
    assert len(reg) == 3


@pytest.mark.parametrize(
    ("value", "bucket"),
    [
        (0.0, 0),  # bucket 0 = [0, 1)
        (-1.0, 0),  # negatives collapse into bucket 0 (< 1.0 branch)
        (-1e300, 0),
        (float("inf"), 0),  # frexp(inf) -> exponent 0
        (float("nan"), 0),  # nan < 1.0 is False; frexp(nan) -> exponent 0
        (0.999999, 0),
        (2**52, 53),
    ],
)
def test_bucket_of_degenerate_values_are_stable(value, bucket):
    """Non-finite and out-of-domain observations must land in a stable
    bucket rather than raise — a worker's counter snapshot must always
    merge, whatever a task recorded."""
    assert bucket_of(value) == bucket


def test_merge_snapshot_at_bucket_boundaries_matches_serial():
    """Merging snapshots whose observations sit exactly on power-of-two
    bucket edges (and beyond the finite domain) equals one serial
    stream, bucket for bucket."""
    edge_values = [0.0, 0.5, 1.0, 2.0, 4.0, 2.0**31, -3.0, float("inf")]
    serial = CounterRegistry()
    parts = [CounterRegistry() for _ in range(2)]
    for i, value in enumerate(edge_values):
        parts[i % 2].observe("lat", value)
        serial.observe("lat", value)
    merged = CounterRegistry()
    for part in parts:
        merged.merge_snapshot(part.snapshot())
    assert merged.snapshot() == serial.snapshot()
    hist = merged.histogram("lat")
    assert hist.count == len(edge_values)
    # 0.0, 0.5, -3.0 and inf all share bucket 0; each edge value 2**k
    # opens bucket k+1.
    assert hist.buckets[0] == 4
    assert hist.buckets[1] == 1  # 1.0
    assert hist.buckets[2] == 1  # 2.0
    assert hist.buckets[3] == 1  # 4.0
    assert hist.buckets[32] == 1  # 2**31
    assert hist.min == -3.0
    assert hist.max == float("inf")


def test_merge_snapshot_into_empty_and_disjoint_keys():
    a = CounterRegistry()
    a.inc("x", 2)
    a.observe("lat", 1.0, stage="a")
    b = CounterRegistry()
    b.inc("y", 3)
    b.observe("lat", 2.0, stage="b")
    target = CounterRegistry()
    target.merge_snapshot(a.snapshot())
    target.merge_snapshot(b.snapshot())
    assert target.get("x") == 2
    assert target.get("y") == 3
    assert target.histogram("lat", stage="a").count == 1
    assert target.histogram("lat", stage="b").count == 1
    # Merging an empty snapshot is the identity.
    before = target.snapshot()
    target.merge_snapshot(CounterRegistry().snapshot())
    assert target.snapshot() == before


def test_snapshot_merge_matches_serial_run():
    serial = CounterRegistry()
    parts = [CounterRegistry() for _ in range(3)]
    for i, part in enumerate(parts):
        for _ in range(i + 1):
            part.inc("events")
            serial.inc("events")
        part.observe("lat", i)
        serial.observe("lat", i)
    merged = CounterRegistry.merged(p.snapshot() for p in parts)
    assert merged == serial.snapshot()
    # Merging one snapshot alone gives it back.
    assert CounterRegistry.merged([merged]) == merged


def test_snapshot_is_sorted_and_clear_empties():
    reg = CounterRegistry()
    reg.inc("b")
    reg.inc("a")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    reg.clear()
    assert len(reg) == 0


def test_flatten_counters_includes_histogram_summaries():
    reg = CounterRegistry()
    reg.inc("x", 2)
    reg.observe("lat", 4)
    flat = flatten_counters(reg.snapshot())
    assert flat["x"] == 2
    assert flat["lat.count"] == 1
    assert flat["lat.sum"] == 4.0
    assert flat["lat.min"] == 4.0 and flat["lat.max"] == 4.0


def test_counters_record_is_schema_valid_meta():
    from repro.obs.tracer import validate_record

    reg = CounterRegistry()
    reg.inc("x")
    rec = counters_record(reg.snapshot())
    assert rec["kind"] == "meta"
    assert validate_record(rec) == []


def test_summarize_and_render_report(tmp_path):
    reg = CounterRegistry()
    reg.inc("sim.events", 10)
    records = [
        {
            "seq": 0,
            "kind": "event",
            "name": "sim.run_until",
            "t_sim_us": 500,
            "t_wall_s": 0.1,
            "attrs": {},
            "replica": 0,
        },
        counters_record(reg.snapshot()),
    ]
    path = write_jsonl(tmp_path / "t.jsonl", records, header_attrs={})
    summary = summarize_trace(records)
    assert summary["by_name"] == {"sim.run_until": 1}
    assert summary["replicas"] == 1
    assert summary["t_sim_us_range"] == [500, 500]
    assert summary["counters"] == {"sim.events": 10}
    report = render_report(path)
    assert "sim.run_until" in report
    assert "sim.events" in report
