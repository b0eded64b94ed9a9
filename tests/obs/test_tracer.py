"""Unit tests for the span/event tracer and the trace schema."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.tracer import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    _NULL_SPAN,
    canonical_lines,
    read_jsonl,
    trace_digest,
    validate_record,
    validate_trace,
    write_jsonl,
)


class FakeClock:
    """Deterministic monotonic clock for span-duration tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.5
        return self.t


def test_event_records_both_clocks():
    tracer = Tracer(clock=FakeClock())
    tracer.event("detector.symptom", t_sim_us=1_000, type="omission")
    (rec,) = tracer.records
    assert rec.kind == "event"
    assert rec.t_sim_us == 1_000
    assert rec.t_wall_s == 0.5
    assert rec.attrs == {"type": "omission"}


def test_span_measures_duration():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("assessment.epoch", t_sim_us=5):
        pass
    (rec,) = tracer.records
    assert rec.kind == "span"
    assert rec.dur_s == pytest.approx(0.5)


def test_disabled_tracer_is_inert_and_allocation_free():
    tracer = Tracer(enabled=False)
    tracer.event("x")
    # The disabled span is one shared instance — no per-call allocation.
    assert tracer.span("a") is _NULL_SPAN
    assert tracer.span("b") is tracer.span("c")
    with tracer.span("a"):
        pass
    assert tracer.records == []


def test_fold_only_tracer_keeps_only_the_causal_log():
    """``keep_records=False`` (provenance without a trace) drops every
    record but still logs the causal events the stage fold reads."""
    tracer = Tracer(keep_records=False)
    tracer.meta(seed=7)
    tracer.event("x")
    assert tracer.span("a") is _NULL_SPAN
    tracer.causal_event("fault.injected", 5, "fault:F1", (), fru="comp1")
    assert tracer.records == []
    assert tracer.causal_log == [
        ("fault.injected", 5, "fault:F1", (), {"fru": "comp1"})
    ]


def test_write_read_roundtrip_prepends_header(tmp_path):
    tracer = Tracer(clock=FakeClock())
    tracer.event("a.b", t_sim_us=1, k=2)
    with tracer.span("a.region", t_sim_us=1):
        pass
    path = write_jsonl(
        tmp_path / "t.jsonl", tracer.record_dicts(), header_attrs={"seed": 7}
    )
    records = read_jsonl(path)
    validate_trace(records)
    assert records[0]["kind"] == "meta"
    assert records[0]["schema"] == TRACE_SCHEMA_VERSION
    assert records[0]["attrs"] == {"seed": 7}
    assert [r["name"] for r in records[1:]] == ["a.b", "a.region"]


def test_validate_record_catches_shape_errors():
    assert validate_record({"kind": "bogus"})
    assert validate_record({"kind": "event", "name": "", "attrs": {}})
    bad_attr = {
        "kind": "event",
        "name": "x",
        "seq": 0,
        "t_sim_us": 1,
        "t_wall_s": 0.0,
        "attrs": {"v": [1, 2]},
    }
    assert any("JSON scalar" in e for e in validate_record(bad_attr))
    span_no_dur = dict(bad_attr, attrs={}, kind="span")
    assert any("dur_s" in e for e in validate_record(span_no_dur))


def test_validate_trace_requires_meta_first_and_nonempty():
    with pytest.raises(ConfigurationError):
        validate_trace([])
    event = {
        "kind": "event",
        "name": "x",
        "seq": 0,
        "t_sim_us": None,
        "t_wall_s": 0.0,
        "attrs": {},
    }
    with pytest.raises(ConfigurationError, match="meta header"):
        validate_trace([event])


def test_canonical_lines_exclude_wall_time_and_meta():
    fast, slow = Tracer(clock=FakeClock()), Tracer()
    for tracer in (fast, slow):
        tracer.meta(run="local")
        tracer.event("a.b", t_sim_us=3, v=1.5)
        with tracer.span("a.region", t_sim_us=3):
            pass
    fast_lines = list(canonical_lines(fast.record_dicts()))
    assert fast_lines == list(canonical_lines(slow.record_dicts()))
    assert all("wall" not in line for line in fast_lines)
    assert trace_digest(fast.record_dicts()) == trace_digest(
        slow.record_dicts()
    )


def test_activated_restores_previous_context():
    before = obs.get_obs()
    with obs.activated() as o:
        assert obs.get_obs() is o
        assert o.enabled
    assert obs.get_obs() is before
    assert not obs.get_obs().enabled  # module default stays disabled
