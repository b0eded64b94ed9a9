"""RunMetrics dict schema: version field and exact round-tripping."""

from __future__ import annotations

import pytest

from repro.runtime.metrics import METRICS_SCHEMA_VERSION, RunMetrics


def _metrics() -> RunMetrics:
    return RunMetrics.from_results(
        replicas=6,
        workers=2,
        chunk_size=3,
        wall_time_s=1.25,
        retries=1,
        events=[100, 120, 80],
        busy_by_worker={"pid-10": 0.5, "pid-11": 0.45},
        leaked_worker_pids=(77,),
        replicas_failed=1,
        replicas_resumed=2,
    )


def test_to_dict_carries_schema_version():
    payload = _metrics().to_dict()
    assert payload["schema"] == METRICS_SCHEMA_VERSION == 1
    assert payload["replicas_resumed"] == 2


def test_round_trip_to_dict_from_dict_is_exact():
    payload = _metrics().to_dict()
    rebuilt = RunMetrics.from_dict(payload)
    assert rebuilt.to_dict() == payload


def test_from_dict_rejects_unknown_schema():
    payload = _metrics().to_dict()
    payload["schema"] = 99
    with pytest.raises(ValueError, match="unsupported RunMetrics schema"):
        RunMetrics.from_dict(payload)


def test_from_dict_defaults_optional_fields():
    minimal = {
        "replicas": 2,
        "workers": 1,
        "chunk_size": 2,
        "wall_time_s": 0.5,
        "events_simulated": 10,
        "events_per_second": 20.0,
    }
    metrics = RunMetrics.from_dict(minimal)
    assert metrics.retries == 0
    assert metrics.worker_busy_s == {}
    assert metrics.leaked_worker_pids == ()
    assert metrics.replicas_failed == 0
    assert metrics.replicas_resumed == 0


def test_round_trip_survives_json(tmp_path):
    import json

    path = _metrics().write_json(tmp_path / "m.json")
    loaded = RunMetrics.from_dict(json.loads(path.read_text()))
    assert loaded.to_dict() == _metrics().to_dict()


def test_payload_with_backend_label_from_older_builds_still_loads():
    """``--metrics-json`` files and live ``run_finished`` records from
    older builds carry a ``"backend"`` label; they still load, and the
    label is not written back."""
    payload = {**_metrics().to_dict(), "backend": "batched"}
    loaded = RunMetrics.from_dict(payload)
    assert "backend" not in loaded.to_dict()
    assert loaded.to_dict() == _metrics().to_dict()
