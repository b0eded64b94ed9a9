"""RunMetrics dict schema: the version field and the JSON file's shape."""

from __future__ import annotations

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


def test_round_trip_survives_json(tmp_path):
    import json

    path = _metrics().write_json(tmp_path / "m.json")
    assert json.loads(path.read_text()) == _metrics().to_dict()
