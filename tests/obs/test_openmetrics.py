"""OpenMetrics exposition of counter snapshots and run metrics.

Pins the naming conventions documented in ``docs/observability.md``:
``repro_`` prefix, ``_total`` counters, cumulative power-of-two
``_bucket{le=...}`` series with ``+Inf``, run-metrics gauges, and the
mandatory ``# EOF`` terminator.
"""

from __future__ import annotations

from repro.obs.counters import CounterRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.runtime.metrics import RunMetrics


def test_counters_become_total_series_with_sanitized_names():
    reg = CounterRegistry()
    reg.inc("sim.events", 42)
    reg.inc("ona.triggers", ona="wearout", cls="component-internal")
    text = render_openmetrics(reg.snapshot())
    assert "# TYPE repro_sim_events counter" in text
    assert "repro_sim_events_total 42" in text
    assert (
        'repro_ona_triggers_total{cls="component-internal",ona="wearout"} 1'
        in text
    )
    assert text.endswith("# EOF\n")


def test_histogram_buckets_are_cumulative_power_of_two_edges():
    reg = CounterRegistry()
    for value in (0.5, 1, 3, 3, 8):
        reg.observe("latency.us", value, stage="detection")
    text = render_openmetrics(reg.snapshot())
    lines = text.splitlines()
    assert "# TYPE repro_latency_us histogram" in lines
    # bucket 0 = [0,1) holds 1; bucket 1 = [1,2) adds 1; bucket 2 = [2,4)
    # adds the two 3s; bucket 4 = [8,16) adds the 8.  Cumulative:
    assert 'repro_latency_us_bucket{le="1",stage="detection"} 1' in lines
    assert 'repro_latency_us_bucket{le="2",stage="detection"} 2' in lines
    assert 'repro_latency_us_bucket{le="4",stage="detection"} 4' in lines
    assert 'repro_latency_us_bucket{le="16",stage="detection"} 5' in lines
    assert 'repro_latency_us_bucket{le="+Inf",stage="detection"} 5' in lines
    assert 'repro_latency_us_sum{stage="detection"} 15.5' in lines
    assert 'repro_latency_us_count{stage="detection"} 5' in lines


def test_run_metrics_become_gauges_with_help_and_info():
    metrics = RunMetrics.from_results(
        replicas=6,
        workers=2,
        chunk_size=3,
        wall_time_s=2.0,
        retries=1,
        events=[100, 100],
        busy_by_worker={"pid-1": 1.0},
        replicas_resumed=2,
    )
    text = render_openmetrics(run_metrics=metrics.to_dict())
    assert "# TYPE repro_run_replicas gauge" in text
    assert "repro_run_replicas 6" in text
    assert "repro_run_events_simulated 200" in text
    assert "repro_run_events_per_second 100" in text
    assert "repro_run_replicas_resumed 2" in text
    assert "repro_run_retries 1" in text
    assert "# HELP repro_run_wall_time_s" in text
    assert 'repro_run_info{schema="1"} 1' in text


def test_empty_inputs_still_terminate_with_eof():
    assert render_openmetrics() == "# EOF\n"


def test_label_values_are_escaped():
    reg = CounterRegistry()
    reg.inc("x", path='a"b\\c')
    text = render_openmetrics(reg.snapshot())
    assert 'repro_x_total{path="a\\"b\\\\c"} 1' in text


def test_live_summary_degraded_path_emits_progress_gauges():
    from repro.obs.live import summarize_live

    summary = summarize_live(
        [
            {"kind": "live_header", "schema": 1, "t_wall": 1.0},
            {"kind": "run_started", "t_wall": 1.0, "replicas": 5,
             "replicas_resumed": 1},
            {"kind": "chunk_done", "t_wall": 2.0, "chunk": 0,
             "worker": "pid-1", "replicas": 2, "events": 20},
        ]
    )
    text = render_openmetrics(live_summary=summary)
    assert "repro_run_replicas 5" in text
    assert "repro_run_replicas_resumed 1" in text
    assert "repro_run_replicas_done 2" in text
    assert "repro_run_events_simulated 20" in text
    assert text.endswith("# EOF\n")


def test_full_run_metrics_win_over_live_summary():
    metrics = RunMetrics.from_results(
        replicas=4,
        workers=1,
        chunk_size=4,
        wall_time_s=1.0,
        retries=0,
        events=[10],
        busy_by_worker={},
    )
    text = render_openmetrics(
        run_metrics=metrics.to_dict(),
        live_summary={"replicas_total": 999},
    )
    assert "repro_run_replicas 4" in text
    assert "999" not in text


def test_registry_to_openmetrics_delegates():
    reg = CounterRegistry()
    reg.inc("detector.symptoms", 7)
    text = reg.to_openmetrics()
    assert "repro_detector_symptoms_total 7" in text
    assert text.endswith("# EOF\n")
    metrics = RunMetrics.from_results(
        replicas=1,
        workers=1,
        chunk_size=1,
        wall_time_s=1.0,
        retries=0,
        events=[5],
        busy_by_worker={},
    )
    both = reg.to_openmetrics(metrics.to_dict())
    assert "repro_detector_symptoms_total 7" in both
    assert "repro_run_replicas 1" in both
