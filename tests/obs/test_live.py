"""Live campaign telemetry: bus, sinks, heartbeats, monitor fold.

Three contracts from the live-telemetry design are pinned here:

* **Schema + durability** — every live log starts with a versioned
  ``live_header`` line, the reader tolerates a torn tail (SIGKILL), and
  the one-shot monitor report is a *pure function of the file bytes*
  (committed golden, byte for byte).
* **Stall/straggler detection** — the parent-side monitor folds worker
  heartbeats with an injectable clock, flags stragglers once against the
  median chunk latency, and reports stalled chunks for resubmission.
* **Determinism** — enabling the bus must not perturb the simulation:
  the campaign aggregate (plan digest, obs counters, every replica
  value) is bit-identical with the bus on vs off, at workers=1 and
  workers=4.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.faults.campaign import CampaignReplicaOutcome
from repro.obs.live import (
    LIVE_EVENT_KINDS,
    LIVE_SCHEMA_VERSION,
    JsonlLiveSink,
    LiveEventBus,
    LiveRunMonitor,
    MemoryLiveSink,
    monitor_once,
    read_heartbeat,
    read_live_log,
    render_monitor_report,
    serve_metrics_once,
    stamp_heartbeat,
    summarize_live,
)
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask, RunOptions

DATA = Path(__file__).parent.parent / "data"
GOLDEN_LOG = DATA / "golden_live_log.jsonl"
GOLDEN_REPORT = DATA / "golden_monitor_report.txt"


class FakeClock:
    """Manually advanced clock for byte-stable bus/monitor tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def double_task(replica: ReplicaTask) -> int:
    """Trivial module-level task (spawn-picklable)."""
    return replica.index * 2


def ledgered_task(replica: ReplicaTask) -> CampaignReplicaOutcome:
    """``double_task`` as a value of a declared storage kind — the only
    values a checkpoint ledger holds."""
    return CampaignReplicaOutcome(
        index=replica.index,
        plan_events=(),
        attributed=(),
        verdicts_emitted=replica.index * 2,
        events_simulated=0,
    )


# -- sinks and bus ------------------------------------------------------------


def test_jsonl_sink_header_first_and_parseable(tmp_path):
    path = tmp_path / "live.jsonl"
    bus = LiveEventBus([JsonlLiveSink(path)], clock=FakeClock())
    bus.emit("run_started", replicas=3)
    bus.emit("chunk_done", chunk=0, replicas=3)
    bus.close()
    records, skipped = read_live_log(path)
    assert skipped == 0
    assert [r["kind"] for r in records] == [
        "live_header",
        "run_started",
        "chunk_done",
    ]
    assert records[0]["schema"] == LIVE_SCHEMA_VERSION
    assert records[1]["replicas"] == 3
    assert all("t_wall" in r for r in records)


def test_bus_without_sinks_is_a_noop():
    bus = LiveEventBus([])
    bus.emit("run_started", replicas=1)  # must not raise
    bus.close()


def test_memory_sink_records_injected_clock_times():
    clock = FakeClock(5.0)
    sink = MemoryLiveSink()
    bus = LiveEventBus([sink], clock=clock)
    bus.emit("progress", replicas_done=1)
    clock.now = 6.5
    bus.emit("progress", replicas_done=2)
    assert [r["t_wall"] for r in sink.records] == [5.0, 5.0, 6.5]
    assert sink.records[0]["kind"] == "live_header"


def test_sink_fsync_every_record_when_configured(tmp_path):
    path = tmp_path / "live.jsonl"
    sink = JsonlLiveSink(path, fsync_every=1)
    bus = LiveEventBus([sink])
    for i in range(5):
        bus.emit("progress", replicas_done=i)
    # Durable before close: a reader sees every record already.
    records, skipped = read_live_log(path)
    assert len(records) == 6  # header + 5
    assert skipped == 0
    bus.close()


# -- worker heartbeats --------------------------------------------------------


def test_heartbeat_stamp_and_read_roundtrip(tmp_path):
    path = str(tmp_path / "hb-0.json")
    stamp_heartbeat(path, worker="pid-1", chunk=0, replicas_done=2, events=99)
    record = read_heartbeat(path)
    assert record is not None
    assert record["worker"] == "pid-1"
    assert record["chunk"] == 0
    assert record["replicas_done"] == 2
    assert record["events"] == 99
    assert record["pid"] > 0
    assert record["rss_kb"] >= 0
    # No torn tmp file left behind.
    assert list(tmp_path.iterdir()) == [tmp_path / "hb-0.json"]


def test_read_heartbeat_tolerates_missing_and_garbage(tmp_path):
    assert read_heartbeat(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    assert read_heartbeat(bad) is None
    nondict = tmp_path / "list.json"
    nondict.write_text("[1, 2]")
    assert read_heartbeat(nondict) is None


# -- reader tolerance ---------------------------------------------------------


def test_read_live_log_skips_torn_tail(tmp_path):
    path = tmp_path / "live.jsonl"
    path.write_text(
        json.dumps({"kind": "live_header", "schema": 1, "t_wall": 1.0})
        + "\n"
        + json.dumps({"kind": "run_started", "t_wall": 1.0, "replicas": 2})
        + "\n"
        + "[]\n"  # valid JSON, not a dict
        + '{"kind": "chunk_done", "t_wa'  # torn mid-record by SIGKILL
    )
    records, skipped = read_live_log(path)
    assert [r["kind"] for r in records] == ["live_header", "run_started"]
    assert skipped == 2


def test_read_live_log_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_live_log(tmp_path / "nope.jsonl")


# -- monitor fold: heartbeats, stragglers, stalls ----------------------------


def _monitor(tmp_path, clock, **kwargs):
    sink = MemoryLiveSink()
    bus = LiveEventBus([sink], clock=clock)
    monitor = LiveRunMonitor(
        bus, str(tmp_path), clock=clock, **kwargs
    )
    return monitor, sink


def _kinds(sink):
    return [r["kind"] for r in sink.records if r["kind"] != "live_header"]


def test_monitor_emits_heartbeat_only_on_progress(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    stamp_heartbeat(
        monitor.heartbeat_path(0),
        worker="pid-9",
        chunk=0,
        replicas_done=1,
        events=10,
    )
    clock.now += 1.0
    monitor.poll()
    monitor.poll()  # same stamp again: no duplicate heartbeat record
    beats = [r for r in sink.records if r["kind"] == "worker_heartbeat"]
    assert len(beats) == 1
    assert beats[0]["replicas_done"] == 1
    assert beats[0]["events"] == 10
    # Every poll emits a progress record regardless.
    assert _kinds(sink).count("progress") == 2


def test_monitor_flags_straggler_once_against_median(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(
        tmp_path, clock, replicas_total=8, straggler_factor=2.0
    )
    # Three completed chunks at 1 s each establish the median.
    for cid in (0, 1, 2):
        monitor.chunk_submitted(cid, [cid], attempt=1)
        clock.now += 1.0
        monitor.chunk_done(cid, worker="pid-1", replicas=1, events=5)
    monitor.chunk_submitted(3, [3], attempt=1)
    clock.now += 1.5  # 1.5x median: under the 2x factor
    assert monitor.poll() == []
    assert "straggler_suspected" not in _kinds(sink)
    clock.now += 1.0  # now 2.5x median
    monitor.poll()
    monitor.poll()  # flagged once, not per tick
    stragglers = [
        r for r in sink.records if r["kind"] == "straggler_suspected"
    ]
    assert len(stragglers) == 1
    assert stragglers[0]["chunk"] == 3
    assert stragglers[0]["ratio"] > 2.0


def test_monitor_detects_stall_after_heartbeat_silence(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(
        tmp_path, clock, replicas_total=4, stall_timeout_s=2.0
    )
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += 1.0
    assert monitor.poll() == []  # within deadline
    clock.now += 1.5  # 2.5 s of silence total
    assert monitor.poll() == [0]
    assert monitor.poll() == []  # suspected once, not per tick
    assert monitor.stall_count == 1
    stalls = [r for r in sink.records if r["kind"] == "stall_suspected"]
    assert len(stalls) == 1
    assert stalls[0]["chunk"] == 0
    assert stalls[0]["action"] == "resubmitted"
    assert stalls[0]["timeout_s"] == 2.0


def test_monitor_heartbeat_resets_stall_deadline(tmp_path):
    clock = FakeClock()
    monitor, _sink = _monitor(
        tmp_path, clock, replicas_total=4, stall_timeout_s=2.0
    )
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += 1.5
    stamp_heartbeat(
        monitor.heartbeat_path(0),
        worker="pid-9",
        chunk=0,
        replicas_done=1,
        events=1,
    )
    assert monitor.poll() == []  # heartbeat refreshed the deadline
    clock.now += 1.5
    assert monitor.poll() == []  # only 1.5 s since last activity
    clock.now += 1.0
    assert monitor.poll() == [0]  # 2.5 s of silence now


def test_monitor_stall_detection_disabled_with_none(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(
        tmp_path, clock, replicas_total=2, stall_timeout_s=None
    )
    monitor.chunk_submitted(0, [0], attempt=1)
    clock.now += 1e6
    assert monitor.poll() == []
    assert "stall_suspected" not in _kinds(sink)


def test_monitor_progress_throughput_and_eta(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += 2.0
    monitor.chunk_done(0, worker="pid-1", replicas=2, events=10)
    monitor.poll()
    progress = [r for r in sink.records if r["kind"] == "progress"][-1]
    assert progress["replicas_done"] == 2
    assert progress["replicas_total"] == 4
    assert progress["throughput_rps"] == pytest.approx(1.0)
    assert progress["eta_s"] == pytest.approx(2.0)


# -- summarize + golden report ------------------------------------------------


def test_summarize_live_golden_fixture():
    records, skipped = read_live_log(GOLDEN_LOG)
    summary = summarize_live(records, skipped_lines=skipped)
    assert summary["schema"] == LIVE_SCHEMA_VERSION
    assert summary["command"] == "mc"
    assert summary["workers_requested"] == 2
    assert summary["replicas_total"] == 8
    assert summary["replicas_resumed"] == 2
    assert summary["replicas_done"] == 6
    assert summary["progress"] == 1.0
    assert summary["chunks_done"] == 3
    assert summary["chunks_in_flight"] == []
    assert summary["events_simulated"] == 1490
    assert summary["elapsed_s"] == 4.5
    assert summary["retries"] == 1
    assert summary["stalls"] == 1
    assert summary["stragglers"] == 1
    assert summary["checkpoint_flushes"] == 2
    assert summary["finished"] is True
    assert summary["failures"] == [
        {"index": 6, "error_type": "ValueError", "attempts": 1}
    ]
    assert summary["skipped_lines"] == 1
    assert summary["run_metrics"]["schema"] == 1
    assert set(summary["workers"]) == {"pid-101", "pid-102"}
    assert summary["workers"]["pid-101"]["rss_kb"] == 51200


def test_monitor_report_matches_committed_golden_bytes():
    """The one-shot report is a pure function of the log bytes."""
    _summary, report = monitor_once(GOLDEN_LOG)
    assert report == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_render_report_without_header_says_total_unknown():
    report = render_monitor_report(
        summarize_live([{"kind": "chunk_done", "replicas": 2, "t_wall": 1.0}]),
        "x.jsonl",
    )
    assert "total unknown" in report


# -- runner integration -------------------------------------------------------


def test_runner_serial_live_log_end_to_end(tmp_path):
    path = tmp_path / "live.jsonl"
    outcome = ParallelCampaignRunner(
        double_task, options=RunOptions(chunk_size=2, live_log=path)
    ).run([None] * 5, root_seed=3)
    assert outcome.value == (0, 2, 4, 6, 8)
    records, skipped = read_live_log(path)
    assert skipped == 0
    kinds = {r["kind"] for r in records}
    assert kinds <= set(LIVE_EVENT_KINDS)
    assert {"live_header", "run_started", "chunk_submitted", "chunk_done",
            "progress", "run_finished"} <= kinds
    summary = summarize_live(records)
    assert summary["finished"] is True
    assert summary["replicas_done"] == 5
    assert summary["workers"] == {
        "serial": {"replicas": 5, "events": 0, "chunks": 3}
    }
    assert summary["run_metrics"]["replicas"] == 5
    # The OpenMetrics snapshot rides along.
    prom = tmp_path / "live.jsonl.prom"
    text = prom.read_text(encoding="utf-8")
    assert text.endswith("# EOF\n")
    assert "repro_run_replicas 5" in text


def test_runner_pool_live_log_reports_pool_workers(tmp_path, monkeypatch):
    import glob
    import tempfile

    # The run makes its heartbeat directory under the test's own temp
    # directory, so the leak check below sees this run only.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = tmp_path / "live.jsonl"
    outcome = ParallelCampaignRunner(
        double_task,
        options=RunOptions(workers=2, chunk_size=1, live_log=path),
        retry_backoff_s=0.0,
    ).run([None] * 4, root_seed=3)
    assert outcome.value == (0, 2, 4, 6)
    summary, report = monitor_once(path)
    assert summary["finished"] is True
    assert summary["replicas_done"] == 4
    assert summary["chunks_done"] == 4
    assert all(w.startswith("pid-") for w in summary["workers"])
    assert "Per-worker throughput" in report
    # No heartbeat temp directories leaked.
    leftovers = glob.glob(
        str(Path(tempfile.gettempdir()) / "repro-live-hb-*" / "hb-*.json")
    )
    assert not leftovers


def test_runner_checkpoint_flushes_reach_the_live_log(tmp_path):
    path = tmp_path / "live.jsonl"
    ParallelCampaignRunner(
        ledgered_task,
        options=RunOptions(
            chunk_size=2,
            checkpoint=tmp_path / "ledger.jsonl",
            live_log=path,
        ),
    ).run([None] * 4, root_seed=1)
    records, _ = read_live_log(path)
    flushes = [r for r in records if r["kind"] == "checkpoint_flushed"]
    assert len(flushes) == 2
    assert all(f["replicas"] == 2 for f in flushes)


def test_resumed_run_progress_counts_resumed_replicas_as_done(tmp_path):
    """The last ``progress`` record of a resume reads every replica done
    and none left."""
    ledger = tmp_path / "ledger.jsonl"

    def run(**options):
        return ParallelCampaignRunner(
            ledgered_task,
            options=RunOptions(chunk_size=2, checkpoint=ledger, **options),
        ).run([None] * 6, root_seed=1)

    run()
    header_and_two_chunks = ledger.read_text(encoding="utf-8").splitlines()[:3]
    ledger.write_text("\n".join(header_and_two_chunks) + "\n", encoding="utf-8")
    path = tmp_path / "live.jsonl"
    assert run(resume=True, live_log=path).metrics.replicas_resumed == 4
    records, _ = read_live_log(path)
    last = [r for r in records if r["kind"] == "progress"][-1]
    assert last["replicas_done"] == last["replicas_total"] == 6
    assert last["eta_s"] == 0


def test_a_run_with_nothing_to_execute_still_ends_with_progress(tmp_path):
    """A resume of a complete ledger runs no chunk, and its live log
    still closes with the final count, just before ``run_finished``."""
    from repro.__main__ import main

    ledger, path = tmp_path / "L", tmp_path / "live.jsonl"
    argv = ["--seed", "5", "--checkpoint", str(ledger)]
    assert main([*argv, "mc", "--replicas", "4", "--horizon-ms", "200"]) == 0
    assert main(["--live-log", str(path), "resume", str(ledger)]) == 0
    records, _ = read_live_log(path)
    assert [r["kind"] for r in records] == [
        "live_header",
        "run_started",
        "progress",
        "run_finished",
    ]
    progress = records[2]
    assert progress["replicas_done"] == progress["replicas_total"] == 4
    assert progress["eta_s"] == 0


def test_monitor_progress_counts_resumed_replicas_as_done(tmp_path):
    clock = FakeClock()
    monitor, sink = _monitor(
        tmp_path, clock, replicas_total=4, replicas_resumed=2
    )
    monitor.poll()
    progress = [r for r in sink.records if r["kind"] == "progress"][-1]
    assert (progress["replicas_done"], progress["throughput_rps"]) == (2, 0)
    assert progress["eta_s"] is None  # two left, no rate yet
    monitor.chunk_submitted(0, [2, 3], attempt=1)
    clock.now += 2.0
    monitor.chunk_done(0, worker="pid-1", replicas=2, events=10)
    monitor.poll()
    progress = [r for r in sink.records if r["kind"] == "progress"][-1]
    assert progress["replicas_done"] == progress["replicas_total"] == 4
    assert progress["throughput_rps"] == pytest.approx(1.0)
    assert progress["eta_s"] == 0


def test_runner_explicit_bus_is_not_closed_by_the_runner(tmp_path):
    sink = MemoryLiveSink()
    bus = LiveEventBus([sink])
    ParallelCampaignRunner(double_task).run([None] * 2, root_seed=0, live=bus)
    kinds = [r["kind"] for r in sink.records]
    assert kinds[0] == "live_header"
    assert kinds[-1] == "run_finished"
    bus.emit("progress", replicas_done=0)  # caller still owns the bus
    assert sink.records[-1]["kind"] == "progress"


# -- determinism: bus on == bus off ------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_live_bus_does_not_perturb_campaign_digests(tmp_path, workers):
    """Goldens-subset replay: obs counters and the plan digest are
    bit-identical with the live bus on vs off."""
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns
    from repro.units import ms

    spec = CampaignReplicaSpec(
        expected_faults=3.0,
        horizon_us=ms(400),
        obs_enabled=True,
        obs_trace=True,
    )
    off = run_random_campaigns(
        6, root_seed=11, spec=spec, options=RunOptions(workers=workers)
    )
    on = run_random_campaigns(
        6,
        root_seed=11,
        spec=spec,
        options=RunOptions(
            workers=workers, live_log=str(tmp_path / f"live-{workers}.jsonl")
        ),
    )
    assert on.value == off.value  # plan digest, counters, every replica
    assert on.value.obs_counters == off.value.obs_counters
    assert on.value.plan_digest == off.value.plan_digest
    # And the live log itself is a valid telemetry stream.
    summary = summarize_live(
        read_live_log(tmp_path / f"live-{workers}.jsonl")[0]
    )
    assert summary["finished"] is True
    assert summary["replicas_done"] == 6
    assert summary["events_simulated"] == off.value.events_simulated


# -- one-shot exposition server ----------------------------------------------


def _scrape(port: int) -> tuple[str, str]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as resp:
        return resp.read().decode("utf-8"), resp.headers["Content-Type"]


def test_serve_metrics_once_prefers_prom_sidecar(tmp_path):
    live = tmp_path / "live.jsonl"
    ParallelCampaignRunner(
        double_task, options=RunOptions(live_log=live)
    ).run([None] * 3, root_seed=0)
    expected = (tmp_path / "live.jsonl.prom").read_text(encoding="utf-8")
    started = threading.Event()
    ports: list[int] = []
    started.port = 0  # serve_metrics_once stashes the bound port here

    def _serve():
        ports.append(serve_metrics_once(live, port=0, started=started))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    body, content_type = _scrape(started.port)
    thread.join(timeout=10)
    assert body == expected
    assert "openmetrics-text" in content_type
    assert ports == [started.port]


def test_serve_metrics_once_renders_degraded_from_live_log(tmp_path):
    """Without a .prom sidecar (run killed mid-flight) the server derives
    gauges from the live log alone."""
    live = tmp_path / "live.jsonl"
    bus = LiveEventBus([JsonlLiveSink(live)], clock=FakeClock())
    bus.emit("run_started", replicas=9, replicas_resumed=0)
    bus.emit("chunk_done", chunk=0, worker="pid-1", replicas=3, events=30)
    bus.close()
    started = threading.Event()
    started.port = 0
    thread = threading.Thread(
        target=serve_metrics_once,
        args=(live,),
        kwargs={"port": 0, "started": started},
        daemon=True,
    )
    thread.start()
    assert started.wait(timeout=10)
    body, _ = _scrape(started.port)
    thread.join(timeout=10)
    assert "repro_run_replicas 9" in body
    assert "repro_run_replicas_done 3" in body
    assert body.endswith("# EOF\n")
