"""In-flight campaign telemetry: the live progress event bus.

All other observability in the repo is post-hoc — counters, traces and
provenance chains materialize only after the index-ordered reduce.  This
module is the *while-it-runs* half: the
:class:`~repro.runtime.runner.ParallelCampaignRunner` emits structured
lifecycle events (``chunk_submitted``, ``chunk_done``, ``replica_failed``,
``retry``, ``checkpoint_flushed``, ``worker_heartbeat``,
``stall_suspected``, ``straggler_suspected``) to a pluggable
:class:`LiveEventBus`; the default sink appends schema-versioned JSONL to
a ``--live-log PATH`` sidecar with periodic fsync — the same durability
idiom as the checkpoint ledger, so a SIGKILL loses at most the tail and
``repro monitor`` still renders a partial-progress report.

Determinism contract
--------------------
Live records carry *wall-clock* timestamps and worker pids, so they are
excluded from every canonical digest: the bus never writes into the obs
trace, the counter registry or any per-replica value, and enabling it
must not perturb the simulation (asserted by replaying a goldens subset
with the bus on, ``tests/obs/test_live.py``).  The bus is
zero-cost-when-off: a runner without a bus takes the exact pre-bus code
path (no heartbeat dir, no poll timeout on the pool wait), held to the
same <5% disabled-path contract as the tracer in
``benchmarks/bench_obs_overhead.py``.

Heartbeats and stall detection
------------------------------
Workers stamp a heartbeat file (pid, replicas done, events simulated,
rss) into a shared temp directory after every replica; the parent folds
these into rolling throughput/ETA estimates on each poll tick and flags

* **stragglers** — chunks in flight longer than ``straggler_factor``
  times the median completed-chunk latency (flagged, not retried: the
  chunk is making progress, it is just slow);
* **stalls** — chunks whose worker has not stamped a heartbeat within
  ``stall_timeout_s``.  A stalled chunk is handed back to the runner's
  retry machinery as a structured resubmission *without waiting for pool
  teardown*; the duplicate execution is safe because results dedupe by
  replica index and replica outcomes are pure functions of
  ``(root_seed, index)``.

The reader half (:func:`read_live_log`, :func:`summarize_live`,
:func:`render_monitor_report`) powers the sim-free ``repro monitor``
CLI; parsing tolerates a truncated tail exactly like the ledger loader.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, TextIO

#: Live-log layout version (bumped on incompatible record changes).
LIVE_SCHEMA_VERSION = 1

#: Record kinds a live log may carry (unknown kinds are ignored by the
#: reader, so the schema can grow without breaking old monitors).
LIVE_EVENT_KINDS = (
    "live_header",
    "run_started",
    "chunk_submitted",
    "chunk_done",
    "replica_failed",
    "retry",
    "checkpoint_flushed",
    "worker_heartbeat",
    "progress",
    "stall_suspected",
    "straggler_suspected",
    "run_finished",
)


def _rss_kb() -> int:
    """Resident set size of this process in kB (0 where unsupported)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


# -- sinks --------------------------------------------------------------------


class JsonlLiveSink:
    """Append live records to a JSONL sidecar with periodic fsync.

    Every record is written and flushed immediately (so ``tail -f`` and
    ``repro monitor --follow`` see it); fsync is amortized — at most one
    per ``fsync_interval_s`` or every ``fsync_every`` records, whichever
    comes first — because the live log is a telemetry feed, not the
    ledger of record: losing a fraction of a second of progress events
    to a power cut is acceptable, losing replica results is not.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync_interval_s: float = 1.0,
        fsync_every: int = 64,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO = self.path.open("w", encoding="utf-8")
        self._fsync_interval_s = fsync_interval_s
        self._fsync_every = fsync_every
        self._since_fsync = 0
        self._last_fsync = time.monotonic()

    def write(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self._since_fsync += 1
        now = time.monotonic()
        if (
            self._since_fsync >= self._fsync_every
            or now - self._last_fsync >= self._fsync_interval_s
        ):
            os.fsync(self._fh.fileno())
            self._since_fsync = 0
            self._last_fsync = now

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()


class MemoryLiveSink:
    """In-memory sink for tests and embedding (e.g. a WebSocket fan-out)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        return None


class LiveEventBus:
    """Fans structured lifecycle events out to pluggable sinks.

    The first emitted record is preceded by a ``live_header`` line
    carrying the schema version, so any consumer (including one reading
    a half-written file) can validate the layout.  ``clock`` is
    injectable for byte-stable tests.
    """

    def __init__(
        self,
        sinks: tuple | list = (),
        *,
        clock=time.time,
    ) -> None:
        self.sinks = list(sinks)
        self._clock = clock
        self._header_written = False

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.sinks:
            return
        if not self._header_written:
            self._header_written = True
            header = {
                "kind": "live_header",
                "schema": LIVE_SCHEMA_VERSION,
                "t_wall": round(self._clock(), 6),
            }
            for sink in self.sinks:
                sink.write(header)
        record = {"kind": kind, "t_wall": round(self._clock(), 6), **fields}
        for sink in self.sinks:
            sink.write(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- worker-side heartbeats ---------------------------------------------------


def stamp_heartbeat(
    path: str,
    *,
    worker: str,
    chunk: int,
    replicas_done: int,
    events: int,
) -> None:
    """Worker half: atomically stamp this chunk's heartbeat file.

    Written via tmp-file + ``os.replace`` so the parent's poll never
    reads a torn line; failures are swallowed — a heartbeat is telemetry
    and must never take down the replica it describes.
    """
    record = {
        "pid": os.getpid(),
        "worker": worker,
        "chunk": chunk,
        "replicas_done": replicas_done,
        "events": events,
        "rss_kb": _rss_kb(),
        "t_wall": round(time.time(), 6),
    }
    try:
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - disk-full etc.
        pass


def read_heartbeat(path: str | Path) -> dict[str, Any] | None:
    """Parent half: tolerant read of one heartbeat file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.loads(fh.read())
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


class LiveRunMonitor:
    """Parent-side fold of heartbeats into throughput, stalls, stragglers.

    One instance per runner invocation.  The runner calls
    :meth:`chunk_submitted` / :meth:`chunk_done` as chunks move through
    the pool and :meth:`poll` on every pool-wait timeout tick; ``poll``
    returns the chunk ids it considers stalled so the runner can
    resubmit them without waiting for pool teardown.
    """

    def __init__(
        self,
        bus: LiveEventBus,
        heartbeat_dir: str | None,
        *,
        replicas_total: int,
        stall_timeout_s: float | None = None,
        straggler_factor: float = 4.0,
        clock=time.monotonic,
    ) -> None:
        self.bus = bus
        self.heartbeat_dir = heartbeat_dir
        self.replicas_total = replicas_total
        self.stall_timeout_s = stall_timeout_s
        self.straggler_factor = straggler_factor
        self._clock = clock
        #: cid -> (submit monotonic time, replica count)
        self._in_flight: dict[int, tuple[float, int]] = {}
        #: cid -> last observed heartbeat stamp (monotonic receive time)
        self._last_activity: dict[int, float] = {}
        #: cid -> last emitted (replicas_done, events) to dedupe records
        self._last_emitted: dict[int, tuple[int, int]] = {}
        self._chunk_latencies: list[float] = []
        self._flagged_stragglers: set[int] = set()
        self._flagged_stalls: set[int] = set()
        self.replicas_done = 0
        self._t0 = self._clock()

    # -- runner hooks ------------------------------------------------------

    def heartbeat_path(self, cid: int) -> str | None:
        if self.heartbeat_dir is None:
            return None
        return os.path.join(self.heartbeat_dir, f"hb-{cid}.json")

    def chunk_submitted(self, cid: int, indices: list[int], attempt: int) -> None:
        now = self._clock()
        self._in_flight[cid] = (now, len(indices))
        self._last_activity[cid] = now
        self.bus.emit(
            "chunk_submitted", chunk=cid, indices=indices, attempt=attempt
        )

    def chunk_done(
        self, cid: int, *, worker: str, replicas: int, events: int
    ) -> None:
        submitted = self._in_flight.pop(cid, None)
        self._last_activity.pop(cid, None)
        self._last_emitted.pop(cid, None)
        elapsed = None
        if submitted is not None:
            elapsed = self._clock() - submitted[0]
            self._chunk_latencies.append(elapsed)
        self.replicas_done += replicas
        self.bus.emit(
            "chunk_done",
            chunk=cid,
            worker=worker,
            replicas=replicas,
            events=events,
            elapsed_s=None if elapsed is None else round(elapsed, 6),
        )

    def replica_failed(self, index: int, error_type: str, attempts: int) -> None:
        self.bus.emit(
            "replica_failed",
            index=index,
            error_type=error_type,
            attempts=attempts,
        )

    def retry(self, chunks: int, attempt: int) -> None:
        self.bus.emit("retry", chunks=chunks, attempt=attempt)

    # -- poll tick ---------------------------------------------------------

    def poll(self) -> list[int]:
        """One parent-side tick: fold heartbeats, flag stragglers, detect
        stalls.  Returns the chunk ids newly suspected as stalled."""
        now = self._clock()
        self._fold_heartbeats(now)
        self._flag_stragglers(now)
        stalled = self._detect_stalls(now)
        self._emit_progress(now)
        return stalled

    def _fold_heartbeats(self, now: float) -> None:
        if self.heartbeat_dir is None:
            return
        for cid in list(self._in_flight):
            path = self.heartbeat_path(cid)
            record = read_heartbeat(path) if path else None
            if record is None:
                continue
            stamp = (
                int(record.get("replicas_done", 0)),
                int(record.get("events", 0)),
            )
            if self._last_emitted.get(cid) == stamp:
                continue  # no progress since the last tick
            self._last_emitted[cid] = stamp
            self._last_activity[cid] = now
            self.bus.emit(
                "worker_heartbeat",
                chunk=cid,
                worker=str(record.get("worker", "?")),
                pid=record.get("pid"),
                replicas_done=stamp[0],
                events=stamp[1],
                rss_kb=record.get("rss_kb"),
            )

    def _flag_stragglers(self, now: float) -> None:
        if len(self._chunk_latencies) < 3:
            return  # no meaningful median yet
        latencies = sorted(self._chunk_latencies)
        median = latencies[len(latencies) // 2]
        if median <= 0:
            return
        for cid, (submitted, _n) in self._in_flight.items():
            if cid in self._flagged_stragglers:
                continue
            elapsed = now - submitted
            if elapsed > self.straggler_factor * median:
                self._flagged_stragglers.add(cid)
                self.bus.emit(
                    "straggler_suspected",
                    chunk=cid,
                    elapsed_s=round(elapsed, 6),
                    median_s=round(median, 6),
                    ratio=round(elapsed / median, 3),
                )

    def _detect_stalls(self, now: float) -> list[int]:
        if self.stall_timeout_s is None:
            return []
        stalled: list[int] = []
        for cid in self._in_flight:
            if cid in self._flagged_stalls:
                continue
            silent = now - self._last_activity.get(cid, now)
            if silent > self.stall_timeout_s:
                self._flagged_stalls.add(cid)
                stalled.append(cid)
                self.bus.emit(
                    "stall_suspected",
                    chunk=cid,
                    silent_s=round(silent, 6),
                    timeout_s=self.stall_timeout_s,
                    action="resubmitted",
                )
        return stalled

    def _emit_progress(self, now: float) -> None:
        elapsed = now - self._t0
        throughput = self.replicas_done / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.replicas_total - self.replicas_done)
        eta = remaining / throughput if throughput > 0 else None
        self.bus.emit(
            "progress",
            replicas_done=self.replicas_done,
            replicas_total=self.replicas_total,
            in_flight=len(self._in_flight),
            throughput_rps=round(throughput, 4),
            eta_s=None if eta is None else round(eta, 3),
        )

    @property
    def stall_count(self) -> int:
        return len(self._flagged_stalls)


# -- reader half (repro monitor) ----------------------------------------------


def read_live_log(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Tolerant live-log parse: records plus the skipped-line count.

    Exactly the ledger idiom — any line that fails JSON parsing (a torn
    tail after SIGKILL) is skipped and counted, never fatal.  A missing
    file raises ``OSError`` for the CLI to render.
    """
    records: list[dict[str, Any]] = []
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            records.append(record)
    return records, skipped


def summarize_live(
    records: list[dict[str, Any]], *, skipped_lines: int = 0
) -> dict[str, Any]:
    """Fold live records into the monitor's structured summary.

    Every derived quantity (elapsed, throughput, ETA) comes from the
    log's own wall stamps — never from the reading host's clock — so the
    one-shot report is a pure function of the file bytes (the committed
    golden pins this).
    """
    schema = None
    started: dict[str, Any] = {}
    finished: dict[str, Any] | None = None
    replicas_done = 0
    events = 0
    retries = 0
    failures: list[dict[str, Any]] = []
    stalls: list[dict[str, Any]] = []
    stragglers: list[dict[str, Any]] = []
    checkpoint_flushes = 0
    chunks_done = 0
    in_flight: set[int] = set()
    workers: dict[str, dict[str, Any]] = {}
    t_lo: float | None = None
    t_hi: float | None = None
    for record in records:
        kind = record.get("kind")
        t_wall = record.get("t_wall")
        if isinstance(t_wall, (int, float)):
            t_lo = t_wall if t_lo is None else min(t_lo, t_wall)
            t_hi = t_wall if t_hi is None else max(t_hi, t_wall)
        if kind == "live_header":
            schema = record.get("schema")
        elif kind == "run_started":
            started = record
        elif kind == "chunk_submitted":
            in_flight.add(record.get("chunk"))
        elif kind == "chunk_done":
            in_flight.discard(record.get("chunk"))
            chunks_done += 1
            replicas_done += int(record.get("replicas", 0))
            events += int(record.get("events", 0))
            worker = str(record.get("worker", "?"))
            stats = workers.setdefault(
                worker, {"replicas": 0, "events": 0, "chunks": 0}
            )
            stats["replicas"] += int(record.get("replicas", 0))
            stats["events"] += int(record.get("events", 0))
            stats["chunks"] += 1
        elif kind == "worker_heartbeat":
            worker = str(record.get("worker", "?"))
            stats = workers.setdefault(
                worker, {"replicas": 0, "events": 0, "chunks": 0}
            )
            if record.get("rss_kb") is not None:
                stats["rss_kb"] = int(record["rss_kb"])
        elif kind == "replica_failed":
            failures.append(record)
        elif kind == "retry":
            retries += int(record.get("chunks", 0))
        elif kind == "checkpoint_flushed":
            checkpoint_flushes += 1
        elif kind == "stall_suspected":
            stalls.append(record)
        elif kind == "straggler_suspected":
            stragglers.append(record)
        elif kind == "run_finished":
            finished = record
    total = int(started.get("replicas", 0)) or None
    resumed = int(started.get("replicas_resumed", 0))
    elapsed = None if t_lo is None or t_hi is None else t_hi - t_lo
    fresh_done = replicas_done
    throughput = (
        fresh_done / elapsed if elapsed and elapsed > 0 and fresh_done else None
    )
    remaining = (
        max(0, total - resumed - fresh_done) if total is not None else None
    )
    eta_s = (
        remaining / throughput
        if throughput and remaining is not None
        else None
    )
    metrics = (finished or {}).get("metrics")
    return {
        "schema": schema,
        "command": started.get("command"),
        "workers_requested": started.get("workers"),
        "chunk_size": started.get("chunk_size"),
        "replicas_total": total,
        "replicas_resumed": resumed,
        "replicas_done": fresh_done,
        "progress": (
            None
            if total in (None, 0)
            else round((fresh_done + resumed) / total, 4)
        ),
        "chunks_done": chunks_done,
        "chunks_in_flight": sorted(c for c in in_flight if c is not None),
        "events_simulated": events,
        "elapsed_s": None if elapsed is None else round(elapsed, 3),
        "throughput_rps": (
            None if throughput is None else round(throughput, 4)
        ),
        "eta_s": None if eta_s is None else round(eta_s, 3),
        "retries": retries,
        "failures": [
            {
                "index": f.get("index"),
                "error_type": f.get("error_type"),
                "attempts": f.get("attempts"),
            }
            for f in failures
        ],
        "stalls": len(stalls),
        "stragglers": len(stragglers),
        "checkpoint_flushes": checkpoint_flushes,
        "finished": finished is not None,
        "run_metrics": metrics,
        "workers": {k: workers[k] for k in sorted(workers)},
        "skipped_lines": skipped_lines,
    }


def render_monitor_report(summary: dict[str, Any], name: str) -> str:
    """Byte-stable text report of one live-log summary."""
    from repro.analysis.reports import render_table

    lines: list[str] = []
    schema = summary["schema"]
    header = f"Live campaign telemetry: {name}"
    if schema is not None:
        header += f" (schema v{schema})"
    lines.append(header)
    command = summary["command"] or "?"
    lines.append(
        f"  command {command}, "
        f"workers {summary['workers_requested'] or '?'}, "
        f"chunk size {summary['chunk_size'] or '?'}"
    )
    total = summary["replicas_total"]
    done = summary["replicas_done"] + summary["replicas_resumed"]
    if total:
        pct = f"{(done / total):.0%}"
        status = "finished" if summary["finished"] else "IN FLIGHT"
        lines.append(
            f"  progress: {done}/{total} replicas ({pct}), {status}"
        )
    else:
        lines.append(
            f"  progress: {done} replicas (total unknown — header missing)"
        )
    if summary["replicas_resumed"]:
        lines.append(
            f"  resumed from checkpoint: {summary['replicas_resumed']} "
            "replica(s)"
        )
    if summary["elapsed_s"] is not None:
        lines.append(f"  elapsed (log time): {summary['elapsed_s']:.3f} s")
    if summary["throughput_rps"] is not None:
        lines.append(
            f"  throughput: {summary['throughput_rps']:.4f} replicas/s"
        )
    if summary["eta_s"] is not None and not summary["finished"]:
        lines.append(f"  ETA: {summary['eta_s']:.3f} s")
    lines.append(f"  events simulated: {summary['events_simulated']:,}")
    lines.append(
        f"  chunks: {summary['chunks_done']} done, "
        f"{len(summary['chunks_in_flight'])} in flight"
        + (
            f" {summary['chunks_in_flight']}"
            if summary["chunks_in_flight"]
            else ""
        )
    )
    lines.append(
        f"  retries: {summary['retries']}, "
        f"stalls: {summary['stalls']}, "
        f"stragglers: {summary['stragglers']}, "
        f"checkpoint flushes: {summary['checkpoint_flushes']}"
    )
    if summary["failures"]:
        for failure in summary["failures"]:
            lines.append(
                f"  FAILED replica {failure['index']}: "
                f"{failure['error_type']} "
                f"(attempt {failure['attempts']})"
            )
    if summary["skipped_lines"]:
        lines.append(
            f"  [tolerant tail: {summary['skipped_lines']} unparseable "
            "line(s) skipped]"
        )
    if summary["workers"]:
        rows = []
        for worker, stats in summary["workers"].items():
            rss = stats.get("rss_kb")
            rows.append(
                [
                    worker,
                    stats["chunks"],
                    stats["replicas"],
                    f"{stats['events']:,}",
                    "-" if rss is None else f"{rss / 1024:.0f} MB",
                ]
            )
        lines.append(
            render_table(
                ["worker", "chunks", "replicas", "events", "rss"],
                rows,
                title="Per-worker throughput",
            )
        )
    metrics = summary["run_metrics"]
    if metrics:
        lines.append(
            "  final metrics: "
            f"{metrics.get('events_per_second', 0):,.0f} events/s, "
            f"{metrics.get('replicas_resumed', 0)} resumed, "
            f"{metrics.get('replicas_failed', 0)} failed "
            f"(schema v{metrics.get('schema', '?')})"
        )
    return "\n".join(lines) + "\n"


def monitor_once(path: str | Path) -> tuple[dict[str, Any], str]:
    """One-shot monitor pass: summary dict plus the rendered report."""
    records, skipped = read_live_log(path)
    summary = summarize_live(records, skipped_lines=skipped)
    return summary, render_monitor_report(summary, Path(path).name)


def serve_metrics_once(
    live_log: str | Path,
    *,
    port: int = 0,
    host: str = "127.0.0.1",
    requests: int = 1,
    started=None,
) -> int:
    """Serve the OpenMetrics snapshot over HTTP, one request at a time.

    Serves the ``<live-log>.prom`` sidecar when the run wrote one
    (merged counters + run-metrics gauges), else renders gauges from the
    live log on the fly.  Binds ``host:port`` (port 0 = ephemeral),
    optionally signals ``started`` (a ``threading.Event`` with the bound
    port stashed on ``started.port``) and handles exactly ``requests``
    requests before returning the bound port — one-shot by design: the
    monitor is a pull-based exposition endpoint, not a daemon.
    """
    from http.server import BaseHTTPRequestHandler, HTTPServer

    live_log = Path(live_log)
    prom = live_log.with_name(live_log.name + ".prom")

    def _payload() -> str:
        if prom.exists():
            return prom.read_text(encoding="utf-8")
        from repro.obs.openmetrics import render_openmetrics

        summary, _report = monitor_once(live_log)
        return render_openmetrics(live_summary=summary)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            body = _payload().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type",
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args: Any) -> None:  # quiet tests
            return None

    server = HTTPServer((host, port), Handler)
    bound = server.server_address[1]
    if started is not None:
        started.port = bound
        started.set()
    try:
        for _ in range(requests):
            server.handle_request()
    finally:
        server.server_close()
    return bound
