"""Structured run metrics for campaign/fleet executions.

Every :class:`~repro.runtime.runner.ParallelCampaignRunner` run produces
one :class:`RunMetrics` record — wall time, simulated event throughput
and per-worker utilization — serialisable to JSON so that benchmarks
write machine-readable ``BENCH_*.json`` trajectories instead of loose
text files, and CLI invocations can be profiled with ``--metrics-json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: RunMetrics dict-layout version.  Consumers that parse ``to_dict()``
#: payloads (``--metrics-json`` files, live-log ``run_finished`` records,
#: ``repro monitor`` summaries) key tolerant parsing off this field.
METRICS_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Execution profile of one runner invocation.

    Attributes
    ----------
    replicas:
        Number of replicas executed.
    workers:
        Worker processes requested (1 = serial in-process).
    chunk_size:
        Replicas per submitted work chunk.
    wall_time_s:
        End-to-end wall-clock time of the run (submit to reduce).
    events_simulated:
        Total discrete events executed across all replicas (0 when the
        task does not report event counts).
    events_per_second:
        ``events_simulated / wall_time_s`` — the headline throughput.
    retries:
        Chunks that had to be resubmitted after a worker crash or a
        captured replica failure — only chunks that genuinely re-ran;
        chunks whose results were drained from a breaking pool are
        never counted (or re-executed).
    leaked_worker_pids:
        Worker processes that were still alive after the bounded
        pool-shutdown wait (candidates for an external reaper; an empty
        tuple means every worker exited cleanly).
    replicas_failed:
        Replicas that produced no value after retry exhaustion
        (non-zero only under the ``"salvage"`` policy).
    replicas_resumed:
        Replicas loaded from a checkpoint ledger instead of executed;
        their compute happened in a previous process, so they are
        excluded from ``events_simulated`` and busy-time accounting.
    worker_busy_s:
        Cumulative in-replica compute time attributed to each worker
        (keyed by worker label, e.g. ``"pid-1234"`` or ``"serial"``).
    worker_utilization:
        ``busy_s / wall_time_s`` per worker — how much of the wall time
        each worker spent inside replica code.
    """

    replicas: int
    workers: int
    chunk_size: int
    wall_time_s: float
    events_simulated: int
    events_per_second: float
    retries: int = 0
    worker_busy_s: dict[str, float] = field(default_factory=dict)
    worker_utilization: dict[str, float] = field(default_factory=dict)
    leaked_worker_pids: tuple[int, ...] = ()
    replicas_failed: int = 0
    replicas_resumed: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe scalars only)."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "replicas": self.replicas,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "wall_time_s": round(self.wall_time_s, 6),
            "events_simulated": self.events_simulated,
            "events_per_second": round(self.events_per_second, 3),
            "retries": self.retries,
            "worker_busy_s": {
                k: round(v, 6) for k, v in sorted(self.worker_busy_s.items())
            },
            "worker_utilization": {
                k: round(v, 4)
                for k, v in sorted(self.worker_utilization.items())
            },
            "leaked_worker_pids": list(self.leaked_worker_pids),
            "replicas_failed": self.replicas_failed,
            "replicas_resumed": self.replicas_resumed,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str | Path) -> Path:
        """Write the record to ``path`` (parent dirs created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_results(
        cls,
        *,
        replicas: int,
        workers: int,
        chunk_size: int,
        wall_time_s: float,
        retries: int,
        events: list[int],
        busy_by_worker: dict[str, float],
        leaked_worker_pids: tuple[int, ...] = (),
        replicas_failed: int = 0,
        replicas_resumed: int = 0,
    ) -> "RunMetrics":
        """Assemble the record from per-replica accounting."""
        total_events = int(sum(events))
        wall = max(wall_time_s, 1e-9)
        return cls(
            replicas=replicas,
            workers=workers,
            chunk_size=chunk_size,
            wall_time_s=wall_time_s,
            events_simulated=total_events,
            events_per_second=total_events / wall,
            retries=retries,
            worker_busy_s=dict(busy_by_worker),
            worker_utilization={
                k: v / wall for k, v in busy_by_worker.items()
            },
            leaked_worker_pids=tuple(leaked_worker_pids),
            replicas_failed=replicas_failed,
            replicas_resumed=replicas_resumed,
        )
