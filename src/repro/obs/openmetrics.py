"""OpenMetrics text exposition for counter snapshots and run metrics.

Renders a :class:`~repro.obs.counters.CounterRegistry` snapshot — flat
counters plus power-of-two histograms — in the OpenMetrics text format
(the superset Prometheus scrapes): counters get a ``_total`` suffix,
histograms expand to cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``, and :class:`~repro.runtime.metrics.RunMetrics`
fields become gauges.  The output ends with the mandatory ``# EOF``
terminator and is written as a ``<live-log>.prom`` snapshot at the end
of a ``--live-log`` run, served one-shot by ``repro monitor --serve``.

Naming conventions (documented in docs/observability.md):

* every series is prefixed ``repro_``;
* dots and other non-metric characters in registry keys map to ``_``
  (``sim.events`` → ``repro_sim_events_total``);
* registry labels (``name{k=v,...}``) pass through as OpenMetrics
  labels with values escaped per the spec;
* histogram ``le`` bounds are the registry's power-of-two bucket upper
  edges (``1``, ``2``, ``4``, …) plus ``+Inf``, cumulative as required.

Stdlib-only and sim-free, like the rest of the exposition path.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Any

from repro.obs.counters import split_key

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str, suffix: str = "") -> str:
    name = _NAME_OK.sub("_", raw.strip("_"))
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = f"m_{name}"
    return f"repro_{name}{suffix}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """A registry key's name and labels, the label names sanitised."""
    name, labels = split_key(key)
    return name, {_NAME_OK.sub("_", k): v for k, v in labels.items()}


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(labels[k]))}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: RunMetrics fields exported as gauges (name → help text).
_RUN_GAUGES = {
    "replicas": "Replicas requested in this run",
    "workers": "Worker processes used",
    "chunk_size": "Replicas per pool chunk",
    "wall_time_s": "Wall-clock duration of the run",
    "events_simulated": "Total simulation events across replicas",
    "events_per_second": "Aggregate simulated-event throughput",
    "replicas_failed": "Replicas that exhausted retries",
    "replicas_resumed": "Replicas restored from a checkpoint ledger",
    "retries": "Chunk retries performed",
}


def render_openmetrics(
    snapshot: Mapping[str, Any] | None = None,
    run_metrics: Mapping[str, Any] | None = None,
    *,
    live_summary: Mapping[str, Any] | None = None,
) -> str:
    """Render counters/histograms/run-gauges as OpenMetrics text.

    Any combination of inputs may be given: ``snapshot`` is a
    ``CounterRegistry.snapshot()``, ``run_metrics`` a
    ``RunMetrics.to_dict()``, and ``live_summary`` a
    ``summarize_live()`` fold (used by ``repro monitor --serve`` when
    the run died before writing its ``.prom`` snapshot).
    """
    lines: list[str] = []

    for key in sorted((snapshot or {}).get("counters", {})):
        value = snapshot["counters"][key]
        raw, labels = _split_key(key)
        name = _metric_name(raw, "_total")
        base = name[: -len("_total")]
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{name}{_labels_text(labels)} {_fmt(value)}")

    for key in sorted((snapshot or {}).get("histograms", {})):
        data = snapshot["histograms"][key]
        raw, labels = _split_key(key)
        base = _metric_name(raw)
        lines.append(f"# TYPE {base} histogram")
        buckets = {int(b): int(n) for b, n in data.get("buckets", {}).items()}
        cumulative = 0
        for b in sorted(buckets):
            cumulative += buckets[b]
            le = _fmt(float(2**b))
            bucket_labels = dict(labels, le=le)
            lines.append(
                f"{base}_bucket{_labels_text(bucket_labels)} {cumulative}"
            )
        inf_labels = dict(labels, le="+Inf")
        lines.append(
            f"{base}_bucket{_labels_text(inf_labels)} {int(data['count'])}"
        )
        lines.append(f"{base}_sum{_labels_text(labels)} {_fmt(data['sum'])}")
        lines.append(
            f"{base}_count{_labels_text(labels)} {int(data['count'])}"
        )

    metrics = dict(run_metrics or {})
    if not metrics and live_summary:
        # Degraded exposition from a live log alone (run still in
        # flight or killed): progress gauges derived from the fold.
        for field, value in (
            ("replicas", live_summary.get("replicas_total")),
            ("replicas_resumed", live_summary.get("replicas_resumed")),
            ("replicas_done", live_summary.get("replicas_done")),
            ("events_simulated", live_summary.get("events_simulated")),
            ("retries", live_summary.get("retries")),
            ("stalls", live_summary.get("stalls")),
            ("chunks_done", live_summary.get("chunks_done")),
        ):
            if value is None:
                continue
            name = _metric_name(f"run_{field}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(value)}")
    for field, help_text in _RUN_GAUGES.items():
        if field not in metrics or metrics[field] is None:
            continue
        name = _metric_name(f"run_{field}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"{name} {_fmt(metrics[field])}")
    if metrics.get("schema") is not None:
        name = _metric_name("run_info")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_labels_text({'schema': metrics['schema']})} 1")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
