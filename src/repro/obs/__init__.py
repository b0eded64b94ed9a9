"""``repro.obs`` — structured observability for the diagnostic stack.

One :class:`Observability` context bundles the three instruments the
DECOS reproduction exposes:

* a **tracer** (:mod:`repro.obs.tracer`) — spans and events with
  simulated + wall clocks, JSONL files, schema v2;
* a **counter registry** (:mod:`repro.obs.counters`) — monotone counters
  and simulated-time histograms with a deterministic cross-process merge;
* an optional **provenance tracker** (:mod:`repro.obs.provenance`) —
  ``cause_id``/``parents`` lineage linking injected faults through
  symptoms, ONAs, alpha-counts and trust to maintenance actions
  (rendered by ``repro explain``).

Two sibling modules cover the *while-it-runs* and *exposition* halves:
:mod:`repro.obs.live` (a run's live log and its one writer, worker
heartbeats and stall detection, read by ``repro monitor``) and
:mod:`repro.obs.openmetrics` (the OpenMetrics rendering of the live
log's fold: merged counters and run metrics).  Both are lazy —
importing ``repro.obs`` never loads them, so the hot path pays nothing
for them.  So is
:mod:`repro.obs.profiler`, the per-module calls and self time behind the
CLI's ``--profile`` and the call budget.

The stack is instrumented against the *active* context
(:mod:`repro.obs.state`), which defaults to a disabled singleton: every
hook is one attribute check and a branch, so an uninstrumented-feeling
production path stays the default.  Enable per run::

    from repro import obs

    with obs.activated(obs.Observability()) as o:
        cluster.run(seconds(2))
    print(o.counters.get("detector.symptoms"))

or process-wide via :func:`set_obs`.  Worker replicas of the parallel
runtime install their own context around each replica and ship the
counter snapshot (plus optional trace records) back through the
index-ordered reduce — see :mod:`repro.runtime.workloads` and
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.obs import state as _state
from repro.obs.counters import CounterRegistry, Histogram, counter_key
from repro.obs.provenance import (
    ProvenanceTracker,
    fold_stage_latencies,
    histogram_quantile,
)
from repro.obs.tracer import (
    SUPPORTED_SCHEMA_VERSIONS,
    TRACE_SCHEMA_VERSION,
    ObsRecord,
    Tracer,
    canonical_lines,
    read_jsonl,
    trace_digest,
    validate_record,
    validate_trace,
    write_jsonl,
)

__all__ = [
    "LIVE_SCHEMA_VERSION",
    "LiveEventBus",
    "SUPPORTED_SCHEMA_VERSIONS",
    "TRACE_SCHEMA_VERSION",
    "CounterRegistry",
    "Histogram",
    "ObsRecord",
    "Observability",
    "ProvenanceTracker",
    "Tracer",
    "activated",
    "canonical_lines",
    "counter_key",
    "fold_stage_latencies",
    "get_obs",
    "histogram_quantile",
    "read_jsonl",
    "render_openmetrics",
    "set_obs",
    "trace_digest",
    "validate_record",
    "validate_trace",
    "write_jsonl",
]


class Observability:
    """Tracer + counters + optional provenance behind one enabled flag.

    Parameters
    ----------
    enabled:
        Master switch checked by every instrumentation site.
    trace:
        Record spans/events (False keeps counters only; the tracer is
        swapped for an inert one).
    provenance:
        Attach a :class:`~repro.obs.provenance.ProvenanceTracker` so
        pipeline records carry ``cause_id``/``parents`` lineage (default
        off — the lineage dict work is the provenance-overhead budget of
        ``bench_obs_overhead``).  With ``trace=False`` the tracer keeps
        only the compact causal log the stage-latency fold reads, not
        full records — campaign replicas aggregate without paying for
        record retention; keep ``trace=True`` (the default) when the
        records themselves are wanted (``repro explain``, JSONL export).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        trace: bool = True,
        provenance: bool = False,
    ) -> None:
        self.enabled = enabled
        self.counters = CounterRegistry()
        self.tracer = Tracer(
            enabled=enabled and (trace or provenance), keep_records=trace
        )
        self.provenance: ProvenanceTracker | None = (
            ProvenanceTracker() if (enabled and provenance) else None
        )

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False, trace=False)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Counter-registry snapshot (deterministic, picklable)."""
        return self.counters.snapshot()

    def trace_dicts(self) -> list[dict[str, Any]]:
        """In-memory trace records as schema-v2 line dicts."""
        return self.tracer.record_dicts()


#: Lazy exports (PEP 562): the live-telemetry and OpenMetrics modules
#: load on first attribute access only, keeping ``import repro.obs``
#: byte-cheap for the instrumentation hot path.
_LAZY_EXPORTS = {
    "LIVE_SCHEMA_VERSION": ("repro.obs.live", "LIVE_SCHEMA_VERSION"),
    "LiveEventBus": ("repro.obs.live", "LiveEventBus"),
    "render_openmetrics": ("repro.obs.openmetrics", "render_openmetrics"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


#: Disabled singleton — the default active context.
DISABLED = Observability.disabled()
_state.ACTIVE = DISABLED


def get_obs() -> Observability:
    """The currently active observability context."""
    return _state.ACTIVE


def set_obs(obs: Observability | None) -> Observability:
    """Install ``obs`` (None = disabled) as active; returns the previous."""
    previous = _state.ACTIVE
    _state.ACTIVE = obs if obs is not None else DISABLED
    return previous


@contextmanager
def activated(obs: Observability | None = None):
    """Scoped activation; restores the previous context on exit."""
    obs = obs if obs is not None else Observability()
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        _state.ACTIVE = previous
