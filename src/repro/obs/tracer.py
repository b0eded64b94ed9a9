"""Structured span/event tracer and its JSONL files (trace schema v2).

The tracer records two shapes of observation:

* **events** — instantaneous facts (``detector.symptom``, ``ona.trigger``,
  ``alpha.promotion``) with a simulated-time stamp and free-form scalar
  attributes;
* **spans** — bracketed regions (``assessment.epoch``, ``ona.wearout``)
  carrying a monotonic wall-clock duration, opened via a context manager.

Every record holds both clocks: ``t_sim_us`` (integer simulated
microseconds, deterministic) and ``t_wall_s`` (``time.perf_counter``,
monotonic, host-dependent).  The determinism contract therefore splits:
:func:`canonical_lines` / :func:`trace_digest` cover only the
deterministic fields, so a golden obs trace pins simulation semantics
without pinning host timing, while the raw JSONL keeps the wall stamps
for profiling.

Zero cost when disabled
-----------------------
A disabled tracer's :meth:`Tracer.event` returns immediately and
:meth:`Tracer.span` hands back a shared no-op context manager — no record
allocation, no clock reads.  Instrumentation sites additionally gate on
``Observability.enabled`` (one attribute check) so a production run pays
only that branch; the obs-overhead benchmark holds the tracer-on path to
<5 % on the A10 random-fault campaign.

Schema (version 2)
------------------
One JSON object per line.  The first line is a ``meta`` record::

    {"schema": 2, "kind": "meta", "name": "trace.header", "attrs": {...}}

Subsequent lines::

    {"seq": <int>, "kind": "event"|"span", "name": <dotted str>,
     "t_sim_us": <int|null>, "t_wall_s": <float>,
     "dur_s": <float|null>,            # spans only
     "attrs": {<str>: <scalar>, ...},
     "cause_id": <str>,                # optional, provenance node id
     "parents": [<str>, ...],          # optional, causal parent ids
     "replica": <int>}                 # optional, multi-replica traces

``name`` is dot-namespaced; the first segment identifies the subsystem
(``sim``, ``detector``, ``dissemination``, ``assessment``, ``ona``,
``alpha``, ``trust``, ``maintenance``).

Version 2 adds the optional ``cause_id``/``parents`` lineage fields
(top-level, *not* attrs — attrs stay flat scalars) written only when a
record participates in the causal provenance DAG (``fault.injected`` →
``detector.symptom`` → … → ``maintenance.recommendation``; see
``repro.obs.provenance``).  v1 files remain readable: readers accept both
versions and records without lineage simply have no provenance.  The
determinism digest (:func:`canonical_lines`) is unchanged — it never
covered unknown top-level fields, so v1 and v2 traces of the same run
hash identically.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.jsonl import read_json_lines
from repro.sim.trace import _canonical_value

#: Version stamp written into every trace header; bump on layout changes.
TRACE_SCHEMA_VERSION = 2

#: Header versions readers accept (v1 predates cause_id/parents lineage).
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Record kinds a schema-valid trace line may carry.
RECORD_KINDS = ("meta", "event", "span")


@dataclass(slots=True)
class ObsRecord:
    """One trace record (an event, a closed span, or the meta header)."""

    seq: int
    kind: str
    name: str
    t_sim_us: int | None
    t_wall_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    dur_s: float | None = None
    replica: int | None = None
    cause_id: str | None = None
    parents: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict in schema-v2 line layout."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "t_sim_us": self.t_sim_us,
            "t_wall_s": round(self.t_wall_s, 9),
            "attrs": dict(self.attrs),
        }
        if self.kind == "span":
            out["dur_s"] = round(self.dur_s or 0.0, 9)
        if self.cause_id is not None:
            out["cause_id"] = self.cause_id
            if self.parents:
                out["parents"] = list(self.parents)
        if self.replica is not None:
            out["replica"] = self.replica
        return out


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; closing it records the wall-clock duration."""

    __slots__ = ("_tracer", "name", "t_sim_us", "attrs", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        t_sim_us: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.t_sim_us = t_sim_us
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        t1 = tracer._clock()
        tracer._record(
            "span",
            self.name,
            self.t_sim_us,
            self.attrs,
            dur_s=t1 - self._t0,
            t_wall_s=self._t0,
        )


class Tracer:
    """Span/event recorder; records accumulate in :attr:`records`.

    Parameters
    ----------
    enabled:
        When False the tracer is inert (see module docstring).
    keep_records:
        False in fold-only provenance mode: only the causal log is kept,
        and events, spans and the header are dropped unrecorded.
    clock:
        Monotonic wall-clock source, injectable for tests.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        keep_records: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.records: list[ObsRecord] = []
        #: Compact (name, t_sim_us, cause_id, parents, attrs) tuples, one
        #: per causal event — the stage-latency fold reads these, so
        #: provenance never *requires* full record retention.
        self.causal_log: list[tuple] = []
        #: Hot instrumentation sites may consult this to skip building
        #: attrs for records that would be dropped anyway.
        self.keeps_records = keep_records
        self._clock = clock
        self._seq = 0

    # -- recording --------------------------------------------------------

    def event(self, name: str, t_sim_us: int | None = None, **attrs: Any) -> None:
        """Record one instantaneous event (no-op when disabled)."""
        if not self.enabled or not self.keeps_records:
            return
        self._record("event", name, t_sim_us, attrs)

    def causal_event(
        self,
        name: str,
        t_sim_us: int | None,
        cause_id: str,
        parents: tuple[str, ...],
        **attrs: Any,
    ) -> None:
        """Record one event carrying provenance lineage (schema v2)."""
        if not self.enabled:
            return
        self.causal_log.append((name, t_sim_us, cause_id, parents, attrs))
        if self.keeps_records:
            self._record(
                "event",
                name,
                t_sim_us,
                attrs,
                cause_id=cause_id,
                parents=parents,
            )

    def span(self, name: str, t_sim_us: int | None = None, **attrs: Any):
        """Context manager bracketing a region; records on exit."""
        if not self.enabled or not self.keeps_records:
            return _NULL_SPAN
        return _Span(self, name, t_sim_us, attrs)

    def meta(self, **attrs: Any) -> None:
        """Record the trace header (normally written once, first)."""
        if not self.enabled or not self.keeps_records:
            return
        self._record("meta", "trace.header", None, attrs)

    def _record(
        self,
        kind: str,
        name: str,
        t_sim_us: int | None,
        attrs: dict[str, Any],
        *,
        dur_s: float | None = None,
        t_wall_s: float | None = None,
        cause_id: str | None = None,
        parents: tuple[str, ...] = (),
    ) -> None:
        rec = ObsRecord(
            seq=self._seq,
            kind=kind,
            name=name,
            t_sim_us=None if t_sim_us is None else int(t_sim_us),
            t_wall_s=self._clock() if t_wall_s is None else t_wall_s,
            attrs=attrs,
            dur_s=dur_s,
            cause_id=cause_id,
            parents=parents,
        )
        self._seq += 1
        self.records.append(rec)

    # -- export -----------------------------------------------------------

    def record_dicts(self) -> list[dict[str, Any]]:
        """In-memory records as schema-v2 dicts."""
        return [_line_dict(r) for r in self.records]

    def clear(self) -> None:
        self.records.clear()
        self.causal_log.clear()


def _line_dict(rec: ObsRecord) -> dict[str, Any]:
    d = rec.to_dict()
    if rec.kind == "meta":
        d = {"schema": TRACE_SCHEMA_VERSION, **d}
        d.pop("t_sim_us", None)
        d.pop("seq", None)
        d.pop("t_wall_s", None)
    return d


# -- JSONL files --------------------------------------------------------------


def write_jsonl(
    path: str | Path,
    records: Iterable[Mapping[str, Any]],
    *,
    header_attrs: Mapping[str, Any] | None = None,
) -> Path:
    """Write a schema-v2 JSONL trace file (parent dirs created).

    ``records`` are line dicts (``Tracer.record_dicts`` output or
    equivalent).  A ``meta`` header line is prepended unless the first
    record already is one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = list(records)
    with path.open("w", encoding="utf-8") as fh:
        if not records or records[0].get("kind") != "meta":
            header = {
                "schema": TRACE_SCHEMA_VERSION,
                "kind": "meta",
                "name": "trace.header",
                "attrs": dict(header_attrs or {}),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(dict(rec), sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace file into line dicts (no schema validation).

    Strict (:func:`repro.jsonl.read_json_lines`): a line that is not a
    JSON object raises :class:`~repro.errors.ConfigurationError` naming
    its line number, so CLI consumers surface one friendly message
    instead of a decoder traceback.
    """
    entries, _skipped = read_json_lines(path, tolerant=False)
    return [record for _lineno, record in entries]


# -- schema validation ---------------------------------------------------------


def validate_record(rec: Mapping[str, Any]) -> list[str]:
    """Return schema violations of one trace line (empty = valid)."""
    errors: list[str] = []
    kind = rec.get("kind")
    if kind not in RECORD_KINDS:
        errors.append(f"kind must be one of {RECORD_KINDS}, got {kind!r}")
        return errors
    if not isinstance(rec.get("name"), str) or not rec.get("name"):
        errors.append("name must be a non-empty string")
    attrs = rec.get("attrs")
    if not isinstance(attrs, Mapping):
        errors.append("attrs must be an object")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str):
                errors.append(f"attr key {key!r} is not a string")
            if value is not None and not isinstance(
                value, (str, int, float, bool)
            ):
                errors.append(
                    f"attr {key!r} must be a JSON scalar, got {type(value).__name__}"
                )
    if kind == "meta":
        if rec.get("schema") not in SUPPORTED_SCHEMA_VERSIONS:
            errors.append(
                f"meta.schema must be one of {SUPPORTED_SCHEMA_VERSIONS}, "
                f"got {rec.get('schema')!r}"
            )
        return errors
    if not isinstance(rec.get("seq"), int):
        errors.append("seq must be an integer")
    t_sim = rec.get("t_sim_us")
    if t_sim is not None and not isinstance(t_sim, int):
        errors.append(f"t_sim_us must be an integer or null, got {t_sim!r}")
    if not isinstance(rec.get("t_wall_s"), (int, float)):
        errors.append("t_wall_s must be a number")
    if kind == "span" and not isinstance(rec.get("dur_s"), (int, float)):
        errors.append("span records must carry a numeric dur_s")
    replica = rec.get("replica")
    if replica is not None and not isinstance(replica, int):
        errors.append(f"replica must be an integer when present, got {replica!r}")
    cause_id = rec.get("cause_id")
    if cause_id is not None and (not isinstance(cause_id, str) or not cause_id):
        errors.append(
            f"cause_id must be a non-empty string when present, got {cause_id!r}"
        )
    parents = rec.get("parents")
    if parents is not None:
        if cause_id is None:
            errors.append("parents requires a cause_id on the same record")
        if not isinstance(parents, (list, tuple)) or not all(
            isinstance(p, str) and p for p in parents
        ):
            errors.append(
                f"parents must be a list of non-empty strings, got {parents!r}"
            )
    return errors


def validate_trace(records: Iterable[Mapping[str, Any]]) -> None:
    """Raise :class:`ConfigurationError` on the first invalid line."""
    empty = True
    for i, rec in enumerate(records):
        empty = False
        errors = validate_record(rec)
        if errors:
            raise ConfigurationError(
                f"trace line {i} is schema-invalid: {'; '.join(errors)}"
            )
        if i == 0 and rec.get("kind") != "meta":
            raise ConfigurationError(
                "trace must start with a meta header line"
            )
    if empty:
        raise ConfigurationError("trace is empty (no meta header)")


# -- determinism contract ------------------------------------------------------


def canonical_lines(
    records: Iterable[Mapping[str, Any]],
) -> Iterator[str]:
    """Stable text form of the deterministic trace fields.

    Wall-clock fields (``t_wall_s``, ``dur_s``, ``seq``) are excluded —
    two runs of the same seeded scenario are obs-trace-equivalent iff
    these lines match, regardless of host speed.  Meta headers are
    skipped (they may carry run-local context such as file paths).
    """
    for rec in records:
        if rec.get("kind") == "meta":
            continue
        attrs = rec.get("attrs") or {}
        payload = " ".join(
            f"{key}={_canonical_value(attrs[key])}" for key in sorted(attrs)
        )
        replica = rec.get("replica")
        prefix = f"r{replica} " if replica is not None else ""
        t_sim = rec.get("t_sim_us")
        yield (
            f"{prefix}{rec.get('kind')} {rec.get('name')} "
            f"{'-' if t_sim is None else t_sim} {payload}"
        ).rstrip()


def trace_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 over :func:`canonical_lines` — the golden-trace anchor."""
    import hashlib

    h = hashlib.sha256()
    for line in canonical_lines(records):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
