"""The one codec between replica results and the declared tables.

Every durable artefact of a campaign — a store part and every chunk line
of the checkpoint ledger — holds replica results as the tables declared
in :mod:`repro.storage.schema`, written by :func:`encode` and read back
by :func:`decode`.  ``repro resume``, ``repro whatif LEDGER`` and
``repro whatif STORE`` all rebuild their
:class:`~repro.runtime.runner.ReplicaResult` values here, and no file is
ever unpickled.

A *kind* names the value class of a part's replicas (:data:`VALUE_KINDS`);
``schema.KIND_TABLES`` lists the tables that hold its fields.
:func:`encode` is duck-typed over the value fields and imports nothing
from the simulator, so the store's write and query paths stay sim-free;
:func:`decode` imports a kind's value class the first time it decodes
that kind.  Values come back with their Python types — ``int`` counters
stay ``int``, a ``None`` counter snapshot stays ``None``, tuples stay
tuples — which ``tests/storage/test_codec_roundtrip.py`` pins for every
kind.
"""

from __future__ import annotations

import importlib
import json
from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.schema import TABLES, tables_for_kind

#: Declared value kinds: ``kind -> (module, class name)``.
VALUE_KINDS: dict[str, tuple[str, str]] = {
    "campaign": ("repro.faults.campaign", "CampaignReplicaOutcome"),
    "fleet": ("repro.analysis.fleet_sim", "VehicleOutcome"),
    "catalogue": ("repro.analysis.scenarios", "CatalogueCellOutcome"),
}

_KIND_BY_CLASS = {where: kind for kind, where in VALUE_KINDS.items()}

#: The tables of a kind that are not per-replica value fields.
_ENVELOPE = ("replicas", "failures")


def canonical_json(value: Any) -> str:
    """Sorted keys, compact separators, NaN allowed: one text per value."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def _kind_of(value: Any) -> str:
    """The declared kind of one replica value."""
    cls = type(value)
    kind = _KIND_BY_CLASS.get((cls.__module__, cls.__qualname__))
    if kind is None:
        raise ConfigurationError(
            f"replica values of type {cls.__module__}.{cls.__qualname__} "
            "have no declared storage kind, so they cannot be checkpointed "
            f"or stored (declared: {sorted(VALUE_KINDS)})"
        )
    return kind


def _maybe_float(value: Any) -> float | None:
    return None if value is None else float(value)


def _add(table: dict[str, list], *row: Any) -> None:
    """Append one row; its values follow the declared column order."""
    for column, value in zip(table.values(), row, strict=True):
        column.append(value)


# -- encode -------------------------------------------------------------------


def _encode_campaign(i: int, v: Any, t: dict) -> None:
    faults = zip(v.plan_events, v.attributed, strict=True)
    for n, ((mechanism, target, at_us), hit) in enumerate(faults):
        _add(t["plan_events"], i, n, mechanism, target, int(at_us), bool(hit))
    for name in ("alpha_state", "trust_state"):
        for fru, value in getattr(v, name):
            _add(t[name], i, fru, float(value))
    snapshot = v.obs_counters or {}
    for key, value in snapshot.get("counters", {}).items():
        exact = type(value) is int
        values = (value, None) if exact else (None, float(value))
        _add(t["replica_counters"], i, key, *values)
    for key, h in snapshot.get("histograms", {}).items():
        lo, hi = _maybe_float(h["min"]), _maybe_float(h["max"])
        buckets = canonical_json(h["buckets"])
        state = (int(h["count"]), float(h["sum"]), lo, hi, buckets)
        _add(t["replica_histograms"], i, key, *state)
    for record in v.obs_trace:
        _add(t["replica_trace"], i, canonical_json(record))


def _encode_fleet(i: int, v: Any, t: dict) -> None:
    _add(t["vehicles"], i, bool(v.with_fault), bool(v.detected))
    for n, count in enumerate(v.counts):
        _add(t["vehicle_counts"], i, n, int(count))


def _encode_catalogue(i: int, v: Any, t: dict) -> None:
    predicted = None if v.predicted is None else v.predicted.value
    cell = (v.scenario, int(v.seed), v.truth.value, predicted, int(v.spurious))
    _add(t["cells"], i, *cell)
    for strategy in ("integrated", "obd"):
        actions = getattr(v, f"{strategy}_actions")
        for n, (action, justified) in enumerate(actions):
            row = (strategy, n, action.value, bool(justified))
            _add(t["cell_actions"], i, *row)


_ENCODERS = {
    "campaign": _encode_campaign,
    "fleet": _encode_fleet,
    "catalogue": _encode_catalogue,
}


def encode(
    results: Sequence[Any], root_seed: int, failures: Sequence[Any] = ()
) -> tuple[str, dict[str, dict[str, list]]]:
    """``(kind, tables)`` holding ``results`` (and salvage ``failures``).

    The kind is the kind of the values; a batch with no values is
    ``generic``.  A value whose type has no declared kind, or a batch
    that mixes kinds, raises :class:`ConfigurationError`.
    """
    from repro.runtime.seeds import stream_fingerprint

    kinds = {_kind_of(r.value) for r in results}
    if len(kinds) > 1:
        raise ConfigurationError(
            f"one batch of replica results mixes kinds {sorted(kinds)!r}"
        )
    kind = kinds.pop() if kinds else "generic"
    tables = {
        name: {column: [] for column in TABLES[name]}
        for name in tables_for_kind(kind)
    }
    for r in results:
        v, i = r.value, int(r.index)
        snapshot = getattr(v, "obs_counters", None)
        _add(
            tables["replicas"],
            i,
            stream_fingerprint(root_seed, i),
            int(getattr(v, "verdicts_emitted", 0)),
            int(v.events_simulated),
            float(r.elapsed_s),
            str(r.worker),
            None if snapshot is None else int(snapshot["schema"]),
        )
        _ENCODERS[kind](i, v, tables)
    for f in failures:
        row = (f.error_type, f.message, f.traceback, int(f.attempts), f.worker)
        _add(tables["failures"], int(f.index), *row)
    return kind, tables


# -- decode -------------------------------------------------------------------


def _grouped(table: Mapping[str, list], known) -> dict[int, list[dict]]:
    """A value table's rows (as dicts) by replica, in table order."""
    grouped: dict[int, list[dict]] = {}
    for values in zip(*table.values()):
        row = dict(zip(table, values))
        grouped.setdefault(row["replica"], []).append(row)
    stray = set(grouped) - set(known)
    if stray:
        raise ConfigurationError(
            f"rows for replica(s) {sorted(stray)!r} that have no "
            "'replicas' row"
        )
    return grouped


def _ordered(rows: Sequence[dict]) -> list[dict]:
    return sorted(rows, key=lambda row: row["ordinal"])


def _one(grouped: dict[int, list[dict]], index: int, table: str) -> dict:
    rows = grouped.get(index, ())
    if len(rows) != 1:
        raise ConfigurationError(
            f"replica {index} has {len(rows)} {table!r} rows, not one"
        )
    return rows[0]


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    if not isinstance(value, dict):
        raise ConfigurationError(f"{text[:40]!r} is not a JSON object")
    return value


def _buckets(text: str) -> dict[str, int]:
    """Power-of-two histogram buckets: ``{"<bucket>": count}``."""
    buckets = _json_object(text)
    if not all(b.isdigit() and type(n) is int for b, n in buckets.items()):
        raise ConfigurationError(f"histogram buckets {text[:40]!r} malformed")
    return buckets


def _snapshot(
    schema: int | None, counters: Sequence[dict], histograms: Sequence[dict]
) -> dict[str, Any] | None:
    """One replica's counter snapshot from its sidecar rows."""
    if schema is None:
        if counters or histograms:
            raise ConfigurationError("counter rows without counters_schema")
        return None
    values = {}
    for row in counters:
        if (row["int_value"] is None) == (row["float_value"] is None):
            raise ConfigurationError(
                f"counter {row['key']!r} must set exactly one of "
                "int_value and float_value"
            )
        exact = row["int_value"] is not None
        values[row["key"]] = row["int_value"] if exact else row["float_value"]
    return {
        "schema": schema,
        "counters": values,
        "histograms": {
            row["key"]: {
                "count": row["count"],
                "sum": row["sum"],
                "min": row["min"],
                "max": row["max"],
                "buckets": _buckets(row["buckets"]),
            }
            for row in histograms
        },
    }


def counter_snapshots(
    tables: Mapping[str, Mapping[str, list]],
) -> dict[int, dict[str, Any]]:
    """Per-replica counter snapshots of a campaign table set (sim-free:
    ``repro query`` merges them).  Replicas that recorded none are
    absent."""
    replicas = tables["replicas"]
    schemas = dict(zip(replicas["replica"], replicas["counters_schema"]))
    counters = _grouped(tables["replica_counters"], schemas)
    histograms = _grouped(tables["replica_histograms"], schemas)
    snapshots = {
        index: _snapshot(
            schema, counters.get(index, ()), histograms.get(index, ())
        )
        for index, schema in schemas.items()
    }
    return {i: s for i, s in snapshots.items() if s is not None}


def _decode_campaign(cls, i: int, row: dict, g: dict) -> Any:
    faults = _ordered(g["plan_events"].get(i, ()))
    return cls(
        index=i,
        plan_events=tuple(
            (r["mechanism"], r["target"], r["at_us"]) for r in faults
        ),
        attributed=tuple(r["attributed"] for r in faults),
        verdicts_emitted=row["verdicts_emitted"],
        events_simulated=row["events_simulated"],
        obs_counters=_snapshot(
            row["counters_schema"],
            g["replica_counters"].get(i, ()),
            g["replica_histograms"].get(i, ()),
        ),
        obs_trace=tuple(
            _json_object(r["record"]) for r in g["replica_trace"].get(i, ())
        ),
        alpha_state=tuple(
            (r["fru"], r["value"]) for r in g["alpha_state"].get(i, ())
        ),
        trust_state=tuple(
            (r["fru"], r["value"]) for r in g["trust_state"].get(i, ())
        ),
    )


def _decode_fleet(cls, i: int, row: dict, g: dict) -> Any:
    flags = _one(g["vehicles"], i, "vehicles")
    return cls(
        index=i,
        counts=tuple(
            r["count"] for r in _ordered(g["vehicle_counts"].get(i, ()))
        ),
        with_fault=flags["with_fault"],
        detected=flags["detected"],
        events_simulated=row["events_simulated"],
    )


def _decode_catalogue(cls, i: int, row: dict, g: dict) -> Any:
    from repro.core.fault_model import FaultClass
    from repro.core.maintenance import MaintenanceAction

    cell = _one(g["cells"], i, "cells")
    actions: dict[str, list] = {"integrated": [], "obd": []}
    for r in _ordered(g["cell_actions"].get(i, ())):
        action = MaintenanceAction(r["action"])
        actions[r["strategy"]].append((action, r["justified"]))
    predicted = cell["predicted"]
    return cls(
        index=i,
        scenario=cell["scenario"],
        seed=cell["seed"],
        truth=FaultClass(cell["truth"]),
        predicted=None if predicted is None else FaultClass(predicted),
        spurious=cell["spurious"],
        integrated_actions=tuple(actions["integrated"]),
        obd_actions=tuple(actions["obd"]),
        events_simulated=row["events_simulated"],
    )


_DECODERS = {
    "campaign": _decode_campaign,
    "fleet": _decode_fleet,
    "catalogue": _decode_catalogue,
}


def decode(
    kind: str, tables: Mapping[str, Mapping[str, list]], root_seed: int
) -> dict[int, Any]:
    """``{index: ReplicaResult}`` from ``tables`` of ``kind``.

    ``tables`` must already have passed
    :func:`~repro.storage.schema.check_table`.  Every replica's
    ``seed_fingerprint`` must be the stream
    :func:`~repro.runtime.seeds.stream_fingerprint` assigns its index
    under ``root_seed``: a result bound to another stream is never
    trusted.  Any inconsistency raises :class:`ConfigurationError`.
    """
    from repro.runtime.runner import ReplicaResult
    from repro.runtime.seeds import stream_fingerprint

    replicas = tables["replicas"]
    if kind not in VALUE_KINDS:
        if kind == "generic" and not replicas["replica"]:
            return {}
        raise ConfigurationError(f"no declared value kind {kind!r}")
    module, class_name = VALUE_KINDS[kind]
    cls = getattr(importlib.import_module(module), class_name)
    envelope: dict[int, dict] = {}
    try:
        for values in zip(*replicas.values()):
            row = dict(zip(replicas, values))
            index = row["replica"]
            if index in envelope:
                raise ConfigurationError(f"replica {index} is stored twice")
            expected = stream_fingerprint(root_seed, index)
            if row["seed_fingerprint"] != expected:
                raise ConfigurationError(
                    f"replica {index} carries seed fingerprint "
                    f"{row['seed_fingerprint'][:16]!r}…, not the stream "
                    f"that root seed {root_seed} assigns it"
                )
            envelope[index] = row
        grouped = {
            name: _grouped(tables[name], envelope)
            for name in tables_for_kind(kind)
            if name not in _ENVELOPE
        }
        return {
            i: ReplicaResult(
                index=i,
                value=_DECODERS[kind](cls, i, row, grouped),
                events=row["events_simulated"],
                elapsed_s=row["elapsed_s"],
                worker=row["worker"],
            )
            for i, row in envelope.items()
        }
    # A negative index or seed, an unknown strategy or enum value.
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"undecodable {kind} value: {exc!r}") from exc
