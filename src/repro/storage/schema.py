"""Declared schema of campaign results on disk.

A run's ledger (:mod:`repro.storage.ledger`) holds these tables: every
chunk line those of its replicas, the close line the ``failures`` of the
run.  A store *part* (one stored run) is that closed ledger.  Every
table is declared here as an ordered ``column -> dtype`` mapping, and
the codec (:mod:`repro.storage.codec`) writes exactly these columns in
exactly this order.

Dtypes are logical: ``int64``/``float64``/``str``/``bool`` plus the
nullable variants ``int64?``/``float64?``/``str?``.  Float columns
round-trip **exactly**: JSON relies on Python's shortest-repr float
serialization (with ``NaN``/``Infinity`` literals allowed), so NaN/inf
alpha finals survive bit-for-bit.  :func:`check_table` holds every
value read back to its declared dtype: a checksum is not a MAC, so an
edited table that was re-checksummed must still fail with a
:class:`~repro.errors.ConfigurationError`, never deep inside a decoder.

The layout is versioned by the line format
(:data:`~repro.storage.ledger.LEDGER_VERSION`): a change to the tables
below bumps it, and readers refuse any other version.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError

#: Ordered ``table -> {column: dtype}`` declarations.
TABLES: dict[str, dict[str, str]] = {
    # One row per completed replica, every kind: the verdict row of the
    # store and the ReplicaResult envelope (its events are the value's
    # events_simulated, exactly as the runner books them).
    "replicas": {
        "replica": "int64",
        "seed_fingerprint": "str",
        "faults_injected": "int64",
        "faults_attributed": "int64",
        "verdicts_emitted": "int64",
        "events_simulated": "int64",
        "elapsed_s": "float64",
        "worker": "str",
        # Schema of the replica's counter snapshot; null when the
        # replica recorded none (so a None snapshot never becomes {}).
        "counters_schema": "int64?",
    },
    # -- campaign (mc) values ----------------------------------------------
    # The injected plan, one row per fault event (CSR flattened).
    "plan_events": {
        "replica": "int64",
        "ordinal": "int64",
        "mechanism": "str",
        "target": "str",
        "at_us": "int64",
    },
    # Per-replica per-mechanism injected/attributed counts (the
    # confusion-matrix fact table).
    "mechanisms": {
        "replica": "int64",
        "mechanism": "str",
        "injected": "int64",
        "attributed": "int64",
    },
    # Final per-FRU diagnostic state, exactly as the replica reported it.
    "alpha_state": {
        "replica": "int64",
        "fru": "str",
        "value": "float64",
    },
    "trust_state": {
        "replica": "int64",
        "fru": "str",
        "value": "float64",
    },
    # Per-replica observability counters.  A counter keeps its Python
    # type: exactly one of the two value columns is set per row.
    "replica_counters": {
        "replica": "int64",
        "key": "str",
        "int_value": "int64?",
        "float_value": "float64?",
    },
    # Per-replica histograms — power-of-two buckets ride as a canonical
    # JSON string so the exact mergeable state round-trips.
    "replica_histograms": {
        "replica": "int64",
        "key": "str",
        "count": "int64",
        "sum": "float64",
        "min": "float64?",
        "max": "float64?",
        "buckets": "str",
    },
    # Per-replica trace records, one canonical-JSON record per row.
    "replica_trace": {
        "replica": "int64",
        "record": "str",
    },
    # -- fleet values --------------------------------------------------------
    "vehicles": {
        "replica": "int64",
        "with_fault": "bool",
        "detected": "bool",
    },
    # Field reports per candidate job (CSR flattened, job by position).
    "vehicle_counts": {
        "replica": "int64",
        "ordinal": "int64",
        "count": "int64",
    },
    # -- catalogue (scenario campaign) values ------------------------------
    # Enums are stored by value.
    "cells": {
        "replica": "int64",
        "scenario": "str",
        "seed": "int64",
        "truth": "str",
        "predicted": "str?",
        "spurious": "int64",
    },
    # The integrated and the OBD maintenance actions of each cell.
    "cell_actions": {
        "replica": "int64",
        "strategy": "str",
        "ordinal": "int64",
        "action": "str",
        "justified": "bool",
    },
    # Structured records of replicas that produced no value (salvage).
    "failures": {
        "replica": "int64",
        "error_type": "str",
        "message": "str",
        "traceback": "str",
        "attempts": "int64",
        "worker": "str",
    },
}

#: The tables of each part kind.  A part's kind is the kind of its
#: values (:mod:`repro.storage.codec`); ``generic`` is left only for a
#: part with no chunk lines (every replica failed under salvage).
KIND_TABLES: dict[str, tuple[str, ...]] = {
    "campaign": (
        "replicas",
        "plan_events",
        "mechanisms",
        "alpha_state",
        "trust_state",
        "replica_counters",
        "replica_histograms",
        "replica_trace",
        "failures",
    ),
    "fleet": ("replicas", "vehicles", "vehicle_counts", "failures"),
    "catalogue": ("replicas", "cells", "cell_actions", "failures"),
    "generic": ("replicas", "failures"),
}

#: Part kinds.
PART_KINDS = tuple(KIND_TABLES)

#: Columns whose values depend on *where/when* a replica executed, not
#: on ``(root_seed, specs)`` — excluded from resume-equality comparisons
#: (a resumed-then-stored part matches an uninterrupted one on every
#: other column).
VOLATILE_COLUMNS: dict[str, tuple[str, ...]] = {
    "replicas": ("elapsed_s", "worker"),
    "failures": ("worker",),
}

#: The Python type every non-null value of a dtype must have exactly
#: (``bool`` is not an ``int64``, an ``int`` is not a ``float64``).
_PY_TYPES = {"int64": int, "float64": float, "str": str, "bool": bool}


def tables_for_kind(kind: str) -> tuple[str, ...]:
    """The table names a part of ``kind`` must contain."""
    return KIND_TABLES[kind]


def check_table(name: str, columns: Any, where: str) -> dict[str, list]:
    """``columns`` if it is exactly table ``name`` as declared.

    Checks the column set, equal column lengths and the type of every
    value; a violation raises :class:`ConfigurationError` naming
    ``where`` (the file or ledger line), the table and the column.
    """
    declared = TABLES[name]
    if not isinstance(columns, dict) or sorted(columns) != sorted(declared):
        raise ConfigurationError(
            f"{where}: table {name!r} does not have the declared "
            f"columns {list(declared)!r}"
        )
    first = columns[next(iter(declared))]
    rows = len(first) if isinstance(first, list) else -1
    for column, dtype in declared.items():
        values = columns[column]
        if not isinstance(values, list) or len(values) != rows:
            raise ConfigurationError(
                f"{where}: table {name!r} column {column!r} is not a list "
                "as long as the table's other columns"
            )
        want, nullable = _PY_TYPES[dtype.rstrip("?")], dtype.endswith("?")
        for row, value in enumerate(values):
            if type(value) is not want and not (nullable and value is None):
                raise ConfigurationError(
                    f"{where}: table {name!r} column {column!r} row {row} "
                    f"holds {value!r}, which is not {dtype}"
                )
    return columns
