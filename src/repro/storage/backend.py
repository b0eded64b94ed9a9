"""Columnar table backends: Parquet (pyarrow) and pure-Python JSON.

Both backends serialize the same logical tables declared in
:mod:`repro.storage.schema`.  Parquet is preferred when pyarrow is
importable; the JSON fallback keeps the store fully functional on a
bare CPython install — one file per table holding a column dictionary,
written deterministically so identical runs produce byte-identical
parts.

Integrity is format-independent: the part manifest records the byte
``sha256`` of every table file, and readers verify it before parsing,
so a truncated or bit-flipped part fails with a clear
:class:`~repro.errors.ConfigurationError` naming the file instead of a
backend-specific stack trace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import ConfigurationError

#: Store formats accepted by ``--store-format`` / ``REPRO_STORE_FORMAT``.
FORMATS = ("auto", "json", "parquet")


def parquet_available() -> bool:
    """True when pyarrow (and its parquet module) is importable."""
    try:  # pragma: no cover - exercised on pyarrow-equipped CI only
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_format(fmt: str = "auto") -> str:
    """Resolve ``fmt`` to a concrete backend name (``json``/``parquet``)."""
    if fmt not in FORMATS:
        raise ConfigurationError(
            f"unknown store format {fmt!r}; expected one of {FORMATS}"
        )
    if fmt == "auto":
        return "parquet" if parquet_available() else "json"
    if fmt == "parquet" and not parquet_available():
        raise ConfigurationError(
            "store format 'parquet' requires pyarrow, which is not "
            "installed; use --store-format json (or 'auto' to fall back "
            "automatically)"
        )
    return fmt


def file_sha256(path: Path) -> str:
    """Byte sha256 of one table file (the manifest integrity stamp)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class JsonTableBackend:
    """Pure-Python columnar JSON tables (always available).

    Layout of one table file::

        {"kind": "table", "table": "replicas", "rows": 12,
         "dtypes": {"replica": "int64", ...},
         "columns": {"replica": [0, 1, ...], ...}}

    ``json.dumps`` with ``allow_nan=True`` emits ``NaN``/``Infinity``
    literals and shortest-repr floats, both of which CPython's ``json``
    parses back to bit-identical doubles — the property the schema
    round-trip tests pin down.
    """

    name = "json"
    suffix = ".json"

    def write_table(
        self,
        path: Path,
        table: str,
        dtypes: dict[str, str],
        columns: dict[str, list],
    ) -> None:
        rows = len(next(iter(columns.values()))) if columns else 0
        payload = {
            "kind": "table",
            "table": table,
            "rows": rows,
            "dtypes": dtypes,
            "columns": columns,
        }
        path.write_text(
            json.dumps(payload, allow_nan=True, separators=(",", ":")),
            encoding="utf-8",
        )

    def read_table(self, path: Path, table: str) -> dict[str, list]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"corrupt store table {path}: not parseable as columnar "
                f"JSON ({exc})"
            ) from None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "table"
            or "columns" not in payload
        ):
            raise ConfigurationError(
                f"corrupt store table {path}: missing columnar-table "
                "structure"
            )
        return payload["columns"]


class ParquetTableBackend:
    """Parquet tables via pyarrow (preferred when importable)."""

    name = "parquet"
    suffix = ".parquet"

    def write_table(
        self,
        path: Path,
        table: str,
        dtypes: dict[str, str],
        columns: dict[str, list],
    ) -> None:  # pragma: no cover - exercised on pyarrow-equipped CI only
        import pyarrow as pa
        import pyarrow.parquet as pq

        arrow_types = {
            "int64": pa.int64(),
            "float64": pa.float64(),
            "str": pa.string(),
            "bool": pa.bool_(),
        }
        arrays = [
            pa.array(columns[column], type=arrow_types[dtype.rstrip("?")])
            for column, dtype in dtypes.items()
        ]
        pq.write_table(
            pa.Table.from_arrays(arrays, names=list(dtypes)), path
        )

    def read_table(
        self, path: Path, table: str
    ) -> dict[str, list]:  # pragma: no cover - pyarrow-equipped CI only
        import pyarrow.parquet as pq

        try:
            loaded = pq.read_table(path)
        except Exception as exc:  # pyarrow raises its own hierarchy
            raise ConfigurationError(
                f"corrupt store table {path}: not parseable as Parquet "
                f"({exc})"
            ) from None
        return {
            name: loaded.column(name).to_pylist()
            for name in loaded.column_names
        }


_BY_FORMAT = {
    JsonTableBackend.name: JsonTableBackend,
    ParquetTableBackend.name: ParquetTableBackend,
}


def get_backend(name: str):
    """Backend instance for a concrete format name."""
    try:
        return _BY_FORMAT[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown store backend {name!r}; expected one of "
            f"{sorted(_BY_FORMAT)}"
        ) from None
