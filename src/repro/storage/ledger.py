"""The one line format of durable campaign results.

A run's *ledger* (:mod:`repro.runtime.checkpoint`) is a file of JSON
lines in this format (:data:`LEDGER_VERSION`): a header, one chunk line
per completed chunk and resume/close lines, appended as the run goes
on.  A store part (:mod:`repro.storage.writer`) is a closed ledger.

A **header** binds the file to one campaign: ``kind: header``, the
format ``version``, integer ``root_seed`` and ``replicas`` and the
``spec_digest``.  A **chunk** line carries its replicas' results as the
declared tables (:mod:`repro.storage.schema`) of its ``value_kind``,
guarded by a SHA-256 over the tables' canonical JSON.  A checksum is not
a MAC, so every table is also held to its declared columns and dtypes.

:func:`read_ledger` reads a file in one of two modes.  **Strict** (store
parts): the first line that is not a JSON object, and the first chunk
that fails its checks, raises :class:`~repro.errors.ConfigurationError`
naming the file.  **Tolerant** (ledgers, whose tail a SIGKILL can
tear): such lines are skipped and counted, and the caller re-executes
the replicas they held.  The header must be valid in both modes: a file
cannot be identified without it.

Nothing here imports the simulator or :mod:`repro.runtime`, so queries
read parts on a bare interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.jsonl import read_json_lines
from repro.storage import codec
from repro.storage.schema import PART_KINDS, check_table, tables_for_kind

#: Format version.  Files of an older version are refused by their
#: header, never loaded: version 1 held pickled results, and version 2
#: kept per-mechanism counts but not which fault was attributed.
LEDGER_VERSION = 3


def _json_pieces(value: Any, separators: tuple[str, str]) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, separators=separators)`` in
    pieces, one encoder call per value that is not an object.

    The encoder holds the fragments of its whole output until it joins
    them: one call over the tables of a 320-replica part peaks at about
    nine times the line's size, one call per column at a fraction.
    """
    if not isinstance(value, dict):
        yield json.dumps(value, sort_keys=True, separators=separators)
        return
    item, key = separators
    for n, name in enumerate(sorted(value)):
        yield ("{" if n == 0 else item) + json.dumps(name) + key
        yield from _json_pieces(value[name], separators)
    yield "}" if value else "{}"


def chunk_checksum(tables: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one chunk's tables
    (:func:`repro.storage.codec.canonical_json`)."""
    digest = hashlib.sha256()
    for piece in _json_pieces(tables, (",", ":")):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def chunk_line(kind: str, tables: dict[str, Any], **fields: Any) -> dict:
    """A chunk line: ``fields``, the tables of ``kind`` and their checksum."""
    return {
        **fields,
        "kind": "chunk",
        "value_kind": kind,
        "tables": tables,
        "sha256": chunk_checksum(tables),
    }


def append_lines(path: str | Path, *records: dict[str, Any]) -> None:
    """Append one line per record, then flush and fsync the file."""
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            # Compact item separators keep chunk lines small; the ": "
            # key separator keeps lines greppable as '"kind": "chunk"'.
            fh.writelines(_json_pieces(record, (",", ": ")))
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` for the block to write and
    fsync; ``os.replace`` puts it in place if the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".tmp-{path.name}-{os.getpid()}")
    tmp.unlink(missing_ok=True)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True, slots=True)
class Ledger:
    """One file of this format, read and checked."""

    header: dict[str, Any]
    #: Every later line kept, in file order; chunk lines passed their
    #: checks.
    lines: list[dict[str, Any]]
    #: Lines dropped in tolerant mode.
    skipped: int
    #: ``{index: ReplicaResult}`` of the kept chunks (``decode=True``
    #: only): the first line holding an index wins, and indices outside
    #: the header's replica count are dropped.
    results: dict[int, Any]


def _check_header(path: Path, entries: list, skipped: int) -> dict:
    if not entries and not skipped:
        raise ConfigurationError(f"{path} is empty")
    lineno, header = entries[0] if entries else (0, {})
    if lineno != 1 or header.get("kind") != "header":
        raise ConfigurationError(f"{path} does not start with a header line")
    version = header.get("version")
    if version != LEDGER_VERSION:
        raise ConfigurationError(
            f"{path} has format version {version!r}; this build reads "
            f"version {LEDGER_VERSION} only (version 1 files hold pickled "
            "results, which are never loaded, and version 2 files do not "
            "say which fault was attributed) — re-run the campaign to "
            "write it again"
        )
    for key in ("root_seed", "replicas"):
        if type(header.get(key)) is not int:
            raise ConfigurationError(
                f"{path} header field {key!r} is {header.get(key)!r}"
            )
    return header


def _checked_chunk(
    record: dict[str, Any], where: str, root_seed: int | None
) -> dict[int, Any] | None:
    """A chunk line's results (when ``root_seed`` is given) if trusted."""
    tables = record.get("tables")
    kind = record.get("value_kind")
    if not isinstance(tables, dict) or kind not in PART_KINDS:
        raise ConfigurationError(f"{where}: no tables of a declared kind")
    if record.get("sha256") != chunk_checksum(tables):
        raise ConfigurationError(f"{where}: checksum mismatch")
    if sorted(tables) != sorted(tables_for_kind(kind)):
        raise ConfigurationError(f"{where}: not the tables of kind {kind!r}")
    for name, columns in tables.items():
        check_table(name, columns, where)
    if root_seed is None:
        return None
    try:
        return codec.decode(kind, tables, root_seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def read_ledger(
    path: str | Path, *, tolerant: bool, decode: bool = False
) -> Ledger:
    """Read and check one file; ``decode`` also rebuilds its results.

    Decoding (:func:`repro.storage.codec.decode`) imports the value
    classes, so the sim-free query path leaves it off.  A chunk that
    fails to decode counts as an untrusted chunk in either mode.
    """
    path = Path(path)
    try:
        entries, skipped = read_json_lines(path, tolerant=tolerant)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except ConfigurationError as exc:  # strict mode: a line is not JSON
        raise ConfigurationError(f"{path}: {exc}") from None
    header = _check_header(path, entries, skipped)
    lines: list[dict[str, Any]] = []
    results: dict[int, Any] = {}
    root_seed = header["root_seed"] if decode else None
    for lineno, record in entries[1:]:
        if record.get("kind") == "chunk":
            try:
                decoded = _checked_chunk(record, f"{path}:{lineno}", root_seed)
            except ConfigurationError:
                if not tolerant:
                    raise
                skipped += 1  # untrusted chunk — its replicas re-execute
                continue
            for index, result in (decoded or {}).items():
                if 0 <= index < header["replicas"]:
                    results.setdefault(index, result)
        lines.append(record)
    return Ledger(header=header, lines=lines, skipped=skipped, results=results)
