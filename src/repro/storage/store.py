"""Read path of the columnar campaign store.

:class:`CampaignStore` scans a store root for parts, validates every
manifest (schema version, field types, table inventory, table file
names inside the part) and verifies each table file's byte checksum
before parsing it — a truncated, bit-flipped or version-skewed part
fails with a clear :class:`~repro.errors.ConfigurationError` naming the
offending file, never a backend stack trace.  A checksum is not a MAC,
so every value read is also held to its column's declared dtype
(:func:`~repro.storage.schema.check_table`).  A tolerant scan mode mirrors the
checkpoint ledger's tail recovery: skip unreadable parts, report how
many were dropped, aggregate the rest.

Nothing in this module (or anything it imports) touches the simulator:
queries over stored campaigns run on a bare interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.backend import file_sha256, get_backend
from repro.storage.schema import (
    MANIFEST_NAME,
    PART_KINDS,
    STORE_SCHEMA_VERSION,
    check_table,
    tables_for_kind,
)


@dataclass
class StorePart:
    """One validated part: manifest plus lazily-read, checksummed tables."""

    path: Path
    manifest: dict[str, Any]
    _tables: dict[str, dict[str, list]] = field(
        default_factory=dict, repr=False
    )

    @property
    def campaign_id(self) -> str:
        return self.manifest["campaign_id"]

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def plan_digest(self) -> str | None:
        return self.manifest.get("plan_digest")

    def table(self, name: str) -> dict[str, list]:
        """Columns of one table, checksum- and schema-checked on first
        access."""
        cached = self._tables.get(name)
        if cached is not None:
            return cached
        entry = self.manifest["files"].get(name)
        if entry is None:
            raise ConfigurationError(
                f"store part {self.path} has no table {name!r} "
                f"(kind {self.kind!r})"
            )
        path = self.path / entry["path"]
        if not path.is_file():
            raise ConfigurationError(
                f"corrupt store part {self.path}: table file "
                f"{entry['path']!r} is missing"
            )
        actual = file_sha256(path)
        if actual != entry["sha256"]:
            raise ConfigurationError(
                f"corrupt store table {path}: checksum mismatch "
                f"(manifest {entry['sha256'][:12]}…, file {actual[:12]}…) "
                "— the file was truncated or modified after the part was "
                "written"
            )
        backend = get_backend(self.manifest["format"])
        columns = check_table(
            name,
            backend.read_table(path, name),
            f"corrupt store table {path}",
        )
        rows = len(next(iter(columns.values())))
        if rows != entry["rows"]:
            raise ConfigurationError(
                f"corrupt store table {path}: {rows} rows disagree with "
                f"the manifest ({entry['rows']})"
            )
        self._tables[name] = columns
        return columns


#: Manifest fields and the exact types their values may have.
_MANIFEST_FIELDS: dict[str, tuple[type, ...]] = {
    "campaign_id": (str,),
    "format": (str,),
    "root_seed": (int,),
    "spec_digest": (str,),
    "plan_digest": (str, type(None)),
    "replicas": (int,),
    "failed": (int,),
    "complete": (bool,),
    "command": (str, type(None)),
    "params": (dict, type(None)),
    "files": (dict,),
}


def _load_manifest(part_dir: Path) -> dict[str, Any]:
    """The part's manifest, if its shape is the declared one."""
    manifest_path = part_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigurationError(
            f"store part {part_dir} has no {MANIFEST_NAME}"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"corrupt store part {part_dir}: unreadable manifest ({exc})"
        ) from None
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            f"corrupt store manifest {manifest_path}: not a JSON object"
        )
    version = manifest.get("schema_version")
    if version != STORE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"store part {part_dir} uses schema version {version!r}; "
            f"this build reads version {STORE_SCHEMA_VERSION} only — "
            "re-store the campaign (or use a matching build)"
        )
    kind = manifest.get("kind")
    if kind not in PART_KINDS:
        raise ConfigurationError(
            f"corrupt store part {part_dir}: unknown kind {kind!r}"
        )
    for key, types in _MANIFEST_FIELDS.items():
        if type(manifest.get(key)) not in types:
            raise ConfigurationError(
                f"corrupt store manifest {manifest_path}: field {key!r} "
                f"is {manifest.get(key)!r}"
            )
    files = manifest["files"]
    missing = [t for t in tables_for_kind(kind) if t not in files]
    if missing:
        raise ConfigurationError(
            f"corrupt store part {part_dir}: manifest lists no "
            f"file for table(s) {missing!r}"
        )
    for table in tables_for_kind(kind):
        entry = files[table]
        if not (
            isinstance(entry, dict)
            and type(entry.get("path")) is str
            and entry["path"] == Path(entry["path"]).name
            and entry["path"] not in ("", ".", "..")
            and type(entry.get("sha256")) is str
            and type(entry.get("rows")) is int
        ):
            raise ConfigurationError(
                f"corrupt store manifest {manifest_path}: table {table!r} "
                f"entry {entry!r} is not {{path: a file name in the part, "
                "sha256: str, rows: int}"
            )
    return manifest


class CampaignStore:
    """A store root: ``<root>/<campaign_id>/<digest>/part-*/``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConfigurationError(
                f"store root {self.root} does not exist or is not a "
                "directory"
            )

    def part_dirs(self) -> list[Path]:
        """Every part directory, sorted for deterministic iteration."""
        return sorted(
            p.parent for p in self.root.glob(f"*/*/part-*/{MANIFEST_NAME}")
        )

    def parts(
        self,
        *,
        campaign: str | None = None,
        kind: str | None = None,
        tolerant: bool = False,
    ) -> list[StorePart]:
        """Load (and validate) parts; ``tolerant`` skips corrupt ones.

        Strict mode (default) raises on the first unreadable part —
        queries must never silently aggregate over a damaged store.
        Tolerant mode mirrors the ledger's tail recovery: damaged parts
        are dropped and counted (see :meth:`scan_report`).
        """
        parts: list[StorePart] = []
        self.skipped: list[tuple[Path, str]] = []
        for part_dir in self.part_dirs():
            try:
                manifest = _load_manifest(part_dir)
            except ConfigurationError as exc:
                if not tolerant:
                    raise
                self.skipped.append((part_dir, str(exc)))
                continue
            if campaign is not None and manifest["campaign_id"] != campaign:
                continue
            if kind is not None and manifest["kind"] != kind:
                continue
            parts.append(StorePart(path=part_dir, manifest=manifest))
        return parts

    def scan_report(self) -> dict[str, Any]:
        """Tolerant-scan summary: how many parts loaded vs skipped."""
        parts = self.parts(tolerant=True)
        return {
            "parts": len(parts),
            "skipped": len(self.skipped),
            "skipped_parts": [
                {"path": str(path), "error": error}
                for path, error in self.skipped
            ],
        }
