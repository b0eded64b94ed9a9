"""Read path of the campaign store.

:class:`CampaignStore` finds the parts under a store root and reads each
one, a closed ledger, through the line reader of
:mod:`repro.storage.ledger` in strict mode.  A truncated, bit-flipped,
version-skewed or otherwise malformed part fails with a clear
:class:`~repro.errors.ConfigurationError` naming the part file.  A
tolerant scan mode mirrors the checkpoint ledger's tail recovery: skip
unreadable parts, report how many were dropped, aggregate the rest.

Nothing in this module (or anything it imports) touches the simulator:
queries over stored campaigns run on a bare interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.ledger import read_ledger
from repro.storage.schema import TABLES, check_table, tables_for_kind

#: Fields the last close line of a part must hold, and the exact types
#: their values may have.
_CLOSE_FIELDS: dict[str, tuple[type, ...]] = {
    "plan_digest": (str, type(None)),
    "completed": (int,),
    "failed": (int,),
    "complete": (bool,),
    "failures": (dict,),
}


@dataclass(frozen=True, slots=True)
class StorePart:
    """One checked part: its header and last close line and its tables."""

    path: Path
    header: dict[str, Any]
    close: dict[str, Any]
    kind: str
    tables: dict[str, dict[str, list]]

    @property
    def campaign_id(self) -> str:
        return self.path.parent.parent.name

    @property
    def root_seed(self) -> int:
        return self.header["root_seed"]

    @property
    def plan_digest(self) -> str | None:
        return self.close["plan_digest"]

    @property
    def complete(self) -> bool:
        return self.close["complete"]

    def table(self, name: str) -> dict[str, list]:
        """Columns of one table (checked when the part was read)."""
        try:
            return self.tables[name]
        except KeyError:
            raise ConfigurationError(
                f"store part {self.path} has no table {name!r} "
                f"(kind {self.kind!r})"
            ) from None


def _read_part(path: Path) -> StorePart:
    """The part at ``path``, if it keeps the rules of a closed ledger
    (``docs/storage.md``, "Integrity"); its campaign id is its
    directory, and its tables the chunks' rows in replica order."""
    if path.is_dir():
        raise ConfigurationError(
            f"store part {path} has the old layout (a manifest.json and "
            "one file per table), which this build does not read — delete "
            "it and re-store the campaign"
        )
    ledger = read_ledger(path, tolerant=False)
    kinds = [line.get("kind") for line in ledger.lines]
    if kinds[-1:] != ["close"] or any(
        kind not in ("chunk", "resume", "close") for kind in kinds
    ):
        raise ConfigurationError(
            f"store part {path} does not end with a close line after "
            "chunk and resume lines: its run never finished, or the file "
            "was cut or edited"
        )
    close = ledger.lines[-1]
    for key, types in _CLOSE_FIELDS.items():
        if type(close.get(key)) not in types:
            raise ConfigurationError(
                f"store part {path}: close field {key!r} is {close.get(key)!r}"
            )
    where = f"{path}: close"
    tables = {"failures": check_table("failures", close["failures"], where)}
    chunks = [line for line in ledger.lines if line["kind"] == "chunk"]
    value_kinds = sorted({c["value_kind"] for c in chunks}) or ["generic"]
    if len(value_kinds) > 1:
        raise ConfigurationError(
            f"store part {path} mixes chunks of kinds {value_kinds!r}"
        )
    for name in tables_for_kind(value_kinds[0]):
        if name != "failures":
            rows = {
                column: [v for c in chunks for v in c["tables"][name][column]]
                for column in TABLES[name]
            }
            replica = rows["replica"]
            order = sorted(range(len(replica)), key=replica.__getitem__)
            tables[name] = {c: [v[i] for i in order] for c, v in rows.items()}
    replicas = tables["replicas"]["replica"]
    for a, b in zip(replicas, replicas[1:]):
        if a == b:
            raise ConfigurationError(
                f"store part {path}: replica {a} is stored twice"
            )
    if len(replicas) != close["completed"]:
        raise ConfigurationError(
            f"store part {path} holds {len(replicas)} replica rows, but "
            f"its close line counts {close['completed']} completed"
        )
    return StorePart(path, ledger.header, close, value_kinds[0], tables)


class CampaignStore:
    """A store root: ``<root>/<campaign_id>/<digest>/part-*.jsonl``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConfigurationError(
                f"store root {self.root} does not exist or is not a "
                "directory"
            )
        # Parts read so far: a report runs several queries over one
        # store, and each reads every part.
        self._read: dict[Path, StorePart] = {}

    def part_paths(self) -> list[Path]:
        """Every part file, plus every old-layout part directory (which
        reading refuses), sorted for deterministic iteration."""
        old = (m.parent for m in self.root.glob("*/*/part-*/manifest.json"))
        return sorted([*self.root.glob("*/*/part-*.jsonl"), *old])

    def parts(
        self,
        *,
        campaign: str | None = None,
        kind: str | None = None,
        tolerant: bool = False,
    ) -> list[StorePart]:
        """Load (and check) parts; ``tolerant`` skips unreadable ones.

        Strict mode (default) raises on the first unreadable part —
        queries must never silently aggregate over a damaged store.
        Tolerant mode mirrors the ledger's tail recovery: damaged parts
        are dropped and counted (see :meth:`scan_report`).
        """
        parts: list[StorePart] = []
        self.skipped: list[tuple[Path, str]] = []
        for path in self.part_paths():
            try:
                part = self._read.get(path) or _read_part(path)
            except ConfigurationError as exc:
                if not tolerant:
                    raise
                self.skipped.append((path, str(exc)))
                continue
            self._read[path] = part
            if campaign is not None and part.campaign_id != campaign:
                continue
            if kind is not None and part.kind != kind:
                continue
            parts.append(part)
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
