"""Read path of the campaign store.

:class:`CampaignStore` finds the parts under a store root and reads each
one through the line reader of :mod:`repro.storage.ledger` in strict
mode: a part must be exactly a valid header, one chunk line whose tables
pass their checksum and declared schema, and a close line.  A truncated,
bit-flipped, version-skewed or otherwise malformed part fails with a
clear :class:`~repro.errors.ConfigurationError` naming the part file.  A
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

#: Fields a part adds to its header and close lines, and the exact types
#: their values may have.
_PART_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "header": {"campaign_id": (str,)},
    "close": {
        "plan_digest": (str, type(None)),
        "completed": (int,),
        "failed": (int,),
        "complete": (bool,),
    },
}


@dataclass(frozen=True, slots=True)
class StorePart:
    """One checked part: its header and close lines and its tables."""

    path: Path
    header: dict[str, Any]
    close: dict[str, Any]
    kind: str
    tables: dict[str, dict[str, list]]

    @property
    def campaign_id(self) -> str:
        return self.header["campaign_id"]

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
    """The part at ``path``, if it is exactly header, chunk and close."""
    if path.is_dir():
        raise ConfigurationError(
            f"store part {path} has the old layout (a manifest.json and "
            "one file per table), which this build does not read — delete "
            "it and re-store the campaign"
        )
    ledger = read_ledger(path, tolerant=False)
    kinds = [line.get("kind") for line in ledger.lines]
    if kinds != ["chunk", "close"]:
        raise ConfigurationError(
            f"store part {path} holds lines {kinds!r} after its header, "
            "not one chunk line and a close line"
        )
    chunk, close = ledger.lines
    for line in (ledger.header, close):
        for key, types in _PART_FIELDS[line["kind"]].items():
            if type(line.get(key)) not in types:
                raise ConfigurationError(
                    f"store part {path}: {line['kind']} field {key!r} is "
                    f"{line.get(key)!r}"
                )
    return StorePart(
        path=path,
        header=ledger.header,
        close=close,
        kind=chunk["value_kind"],
        tables=chunk["tables"],
    )


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
