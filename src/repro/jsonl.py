"""One reader for the JSON-lines files the package appends to.

The checkpoint ledger, the live telemetry log and the obs trace are all
files of one JSON object per line.  They differ only in what a bad line
means, so the caller states it:

* **strict** (obs traces): the first line that is not a JSON object
  raises :class:`~repro.errors.ConfigurationError` naming its line
  number, so the CLI prints one message instead of a decoder traceback;
* **tolerant** (checkpoint ledger, live log): a line that is not a JSON
  object — the torn tail a SIGKILL leaves, a bit flip, a hand edit — is
  skipped and counted, and the caller decides what the gap costs.

Blank lines are ignored in both modes.  A missing or unreadable file
raises ``OSError`` for the caller to render.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError


def read_json_lines(
    path: str | Path, *, tolerant: bool
) -> tuple[list[tuple[int, dict[str, Any]]], int]:
    """``([(line number, object), ...], skipped line count)`` of ``path``.

    Line numbers are 1-based, so a caller can insist on what the first
    line of the file holds (the ledger's header).  ``skipped`` is always
    0 in strict mode.
    """
    entries: list[tuple[int, dict[str, Any]]] = []
    skipped = 0
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError or bad UTF-8
                if not tolerant:
                    raise ConfigurationError(
                        f"line {lineno} is not valid JSON: {exc}"
                    ) from exc
                skipped += 1
                continue
            if not isinstance(record, dict):
                if not tolerant:
                    raise ConfigurationError(
                        f"line {lineno} is not a JSON object "
                        f"(got {type(record).__name__})"
                    )
                skipped += 1
                continue
            entries.append((lineno, record))
    return entries, skipped
