"""Write path of the columnar campaign store.

:func:`write_run` flattens a reduced :class:`~repro.runtime.runner
.RunOutcome` into one store *part* — a directory of columnar table
files plus a manifest — partitioned by campaign id and plan digest::

    <root>/<campaign_id>/<digest[:16]>/part-<spec_digest[:16]>/

The partition digest is the campaign's ``plan_digest`` (a pure function
of the injected fault plan) when the reduced value carries one, else
the run's ``spec_digest``; the part name is keyed by ``spec_digest``
alone.  Both are pure functions of ``(root_seed, specs)``, so storing a
resumed run overwrites *the same* part an uninterrupted run would have
written — store writes are idempotent per run identity.

The tables come from :func:`repro.storage.codec.encode`, the encoder
the checkpoint ledger uses too, which is duck-typed over the outcome
values and imports nothing from the simulator: the writer runs in the
parent process after the index-ordered reduce, and the whole storage
package must stay importable — and usable — without the simulation
stack.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.backend import file_sha256, get_backend, resolve_format
from repro.storage.codec import encode
from repro.storage.schema import MANIFEST_NAME, STORE_SCHEMA_VERSION, TABLES

#: Characters allowed in a campaign id (it becomes a directory name).
_ID_ALLOWED = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)

#: Digest prefix length used for partition/part directory names.
DIGEST_PREFIX = 16


def validate_campaign_id(campaign_id: str) -> str:
    """Reject ids that cannot be a safe single directory name."""
    if (
        not campaign_id
        or campaign_id.startswith(".")
        or not set(campaign_id) <= _ID_ALLOWED
    ):
        raise ConfigurationError(
            f"invalid campaign id {campaign_id!r}: use letters, digits, "
            "'-', '_' and '.' (not leading)"
        )
    return campaign_id


def write_run(
    root: str | Path,
    outcome: Any,
    *,
    root_seed: int,
    spec_digest: str,
    meta: dict[str, Any] | None = None,
    fmt: str | None = None,
) -> Path:
    """Persist one reduced run as a store part; returns the part path.

    ``meta`` may carry ``campaign_id`` (partition label, default
    ``"default"``), ``format`` (overrides ``fmt``), and ``command`` /
    ``params`` labels copied into the manifest for provenance.  The part
    is written into a temporary sibling directory and swapped in with a
    directory rename, so readers never observe a half-written part and
    rewriting an existing part is atomic.
    """
    meta = dict(meta or {})
    campaign_id = validate_campaign_id(
        str(meta.get("campaign_id") or "default")
    )
    resolved = resolve_format(
        str(
            fmt
            or meta.get("format")
            or os.environ.get("REPRO_STORE_FORMAT", "auto")
        )
    )
    backend = get_backend(resolved)

    kind, tables = encode(outcome.results, root_seed, outcome.failures)
    plan_digest = getattr(outcome.value, "plan_digest", None)
    partition = (plan_digest or spec_digest)[:DIGEST_PREFIX]
    part_name = f"part-{spec_digest[:DIGEST_PREFIX]}"
    part_dir = Path(root) / campaign_id / partition / part_name
    tmp_dir = part_dir.parent / f".tmp-{part_name}-{os.getpid()}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)

    try:
        files: dict[str, dict[str, Any]] = {}
        for table, columns in tables.items():
            path = tmp_dir / f"{table}{backend.suffix}"
            backend.write_table(path, table, TABLES[table], columns)
            files[table] = {
                "path": path.name,
                "sha256": file_sha256(path),
                "rows": len(next(iter(columns.values()))),
            }
        manifest = {
            "schema_version": STORE_SCHEMA_VERSION,
            "format": backend.name,
            "kind": kind,
            "campaign_id": campaign_id,
            "root_seed": int(root_seed),
            "spec_digest": spec_digest,
            "plan_digest": plan_digest,
            "replicas": len(outcome.results),
            "failed": len(outcome.failures),
            "complete": not outcome.failures,
            "command": meta.get("command"),
            "params": meta.get("params"),
            "files": files,
        }
        (tmp_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if part_dir.exists():
            shutil.rmtree(part_dir)
        os.replace(tmp_dir, part_dir)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return part_dir
