"""Write path of the campaign store.

:func:`write_run` stores a reduced :class:`~repro.runtime.runner
.RunOutcome` as one store *part*: a one-chunk ledger file
(:mod:`repro.storage.ledger`), partitioned by campaign id and plan
digest::

    <root>/<campaign_id>/<digest[:16]>/part-<spec_digest[:16]>.jsonl

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

import os
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.codec import encode
from repro.storage.ledger import LEDGER_VERSION, append_lines, chunk_line

#: Characters allowed in a campaign id (it becomes a directory name).
_ID_ALLOWED = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)

#: Digest prefix length used for partition and part names.
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


def prepare_store(
    root: str | Path,
    campaign_id: str,
    checkpoint: str | Path | None = None,
) -> None:
    """Fail now if a run could not store under ``root`` when it ends.

    Checks the campaign id, refuses a checkpoint ledger at the store
    root itself and creates the root directory.
    """
    validate_campaign_id(campaign_id)
    root = Path(root)
    if checkpoint is not None and Path(checkpoint).resolve() == root.resolve():
        raise ConfigurationError(
            f"store root {root} is also the checkpoint ledger path; give "
            "--store a directory of its own"
        )
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"store root {root} cannot be a directory: {exc}"
        ) from None


def write_run(
    root: str | Path,
    outcome: Any,
    *,
    root_seed: int,
    spec_digest: str,
    campaign_id: str = "default",
    invocation: dict[str, Any] | None = None,
) -> Path:
    """Persist one reduced run as a store part; returns the part path.

    The header carries the ledger header fields, the CLI's
    ``invocation`` record (``command``, ``params``, ``argv``) and
    ``campaign_id``, the partition label.  The one chunk line holds
    every result and the salvage ``failures``; the close line the plan
    digest and the completed and failed counts.  The file is written
    and fsynced under a temporary name in the partition directory, then
    renamed into place, so readers never observe a half-written part and
    rewriting an existing part is atomic.
    """
    campaign_id = validate_campaign_id(campaign_id)
    kind, tables = encode(outcome.results, root_seed, outcome.failures)
    plan_digest = getattr(outcome.value, "plan_digest", None)
    completed, failed = len(outcome.results), len(outcome.failures)
    header = {
        **(invocation or {}),
        "kind": "header",
        "version": LEDGER_VERSION,
        "root_seed": int(root_seed),
        "replicas": completed + failed,
        "spec_digest": spec_digest,
        "campaign_id": campaign_id,
    }
    indices = [r.index for r in outcome.results]
    close = {
        "kind": "close",
        "plan_digest": plan_digest,
        "completed": completed,
        "failed": failed,
        "complete": not outcome.failures,
    }
    digest = (plan_digest or spec_digest)[:DIGEST_PREFIX]
    partition = Path(root) / campaign_id / digest
    part = partition / f"part-{spec_digest[:DIGEST_PREFIX]}.jsonl"
    tmp = partition / f".tmp-{part.name}-{os.getpid()}"
    partition.mkdir(parents=True, exist_ok=True)
    tmp.unlink(missing_ok=True)
    try:
        append_lines(
            tmp, header, chunk_line(kind, tables, chunk=0, indices=indices), close
        )
        os.replace(tmp, part)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return part
