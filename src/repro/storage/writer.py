"""Write path of the campaign store: publish a run's closed ledger.

A run writes each result once, as a chunk line of its ledger
(:mod:`repro.runtime.checkpoint`): the ``--checkpoint`` file, or with
``--store`` alone the in-flight file :func:`inflight_path`.  After the
reduce :func:`write_run` publishes the closed ledger as the run's part,
partitioned by campaign id and plan digest::

    <root>/<campaign_id>/<digest[:16]>/part-<spec_digest[:16]>.jsonl

The partition digest is the campaign's ``plan_digest`` when the reduced
value carries one, else the run's ``spec_digest``; the part name is
keyed by ``spec_digest`` alone.  Both are pure functions of
``(root_seed, specs)``, so storing a resumed run replaces *the same*
part an uninterrupted run would have written.  Publishing encodes
nothing, and nothing here imports the simulator.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.errors import ConfigurationError
from repro.storage.ledger import replacing

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


def prepare_store(root: str | Path, campaign_id: str) -> None:
    """Fail now if a run could not store under ``root`` when it ends.

    Checks the campaign id and creates the root directory.
    """
    validate_campaign_id(campaign_id)
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"store root {root} cannot be a directory: {exc}"
        ) from None


def inflight_path(
    root: str | Path, campaign_id: str, spec_digest: str
) -> Path:
    """The ledger of a run that has ``--store`` but no ``--checkpoint``."""
    name = f"run-{spec_digest[:DIGEST_PREFIX]}.jsonl"
    return Path(root) / validate_campaign_id(campaign_id) / name


def write_run(
    root: str | Path,
    ledger: str | Path,
    *,
    spec_digest: str,
    plan_digest: str | None,
    campaign_id: str = "default",
) -> Path:
    """Publish a closed ledger as the run's store part; returns its path.

    A ledger inside the store's campaign directory — the in-flight file,
    or a part that a resume appended to — is renamed into place (a no-op
    when it already is the part).  Any other ledger is copied byte for
    byte to a temporary file in the partition, fsynced and renamed over
    the part, so readers never observe a half-written part and
    rewriting an existing part is atomic.
    """
    campaign = Path(root) / validate_campaign_id(campaign_id)
    digest = (plan_digest or spec_digest)[:DIGEST_PREFIX]
    part = campaign / digest / f"part-{spec_digest[:DIGEST_PREFIX]}.jsonl"
    part.parent.mkdir(parents=True, exist_ok=True)
    if campaign.resolve() in Path(ledger).resolve().parents:
        os.replace(ledger, part)
        return part
    with replacing(part) as tmp:
        with open(ledger, "rb") as src, open(tmp, "wb") as dst:
            shutil.copyfileobj(src, dst)
            dst.flush()
            os.fsync(dst.fileno())
    return part
