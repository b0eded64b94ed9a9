"""Store parts from hand-built replica results, through the real write path.

A store part is a run's closed ledger, published by
:func:`repro.storage.writer.write_run`.  These helpers write that
ledger with :class:`~repro.runtime.checkpoint.CheckpointLedger` — chunk
lines, then the close line — from results built without the simulator,
and publish it, so the tests read exactly what a run would leave.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.runtime.checkpoint import CheckpointLedger, spec_digest
from repro.runtime.runner import ReplicaFailure, ReplicaResult
from repro.storage import write_run
from repro.storage.writer import inflight_path


def write_ledger(
    path: Path,
    results: Sequence[ReplicaResult],
    *,
    root_seed: int,
    failures: Sequence[ReplicaFailure] = (),
    plan_digest: str | None = None,
    chunk_size: int | None = None,
    invocation: dict[str, Any] | None = None,
) -> CheckpointLedger:
    """A closed ledger at ``path``: ``results`` in chunks of
    ``chunk_size`` (one chunk by default), then the close line."""
    specs = [None] * (len(results) + len(failures))
    size = chunk_size or max(1, len(results))
    ledger, _ = CheckpointLedger.open(
        path,
        root_seed=root_seed,
        specs=specs,
        chunk_size=size,
        workers=1,
        resume=False,
        invocation=invocation,
    )
    for lo in range(0, len(results), size):
        ledger.append_chunk(results[lo : lo + size])
    ledger.close(
        completed=len(results), failures=failures, plan_digest=plan_digest
    )
    return ledger


def write_part(
    root: Path,
    results: Sequence[ReplicaResult],
    *,
    root_seed: int,
    campaign_id: str = "default",
    plan_digest: str | None = None,
    failures: Sequence[ReplicaFailure] = (),
    **ledger_options: Any,
) -> Path:
    """The part a ``--store``-only run of ``results`` publishes."""
    specs = [None] * (len(results) + len(failures))
    path = inflight_path(root, campaign_id, spec_digest(root_seed, specs))
    ledger = write_ledger(
        path,
        results,
        root_seed=root_seed,
        failures=failures,
        plan_digest=plan_digest,
        **ledger_options,
    )
    return write_run(
        root,
        ledger.path,
        spec_digest=ledger.spec_digest,
        plan_digest=plan_digest,
        campaign_id=campaign_id,
    )
