"""Baseline loading for the counterfactual replay engine.

A *baseline* is one completed ``mc`` campaign with full per-replica
results, recoverable from either durable artefact the runtime writes:

* a **checkpoint ledger** (``--checkpoint PATH``), whose chunk lines
  carry the declared result tables of their replicas;
* a **store part** (``--store DIR``), the run's closed ledger published
  into the store, read under the store's strict part rules.

Both hold per-replica obs counters and trace records in the declared
sidecar tables.  :func:`load_baseline` picks the file — the ledger, or
the one ``mc`` part of a store — and reads it through the line reader
and decoder that ``repro resume`` uses too
(:func:`repro.storage.ledger.read_ledger`, tolerant for a ledger and
strict for a part), so any ``mc`` campaign, observability on or off,
replays from either.  The campaign spec is rebuilt from the recorded
CLI parameters and its :func:`~repro.runtime.checkpoint.spec_digest`
must equal the digest the file was bound to — a reconstruction that
cannot prove it matches the original campaign must not silently replay
something else — and every replica of the campaign must be present.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome, CampaignReplicaSpec
from repro.runtime.checkpoint import spec_digest
from repro.runtime.runner import ReplicaResult
from repro.storage.ledger import read_ledger
from repro.storage.store import CampaignStore


@dataclass(frozen=True, slots=True)
class CampaignBaseline:
    """One fully-covered ``mc`` campaign, ready to replay against."""

    source: str  # "checkpoint" | "store"
    path: str
    root_seed: int
    replicas: int
    spec: CampaignReplicaSpec
    params: dict[str, Any]
    #: Complete per-replica results, one entry per index in
    #: ``range(replicas)``.
    results: dict[int, ReplicaResult]

    def outcome(self, index: int) -> CampaignReplicaOutcome:
        """The campaign outcome of replica ``index``."""
        return self.results[index].value

    def outcomes(self) -> list[CampaignReplicaOutcome]:
        """All outcomes in index order."""
        return [self.results[i].value for i in range(self.replicas)]

    def events_simulated(self) -> int:
        """Total simulated events of the full baseline run."""
        return sum(o.events_simulated for o in self.outcomes())


def _mc_part(root: Path, campaign: str | None) -> Path:
    """The path of the one mc part of a store."""
    parts = [
        p
        for p in CampaignStore(root).parts(campaign=campaign, kind="campaign")
        if p.header.get("command") == "mc"
    ]
    if not parts:
        raise ConfigurationError(
            f"store {root} holds no mc campaign part"
            + (f" for campaign {campaign!r}" if campaign else "")
        )
    if len(parts) > 1:
        ids = sorted({p.campaign_id for p in parts})
        raise ConfigurationError(
            f"store {root} holds {len(parts)} mc parts (campaigns "
            f"{ids!r}); name one with --campaign"
        )
    return parts[0].path


def load_baseline(
    path: str | Path, *, campaign: str | None = None
) -> CampaignBaseline:
    """Load a baseline: a directory is a store, a file a ledger."""
    p = Path(path)
    if p.is_dir():
        source, file = "store", _mc_part(p, campaign)
        where = f"store part {file}"
    elif p.is_file():
        source, file, where = "checkpoint", p, f"ledger {p}"
    else:
        raise ConfigurationError(
            f"baseline {p} does not exist (expected a checkpoint ledger "
            "file or a store directory)"
        )
    ledger = read_ledger(file, tolerant=source == "checkpoint", decode=True)
    meta, results = ledger.header, ledger.results
    command = meta.get("command")
    if command != "mc":
        raise ConfigurationError(
            f"{where} records command {command!r}; counterfactual replay "
            "supports mc campaigns (write one with `python -m repro mc "
            "--checkpoint PATH` or `--store DIR`)"
        )
    root_seed = meta["root_seed"]
    replicas = meta["replicas"]
    try:
        params = dict(meta.get("params") or {})
        spec = CampaignReplicaSpec.from_flags(params)
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"{where} params do not describe an mc campaign: {exc!r}"
        ) from None
    # Coverage first: it bounds ``replicas`` by what the artefact holds
    # before the digest materialises one spec per replica.
    if len(results) != replicas or set(results) != set(range(replicas)):
        missing = list(
            islice((i for i in range(replicas) if i not in results), 9)
        )
        raise ConfigurationError(
            f"{where} covers {len(results)}/{replicas} replicas (missing "
            f"{missing[:8]!r}{'…' if len(missing) > 8 else ''}) — replay "
            "needs full baseline coverage; finish the campaign with "
            f"`python -m repro resume {file}` before replaying it"
        )
    rebuilt = spec_digest(root_seed, [spec] * replicas)
    if meta.get("spec_digest") != rebuilt:
        raise ConfigurationError(
            f"{where} was written by a campaign whose spec cannot be "
            "reconstructed from its recorded parameters (recorded digest "
            f"{str(meta.get('spec_digest'))[:16]}…, rebuilt "
            f"{rebuilt[:16]}…) — replay needs a plain `repro mc` baseline"
        )
    return CampaignBaseline(
        source=source,
        path=str(p),
        root_seed=root_seed,
        replicas=replicas,
        spec=spec,
        params=params,
        results=dict(results),
    )
