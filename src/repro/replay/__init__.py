"""Counterfactual replay of stored campaigns (``repro whatif``).

The replay engine answers "what would the diagnosis have concluded
without this fault / without this ONA class" *exactly*, not
approximately: it loads a completed campaign baseline (a checkpoint
ledger or a store part), computes the set of replicas whose
verdict chains are downstream of the suppressed cause, re-executes only
those replicas from their recorded seed streams with the cause removed,
splices every unaffected replica's stored result straight into the
reduce, and diffs the two campaigns into a marginal-diagnostic-value
report.

The identity contract — replay-with-splice is bit-identical to a fresh
full run with the cause removed, at any worker count — is enforced by
``tests/replay/``; the engine's ``events_simulated`` accounting proves
the splice (see ``docs/replay.md``).
"""

from repro.replay.baseline import CampaignBaseline, load_baseline
from repro.replay.engine import (
    ReplicaFlip,
    ScanEntry,
    ScanResult,
    WhatifResult,
    affected_replicas,
    scan,
    whatif,
)
from repro.replay.report import (
    render_scan_report,
    render_whatif_report,
    scan_to_dict,
    whatif_to_dict,
)

__all__ = [
    "CampaignBaseline",
    "ReplicaFlip",
    "ScanEntry",
    "ScanResult",
    "WhatifResult",
    "affected_replicas",
    "load_baseline",
    "render_scan_report",
    "render_whatif_report",
    "scan",
    "scan_to_dict",
    "whatif",
    "whatif_to_dict",
]
