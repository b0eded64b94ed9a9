"""Offline analytics over the campaign store.

Every function here aggregates *stored* columns only — integer sums and
the exact merged histograms — so the results are bit-equal to the
in-memory reduce that produced the part (asserted by the store-vs-reduce
differential battery, ``tests/storage/test_store_differential.py``) and
computing them never instantiates, or even imports, the simulator.

Aggregates:

* :func:`nff_ratio` — fraction of injected faults the diagnosis failed
  to attribute (the maintenance-oriented *no-fault-found* rate the
  source paper targets);
* :func:`confusion` — per-mechanism injected/attributed counts, like
  every fault count here a count over the ``plan_events`` rows;
* :func:`accuracy_drift` — attribution accuracy per campaign id, in
  campaign order, with deltas — the cross-campaign question the store
  exists to answer without re-running anything;
* :func:`stage_latency` — per-class provenance stage percentiles from
  the power-of-two histograms of the per-replica sidecars, merged
  exactly as the reduce merged them (:func:`merged_counters`).
"""

from __future__ import annotations

from typing import Any

from repro.analysis.reports import render_table
from repro.errors import ConfigurationError
from repro.obs.counters import CounterRegistry, split_key
from repro.obs.provenance import histogram_quantile
from repro.storage.codec import counter_snapshots
from repro.storage.store import CampaignStore, StorePart

#: Histogram-key prefix of the provenance stage-latency tables.
STAGE_LATENCY_PREFIX = "provenance.stage_latency_us{"

#: The tables per-replica counter snapshots are rebuilt from.
_COUNTER_TABLES = ("replicas", "replica_counters", "replica_histograms")


def _campaign_parts(
    store: CampaignStore, campaign: str | None = None
) -> list[StorePart]:
    """The campaign parts every aggregate reads; an empty selection is
    refused, because its zeros would read as a perfect campaign."""
    parts = store.parts(campaign=campaign, kind="campaign")
    if not parts:
        raise ConfigurationError(
            "store holds no campaign parts"
            + (f" for campaign {campaign!r}" if campaign else "")
        )
    return parts


def _sums(part: StorePart) -> dict[str, int]:
    replicas = part.table("replicas")
    attributed = part.table("plan_events")["attributed"]
    return {
        "replicas": len(replicas["replica"]),
        "faults_injected": len(attributed),
        "faults_attributed": sum(attributed),
        "verdicts_emitted": sum(replicas["verdicts_emitted"]),
        "events_simulated": sum(replicas["events_simulated"]),
    }


def campaign_summaries(
    store: CampaignStore, campaign: str | None = None
) -> list[dict[str, Any]]:
    """One row per stored campaign part, in deterministic part order."""
    rows = []
    for part in _campaign_parts(store, campaign):
        sums = _sums(part)
        injected = sums["faults_injected"]
        attributed = sums["faults_attributed"]
        rows.append(
            {
                "campaign": part.campaign_id,
                "plan_digest": (part.plan_digest or "")[:12],
                "root_seed": part.root_seed,
                **sums,
                "accuracy": attributed / injected if injected else 0.0,
                "nff_ratio": (
                    (injected - attributed) / injected if injected else 0.0
                ),
                "complete": part.complete,
            }
        )
    return rows


def nff_ratio(
    store: CampaignStore, campaign: str | None = None
) -> dict[str, Any]:
    """Overall no-fault-found ratio (plus the raw counts it came from)."""
    injected = attributed = 0
    for part in _campaign_parts(store, campaign):
        sums = _sums(part)
        injected += sums["faults_injected"]
        attributed += sums["faults_attributed"]
    return {
        "faults_injected": injected,
        "faults_attributed": attributed,
        "nff_ratio": (injected - attributed) / injected if injected else 0.0,
    }


def confusion(
    store: CampaignStore, campaign: str | None = None
) -> list[dict[str, Any]]:
    """Per-mechanism injected/attributed counts over stored campaigns."""
    injected: dict[str, int] = {}
    attributed: dict[str, int] = {}
    for part in _campaign_parts(store, campaign):
        faults = part.table("plan_events")
        for mechanism, hit in zip(faults["mechanism"], faults["attributed"]):
            injected[mechanism] = injected.get(mechanism, 0) + 1
            attributed[mechanism] = attributed.get(mechanism, 0) + hit
    return [
        {
            "mechanism": mechanism,
            "injected": injected[mechanism],
            "attributed": attributed.get(mechanism, 0),
            "accuracy": (
                attributed.get(mechanism, 0) / injected[mechanism]
                if injected[mechanism]
                else 0.0
            ),
        }
        for mechanism in sorted(injected)
    ]


def accuracy_drift(store: CampaignStore) -> list[dict[str, Any]]:
    """Attribution accuracy per campaign id, with drift vs the previous.

    Campaign ids sort lexicographically, so date- or sequence-stamped ids
    (``2026-08-08-nightly``, ``c001`` …) read out in campaign order —
    the cross-campaign drift question answered straight from the store.
    """
    by_campaign: dict[str, list[int]] = {}
    for part in _campaign_parts(store):
        sums = _sums(part)
        totals = by_campaign.setdefault(part.campaign_id, [0, 0])
        totals[0] += sums["faults_injected"]
        totals[1] += sums["faults_attributed"]
    rows = []
    previous: float | None = None
    for campaign in sorted(by_campaign):
        injected, attributed = by_campaign[campaign]
        accuracy = attributed / injected if injected else 0.0
        rows.append(
            {
                "campaign": campaign,
                "faults_injected": injected,
                "faults_attributed": attributed,
                "accuracy": accuracy,
                "drift": 0.0 if previous is None else accuracy - previous,
            }
        )
        previous = accuracy
    return rows


def merged_counters(
    store: CampaignStore, campaign: str | None = None
) -> dict[str, Any]:
    """The counter snapshot of the stored campaigns, merged.

    Within a part the replicas' snapshots merge in replica order — the
    order the reduce merged them in, so float sums come out bit-equal —
    and then the parts merge in part order.
    """
    per_part = []
    for part in _campaign_parts(store, campaign):
        snapshots = counter_snapshots(
            {name: part.table(name) for name in _COUNTER_TABLES}
        )
        per_part.append(
            CounterRegistry.merged(snapshots[i] for i in sorted(snapshots))
        )
    return CounterRegistry.merged(per_part)


def stage_latency(
    store: CampaignStore, campaign: str | None = None
) -> list[dict[str, Any]]:
    """Per-(class, stage) latency percentiles from the stored histograms,
    merged as the reduce merged them (:func:`merged_counters`)."""
    return stage_latency_rows(merged_counters(store, campaign)["histograms"])


def stage_latency_rows(histograms: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-(class, stage) latency percentiles of merged histograms."""
    rows = []
    for key, data in sorted(histograms.items()):
        if not key.startswith(STAGE_LATENCY_PREFIX):
            continue
        labels = split_key(key)[1]
        count = data["count"]
        rows.append(
            {
                "cls": labels.get("cls", "?"),
                "stage": labels.get("stage", "?"),
                "count": count,
                "p50_us": histogram_quantile(data, 0.5),
                "p90_us": histogram_quantile(data, 0.9),
                "mean_us": data["sum"] / count if count else 0.0,
            }
        )
    return rows


def render_query_report(
    store: CampaignStore, campaign: str | None = None
) -> str:
    """The full ``repro query report``: byte-stable plain text.

    Deliberately free of wall-clock times, absolute paths and any other
    host-dependent value, so identical stored campaigns render identical
    bytes (pinned by ``tests/data/golden_query_report.txt``).
    """
    summaries = campaign_summaries(store, campaign)
    sections = [
        render_table(
            [
                "campaign",
                "plan digest",
                "seed",
                "replicas",
                "injected",
                "attributed",
                "accuracy",
                "NFF ratio",
            ],
            [
                (
                    row["campaign"],
                    row["plan_digest"],
                    row["root_seed"],
                    row["replicas"],
                    row["faults_injected"],
                    row["faults_attributed"],
                    round(row["accuracy"], 4),
                    round(row["nff_ratio"], 4),
                )
                for row in summaries
            ],
            title="stored campaigns",
            precision=4,
        ),
        render_table(
            ["mechanism", "injected", "attributed", "accuracy"],
            [
                (
                    row["mechanism"],
                    row["injected"],
                    row["attributed"],
                    round(row["accuracy"], 4),
                )
                for row in confusion(store, campaign)
            ],
            title="attribution by mechanism",
            precision=4,
        ),
    ]
    if campaign is None:
        drift = accuracy_drift(store)
        if len(drift) > 1:
            sections.append(
                render_table(
                    ["campaign", "injected", "accuracy", "drift"],
                    [
                        (
                            row["campaign"],
                            row["faults_injected"],
                            round(row["accuracy"], 4),
                            round(row["drift"], 4),
                        )
                        for row in drift
                    ],
                    title="accuracy drift across campaigns",
                    precision=4,
                )
            )
    latencies = stage_latency(store, campaign)
    if latencies:
        sections.append(
            render_table(
                ["class", "stage", "count", "p50 us", "p90 us"],
                [
                    (
                        row["cls"],
                        row["stage"],
                        row["count"],
                        row["p50_us"],
                        row["p90_us"],
                    )
                    for row in latencies
                ],
                title="provenance stage latency",
                precision=4,
            )
        )
    return "\n\n".join(sections) + "\n"
