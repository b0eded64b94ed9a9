"""Byte-stable rendering of counterfactual replay results.

Like ``repro query``, every report here must be reproducible byte for
byte from the same baseline artefact: no wall-clock times, no absolute
paths, no machine identifiers.  ``tests/replay/`` pins a golden report
against this module.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.reports import fmt, fmt_signed, render_table
from repro.obs.provenance import causal_dags, walk_faults
from repro.replay.engine import ScanResult, WhatifResult

_NFF = WhatifResult._nff


def _rewrite_label(result: WhatifResult) -> str:
    parts = [f"without-fault {s}" for s in result.suppress_faults]
    parts += [f"without-ona {name}" for name in result.disable_onas]
    return ", ".join(parts)


def _chain_rows(result: WhatifResult) -> list[tuple]:
    """Cause-DAG rows for affected replicas, when provenance was traced.

    One row per fault of an affected replica, by fault id: the stages
    its chain reached and the ONA classes that fired on it.
    """
    rows: list[tuple] = []
    if not result.baseline.spec.obs_provenance:
        return rows
    for index in result.affected:
        records = result.baseline.outcome(index).obs_trace
        if not records:
            continue
        chains = []
        for dag in causal_dags(records).values():  # one: this replica's
            for walk in walk_faults(dag):
                attrs = dag.nodes[walk.root][3]
                onas = set()
                for cause_id in walk.members:
                    stage, _, _, node_attrs, _ = dag.nodes[cause_id]
                    if stage == "ona" and node_attrs.get("ona") is not None:
                        onas.add(str(node_attrs["ona"]))
                chains.append(
                    (
                        str(attrs.get("fault_id", walk.root)),
                        str(attrs.get("mechanism", "unknown")),
                        "->".join(walk.stages),
                        ",".join(sorted(onas)) or "-",
                    )
                )
        rows.extend((index, *chain) for chain in sorted(chains))
    return rows


def render_whatif_report(result: WhatifResult) -> str:
    """Render one counterfactual replay as a deterministic text report."""
    base = result.baseline_summary
    counter = result.counterfactual_summary
    lines: list[str] = []
    lines.append("counterfactual replay (whatif)")
    lines.append(
        f"baseline: {result.baseline.source} seed={result.baseline.root_seed} "
        f"replicas={result.baseline.replicas} "
        f"expected_faults={fmt(result.baseline.spec.expected_faults)} "
        f"horizon_us={result.baseline.spec.horizon_us}"
    )
    lines.append(f"rewrite: {_rewrite_label(result)}")
    lines.append(
        f"affected replicas: {len(result.affected)}/{result.baseline.replicas} "
        f"(by {result.affected_by}) "
        f"{list(result.affected)!r} | spliced: {len(result.spliced)}"
    )
    if result.conservative:
        lines.append(
            "note: baseline recorded no observability — affected set "
            "widened to every replica (conservative)"
        )
    avoided = result.baseline_events - result.replayed_events
    lines.append(
        f"events replayed: {result.replayed_events} of "
        f"{result.baseline_events} baseline events "
        f"(avoided {avoided})"
    )
    lines.append("")
    lines.append(
        render_table(
            ("metric", "baseline", "counterfactual", "delta"),
            [
                (
                    "faults injected",
                    base.faults_injected,
                    counter.faults_injected,
                    fmt_signed(counter.faults_injected - base.faults_injected),
                ),
                (
                    "faults attributed",
                    base.faults_attributed,
                    counter.faults_attributed,
                    fmt_signed(
                        counter.faults_attributed - base.faults_attributed
                    ),
                ),
                (
                    "attribution accuracy",
                    round(base.attribution_accuracy, 4),
                    round(counter.attribution_accuracy, 4),
                    fmt_signed(round(result.accuracy_delta, 4)),
                ),
                (
                    "NFF ratio",
                    round(_NFF(base), 4),
                    round(_NFF(counter), 4),
                    fmt_signed(round(result.nff_delta, 4)),
                ),
                (
                    "verdicts emitted",
                    base.verdicts_emitted,
                    counter.verdicts_emitted,
                    fmt_signed(
                        counter.verdicts_emitted - base.verdicts_emitted
                    ),
                ),
                (
                    "events simulated",
                    base.events_simulated,
                    counter.events_simulated,
                    fmt_signed(
                        counter.events_simulated - base.events_simulated
                    ),
                ),
            ],
            title="campaign delta",
        )
    )
    merged: dict[str, int] = {}
    for flip in result.flips:
        for mechanism, delta in flip.attributed_delta:
            merged[mechanism] = merged.get(mechanism, 0) + delta
    mech_rows = [
        (mechanism, fmt_signed(delta))
        for mechanism, delta in sorted(merged.items())
        if delta
    ]
    if mech_rows:
        lines.append("")
        lines.append(
            render_table(
                ("mechanism", "attributed delta"),
                mech_rows,
                title="attribution movement by mechanism",
            )
        )
    flip_rows = [
        (
            flip.replica,
            fmt_signed(flip.faults_injected_delta),
            fmt_signed(flip.faults_attributed_delta),
            fmt_signed(flip.verdicts_delta),
            fmt_signed(flip.events_delta),
            ",".join(flip.alpha_moved) or "-",
            ",".join(flip.trust_moved) or "-",
        )
        for flip in result.flips
        if flip.changed
    ]
    lines.append("")
    if flip_rows:
        lines.append(
            render_table(
                (
                    "replica",
                    "injected",
                    "attributed",
                    "verdicts",
                    "events",
                    "alpha moved",
                    "trust moved",
                ),
                flip_rows,
                title="replica flips",
            )
        )
    else:
        lines.append("replica flips: none — the rewrite changed nothing")
    chain_rows = _chain_rows(result)
    if chain_rows:
        lines.append("")
        lines.append(
            render_table(
                ("replica", "fault", "mechanism", "stages", "onas"),
                chain_rows,
                title="baseline cause chains of affected replicas",
            )
        )
    return "\n".join(lines) + "\n"


def render_scan_report(result: ScanResult) -> str:
    """Render a marginal-diagnostic-value scan as a ranked table."""
    base = result.baseline_summary
    lines: list[str] = []
    lines.append(f"marginal diagnostic value scan (mode={result.mode})")
    lines.append(
        f"baseline: {result.baseline.source} "
        f"seed={result.baseline.root_seed} "
        f"replicas={result.baseline.replicas} "
        f"accuracy={round(base.attribution_accuracy, 4)} "
        f"nff={round(_NFF(base), 4)}"
    )
    lines.append("")
    lines.append(
        render_table(
            (
                "rank",
                "kind",
                "removed",
                "affected",
                "accuracy delta",
                "nff delta",
                "verdicts delta",
                "flips",
                "events replayed",
            ),
            [
                (
                    rank,
                    entry.kind,
                    entry.label,
                    entry.affected,
                    fmt_signed(round(entry.accuracy_delta, 4)),
                    fmt_signed(round(entry.nff_delta, 4)),
                    fmt_signed(entry.verdicts_delta),
                    entry.flips,
                    entry.replayed_events,
                )
                for rank, entry in enumerate(result.entries, start=1)
            ],
            title="ranked by |accuracy delta|, |nff delta|",
        )
    )
    return "\n".join(lines) + "\n"


def whatif_to_dict(result: WhatifResult) -> dict[str, Any]:
    """JSON-safe projection of a whatif result (``--json``)."""
    return {
        "baseline": {
            "source": result.baseline.source,
            "root_seed": result.baseline.root_seed,
            "replicas": result.baseline.replicas,
        },
        "rewrite": {
            "without_faults": list(result.suppress_faults),
            "without_onas": list(result.disable_onas),
        },
        "affected": list(result.affected),
        "spliced": list(result.spliced),
        "affected_by": result.affected_by,
        "conservative": result.conservative,
        "events": {
            "baseline": result.baseline_events,
            "replayed": result.replayed_events,
            "avoided": result.baseline_events - result.replayed_events,
            "replicas_resumed": result.metrics.replicas_resumed,
        },
        "baseline_summary": result.baseline_summary.to_dict(),
        "counterfactual_summary": result.counterfactual_summary.to_dict(),
        "deltas": {
            "faults_injected": (
                result.counterfactual_summary.faults_injected
                - result.baseline_summary.faults_injected
            ),
            "faults_attributed": (
                result.counterfactual_summary.faults_attributed
                - result.baseline_summary.faults_attributed
            ),
            "attribution_accuracy": round(result.accuracy_delta, 6),
            "nff_ratio": round(result.nff_delta, 6),
            "verdicts_emitted": (
                result.counterfactual_summary.verdicts_emitted
                - result.baseline_summary.verdicts_emitted
            ),
        },
        "flips": [
            {
                "replica": flip.replica,
                "faults_injected_delta": flip.faults_injected_delta,
                "faults_attributed_delta": flip.faults_attributed_delta,
                "verdicts_delta": flip.verdicts_delta,
                "events_delta": flip.events_delta,
                "attributed_delta": dict(flip.attributed_delta),
                "alpha_moved": list(flip.alpha_moved),
                "trust_moved": list(flip.trust_moved),
            }
            for flip in result.flips
        ],
    }


def scan_to_dict(result: ScanResult) -> dict[str, Any]:
    """JSON-safe projection of a scan result (``--json``)."""
    return {
        "baseline": {
            "source": result.baseline.source,
            "root_seed": result.baseline.root_seed,
            "replicas": result.baseline.replicas,
        },
        "mode": result.mode,
        "baseline_summary": result.baseline_summary.to_dict(),
        "entries": [
            {
                "kind": entry.kind,
                "label": entry.label,
                "affected": entry.affected,
                "accuracy_delta": round(entry.accuracy_delta, 6),
                "nff_delta": round(entry.nff_delta, 6),
                "verdicts_delta": entry.verdicts_delta,
                "flips": entry.flips,
                "events_replayed": entry.replayed_events,
            }
            for entry in result.entries
        ],
    }
