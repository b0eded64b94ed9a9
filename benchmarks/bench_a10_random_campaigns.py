"""A10 — stochastic field-mix campaigns.

The fixed catalogue (Figs. 4-6) injects one mechanism at a time.  This
bench runs *random* campaigns — Poisson fault counts, mechanism mix
calibrated to the paper's cited field statistics, uniform activation times,
faults superimposed in a single run — and scores the per-fault attribution
accuracy.  This is the closest analogue of a field trial the simulated
substrate supports.

It is the campaign of the CLI and of the end-to-end ``a10_long``
workload: eight replicas of root seed 1, about four faults each over an
8 s horizon, run through :func:`repro.runtime.workloads
.run_random_campaigns`::

    python -m repro --seed 1 mc --replicas 8 --expected-faults 4 --horizon-ms 8000
"""

from __future__ import annotations

import math

from repro.analysis.reports import render_table
from repro.faults.campaign import CampaignReplicaSpec
from repro.runtime.workloads import run_random_campaigns
from repro.units import seconds

from benchmarks._util import emit, once

REPLICAS = 8
ROOT_SEED = 1
SPEC = CampaignReplicaSpec(expected_faults=4.0, horizon_us=seconds(8))


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """The Wilson score interval of ``hits`` out of ``n`` (95 % by default)."""
    p = hits / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return centre - half, centre + half


def test_a10_random_field_campaigns(benchmark):
    outcome = once(
        benchmark, run_random_campaigns, REPLICAS, root_seed=ROOT_SEED, spec=SPEC
    )
    summary = outcome.value
    total, correct = summary.faults_injected, summary.faults_attributed
    low, high = wilson_interval(correct, total)
    replica_table = render_table(
        ["replica", "faults injected", "correctly attributed"],
        [
            [r.index, r.value.faults_injected, r.value.faults_attributed]
            for r in outcome.results
        ],
        title=(
            f"A10 — random field-mix campaigns (paper-calibrated mix, "
            f"root seed {ROOT_SEED})"
        ),
    )
    attributed = dict(summary.attributed_by_mechanism)
    mech_table = render_table(
        ["mechanism", "injections", "attribution accuracy"],
        [
            [m, count, f"{attributed.get(m, 0) / count:.0%}"]
            for m, count in summary.injected_by_mechanism
        ],
        title="Per-mechanism accuracy across all replicas",
    )
    emit(
        "a10_random_campaigns",
        replica_table
        + "\n\n"
        + mech_table
        + f"\n\noverall: {correct}/{total} ({correct / total:.0%}), "
        f"95 % Wilson interval {low:.2f}-{high:.2f}",
        data={
            "root_seed": ROOT_SEED,
            "replicas": REPLICAS,
            "plan_digest": summary.plan_digest,
            "faults_injected": total,
            "correctly_attributed": correct,
            "accuracy": round(correct / total, 4),
            "wilson_95": [round(low, 4), round(high, 4)],
            "per_mechanism": {
                m: {"injected": count, "attributed": attributed.get(m, 0)}
                for m, count in summary.injected_by_mechanism
            },
        },
    )
    assert total >= 20
    assert correct / total >= 0.85
