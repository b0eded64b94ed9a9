"""Counterfactual replay speedup bench (``repro whatif``).

Measures what the splice buys: a checkpointed baseline campaign is
replayed with one fault suppressed, once through the whatif engine
(re-executing only the DAG-affected replica, splicing the rest from the
ledger) and once as a fresh full counterfactual run.  Both paths must
produce the identical summary — that equality is asserted, it is the
engine's identity contract — so the wall-clock ratio is a pure
measurement of work avoided, and the ``events_simulated`` metrics record
exactly how much simulation the splice skipped.

Emits ``benchmarks/out/BENCH_whatif.json``: replay wall vs full-rerun
wall, the speedup, and the event-accounting splice proof.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.faults.campaign import CampaignReplicaSpec
from repro.replay import load_baseline, whatif
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.units import ms

from benchmarks._util import emit, once

REPLICAS = int(os.environ.get("REPRO_BENCH_WHATIF_REPLICAS", "24"))
ROOT_SEED = 77
SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(400))


def run_all(ledger_path: str):
    params = {
        "replicas": REPLICAS,
        "expected_faults": SPEC.expected_faults,
        "horizon_ms": SPEC.horizon_us // 1000,
    }
    run_random_campaigns(
        REPLICAS,
        root_seed=ROOT_SEED,
        spec=SPEC,
        options=RunOptions(
            checkpoint=ledger_path,
            invocation={"command": "mc", "params": params},
        ),
    )
    baseline = load_baseline(ledger_path)
    target_replica = next(
        i for i in range(REPLICAS) if baseline.outcome(i).plan_events
    )
    mechanism, target, at_us = baseline.outcome(target_replica).plan_events[0]
    selector = f"r{target_replica}:{mechanism}@{target}@{at_us}"

    t0 = time.perf_counter()
    replayed = whatif(baseline, suppress_faults=(selector,))
    wall_replay = time.perf_counter() - t0

    t0 = time.perf_counter()
    fresh = run_random_campaigns(
        REPLICAS,
        root_seed=ROOT_SEED,
        spec=replace(SPEC, suppress_faults=(selector,)),
    )
    wall_fresh = time.perf_counter() - t0
    return baseline, replayed, fresh, wall_replay, wall_fresh


def test_whatif_speedup(benchmark, tmp_path):
    ledger_path = str(tmp_path / "bench-whatif.ckpt")
    baseline, replayed, fresh, wall_replay, wall_fresh = once(
        benchmark, run_all, ledger_path
    )

    # The identity contract: splice-replay == fresh full counterfactual.
    assert replayed.counterfactual_summary == fresh.value
    # The splice proof: only the affected replica's events re-ran.
    assert len(replayed.affected) == 1
    assert replayed.metrics.replicas_resumed == REPLICAS - 1
    assert replayed.replayed_events < replayed.baseline_events

    speedup = wall_fresh / wall_replay if wall_replay else float("inf")
    avoided = replayed.baseline_events - replayed.replayed_events
    lines = [
        f"Counterfactual replay speedup ({REPLICAS} replicas, "
        f"1 fault suppressed)",
        f"  full rerun : {wall_fresh:8.3f} s wall, "
        f"{fresh.metrics.events_simulated} events",
        f"  whatif     : {wall_replay:8.3f} s wall, "
        f"{replayed.replayed_events} events fresh "
        f"({replayed.metrics.replicas_resumed} replicas spliced)",
        f"  speedup    : {speedup:8.2f}x wall, "
        f"{avoided} simulated events avoided",
    ]
    emit(
        "BENCH_whatif",
        "\n".join(lines),
        data={
            "replicas": REPLICAS,
            "wall_full_rerun_s": round(wall_fresh, 4),
            "wall_whatif_s": round(wall_replay, 4),
            "speedup": round(speedup, 2),
            "events_baseline": replayed.baseline_events,
            "events_replayed": replayed.replayed_events,
            "events_avoided": avoided,
            "replicas_spliced": replayed.metrics.replicas_resumed,
            "identity_exact": True,
        },
    )
