"""Checkpoint ledger overhead bench.

Runs the same stochastic campaign with and without ``--checkpoint``-style
ledger appends (same seed, serial execution, so the simulated work is
bit-identical) and records the wall-clock cost of durability — each
chunk line is encoded as the declared store tables, checksummed, flushed
and fsynced.  A resumed run over the complete ledger is timed too: it
bounds the fixed price a crash recovery pays (reading, checking and
decoding every chunk) before any replica executes.

Emits ``benchmarks/out/BENCH_checkpoint.json``: wall times, overhead
ratio, chunk count and ledger size.  The overhead is asserted only
loosely (fsync cost is host-dependent); the equivalence of the
aggregates is asserted exactly.
"""

from __future__ import annotations

import os

from repro.faults.campaign import CampaignReplicaSpec
from repro.runtime.checkpoint import load_ledger
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns

from repro.units import ms

from benchmarks._util import emit, once

REPLICAS = int(os.environ.get("REPRO_BENCH_REPLICAS", "60"))
ROOT_SEED = 77
CHUNK_SIZE = 2
SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(300))


def run_all(ledger_path: str):
    plain = run_random_campaigns(
        REPLICAS, root_seed=ROOT_SEED, spec=SPEC,
        options=RunOptions(chunk_size=CHUNK_SIZE),
    )
    checkpointed = run_random_campaigns(
        REPLICAS, root_seed=ROOT_SEED, spec=SPEC,
        options=RunOptions(chunk_size=CHUNK_SIZE, checkpoint=ledger_path),
    )
    resumed = run_random_campaigns(
        REPLICAS, root_seed=ROOT_SEED, spec=SPEC,
        options=RunOptions(
            chunk_size=CHUNK_SIZE, checkpoint=ledger_path, resume=True
        ),
    )
    return plain, checkpointed, resumed


def test_checkpoint_overhead(benchmark, tmp_path):
    ledger_path = str(tmp_path / "bench-ledger.jsonl")
    plain, checkpointed, resumed = once(benchmark, run_all, ledger_path)

    # Durability must not perturb the campaign, and a resume over the
    # complete ledger must reproduce it without executing anything.
    assert checkpointed.value == plain.value
    assert resumed.value == plain.value
    assert resumed.metrics.replicas_resumed == REPLICAS
    assert resumed.metrics.events_simulated == 0

    state = load_ledger(ledger_path)
    ledger_bytes = os.path.getsize(ledger_path)
    wall_plain = plain.metrics.wall_time_s
    wall_ckpt = checkpointed.metrics.wall_time_s
    overhead = (wall_ckpt - wall_plain) / wall_plain if wall_plain else 0.0
    lines = [
        f"Checkpoint ledger overhead ({REPLICAS} replicas, "
        f"chunk_size={CHUNK_SIZE})",
        f"  no checkpoint : {wall_plain:8.3f} s wall",
        f"  checkpointed  : {wall_ckpt:8.3f} s wall "
        f"({overhead:+.1%} overhead)",
        f"  resume (full) : {resumed.metrics.wall_time_s:8.3f} s wall, "
        f"{REPLICAS} replicas loaded, 0 executed",
        f"  ledger        : {ledger_bytes / 1024:.1f} KiB, "
        f"{len(state.results_by_index)} replicas across chunks",
    ]
    emit(
        "BENCH_checkpoint",
        "\n".join(lines),
        data={
            "replicas": REPLICAS,
            "chunk_size": CHUNK_SIZE,
            "wall_plain_s": round(wall_plain, 4),
            "wall_checkpointed_s": round(wall_ckpt, 4),
            "wall_resume_s": round(resumed.metrics.wall_time_s, 4),
            "overhead_ratio": round(overhead, 4),
            "ledger_bytes": ledger_bytes,
            "aggregate_identical": True,
        },
    )
    # Generous gate: durability may not multiply the campaign cost.
    assert wall_ckpt < 3.0 * wall_plain + 1.0
