"""Store write-overhead bench.

Runs the same stochastic campaign with and without ``--store``-style
part writes (same seed, serial execution, so the simulated work is
bit-identical) and records the wall-clock cost of persistence — each
completed chunk is encoded into the declared tables and appended to the
run's in-flight ledger, fsynced, and the closed ledger is renamed into
place as the part.  A ``repro
query``-path aggregation over the freshly written part is timed too: it
bounds what an offline analysis pays to answer the NFF/confusion
questions without re-running anything.

Emits ``benchmarks/out/BENCH_store.json``: wall times, overhead ratio,
part size, and the store-vs-reduce equality check.  The perf gate
(``tests/perf/test_perf_gate.py::test_store_write_overhead``) enforces
the <10 % overhead budget on the CI runner class; here the assertion is
deliberately loose (CI shares hosts) while the *equality* of the stored
aggregates is asserted exactly.
"""

from __future__ import annotations

import os
import time

from repro.faults.campaign import CampaignReplicaSpec
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.storage import CampaignStore
from repro.storage.query import confusion, nff_ratio
from repro.units import ms

from benchmarks._util import emit, once

REPLICAS = int(os.environ.get("REPRO_BENCH_REPLICAS", "60"))
ROOT_SEED = 77
CHUNK_SIZE = 2
SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(300))


def _dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _time_store(replicas: int, store_root):
    """(plain outcome, stored outcome, query seconds) for the gate."""
    plain = run_random_campaigns(
        replicas, root_seed=ROOT_SEED, spec=SPEC,
        options=RunOptions(chunk_size=CHUNK_SIZE),
    )
    stored = run_random_campaigns(
        replicas, root_seed=ROOT_SEED, spec=SPEC,
        options=RunOptions(
            chunk_size=CHUNK_SIZE, store=str(store_root),
            campaign_id="bench",
        ),
    )
    t0 = time.perf_counter()
    store = CampaignStore(store_root)
    nff = nff_ratio(store)
    by_mechanism = confusion(store)
    query_s = time.perf_counter() - t0
    return plain, stored, nff, by_mechanism, query_s


def test_store_write_overhead(benchmark, tmp_path):
    store_root = tmp_path / "store"
    plain, stored, nff, by_mechanism, query_s = once(
        benchmark, _time_store, REPLICAS, store_root
    )

    # Persistence must not perturb the campaign, and the stored columns
    # must answer exactly what the in-memory reduce answers.
    summary = plain.value
    assert stored.value == summary
    assert nff["faults_injected"] == summary.faults_injected
    assert nff["faults_attributed"] == summary.faults_attributed
    assert {
        (row["mechanism"], row["injected"], row["attributed"])
        for row in by_mechanism
    } == {
        (m, count, dict(summary.attributed_by_mechanism).get(m, 0))
        for m, count in summary.injected_by_mechanism
    }

    part_bytes = _dir_bytes(store_root)
    wall_plain = plain.metrics.wall_time_s
    wall_store = stored.metrics.wall_time_s
    overhead = (wall_store - wall_plain) / wall_plain if wall_plain else 0.0
    lines = [
        f"Store write overhead ({REPLICAS} replicas, "
        f"chunk_size={CHUNK_SIZE})",
        f"  no store    : {wall_plain:8.3f} s wall",
        f"  with store  : {wall_store:8.3f} s wall "
        f"({overhead:+.1%} overhead)",
        f"  query (cold): {query_s * 1e3:8.2f} ms for NFF + confusion",
        f"  part        : {part_bytes / 1024:.1f} KiB, one part file",
    ]
    emit(
        "BENCH_store",
        "\n".join(lines),
        data={
            "replicas": REPLICAS,
            "chunk_size": CHUNK_SIZE,
            "wall_plain_s": round(wall_plain, 4),
            "wall_store_s": round(wall_store, 4),
            "query_s": round(query_s, 4),
            "overhead_ratio": round(overhead, 4),
            "part_bytes": part_bytes,
            "nff_ratio": round(nff["nff_ratio"], 4),
            "aggregate_identical": True,
        },
    )
    # Generous local gate (the strict <10 % budget lives in the perf
    # gate, which runs on the pinned CI runner class).
    assert wall_store < 2.0 * wall_plain + 1.0
