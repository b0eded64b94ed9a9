"""Parallel campaign runner — scaling and serial-equivalence bench.

Runs a ≥200-replica stochastic fault campaign once serially and once
through the spawn worker pool, asserts the two aggregates are
bit-identical, and records the wall-clock trajectory in
``benchmarks/out/BENCH_parallel.json`` (structured: per-run metrics,
speedup, host parallelism).

The speedup assertion is hardware-gated and lives in its own test so
the gate is visible in the pytest report: on a host with ≥4 CPUs the
pool must deliver ≥2x; on smaller containers (where no wall-clock
speedup is physically possible) that test SKIPS with an explicit
reason instead of silently passing.  The equivalence check always
runs and records ``cpu_count`` so the trajectory is interpretable.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.reports import render_table
from repro.faults.campaign import CampaignReplicaSpec
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.units import ms

from benchmarks._util import emit, once

REPLICAS = int(os.environ.get("REPRO_BENCH_REPLICAS", "200"))
ROOT_SEED = 1234
WORKERS = 4
SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(300))


#: One campaign pair per session — the speedup test reuses the scaling
#: test's measurement instead of re-running several minutes of work.
_CACHE: dict[str, tuple] = {}


def run_both():
    serial = run_random_campaigns(REPLICAS, root_seed=ROOT_SEED, spec=SPEC)
    parallel = run_random_campaigns(
        REPLICAS,
        root_seed=ROOT_SEED,
        spec=SPEC,
        options=RunOptions(workers=WORKERS),
    )
    _CACHE["runs"] = (serial, parallel)
    return serial, parallel


def _speedup(serial, parallel) -> float:
    if parallel.metrics.wall_time_s <= 0:
        return 0.0
    return serial.metrics.wall_time_s / parallel.metrics.wall_time_s


def test_parallel_campaign_scaling(benchmark):
    cpu_count = os.cpu_count() or 1
    serial, parallel = once(benchmark, run_both)
    assert serial.value == parallel.value, (
        "parallel aggregate diverged from serial — determinism broken"
    )
    speedup = _speedup(serial, parallel)
    summary = serial.value
    table = render_table(
        ["run", "workers", "wall [s]", "events/s", "chunks retried"],
        [
            [
                "serial",
                1,
                f"{serial.metrics.wall_time_s:.2f}",
                f"{serial.metrics.events_per_second:,.0f}",
                serial.metrics.retries,
            ],
            [
                "parallel",
                WORKERS,
                f"{parallel.metrics.wall_time_s:.2f}",
                f"{parallel.metrics.events_per_second:,.0f}",
                parallel.metrics.retries,
            ],
        ],
        title=(
            f"Parallel campaign runner: {REPLICAS} replicas, "
            f"{summary.faults_injected} faults, speedup {speedup:.2f}x "
            f"on {cpu_count} CPU(s)"
        ),
    )
    emit(
        "BENCH_parallel",
        table,
        data={
            "replicas": REPLICAS,
            "root_seed": ROOT_SEED,
            "cpu_count": cpu_count,
            "speedup": round(speedup, 3),
            "identical_aggregates": True,
            "plan_digest": summary.plan_digest,
            "campaign_summary": summary.to_dict(),
            "serial": serial.metrics.to_dict(),
            "parallel": parallel.metrics.to_dict(),
        },
    )
    assert REPLICAS >= 200 or "REPRO_BENCH_REPLICAS" in os.environ


def test_parallel_speedup_on_multicore():
    """Hardware-gated ≥2x check — an explicit SKIP on small hosts.

    Previously this assertion hid inside ``test_parallel_campaign_scaling``
    behind ``if cpu_count >= WORKERS``, so a 1-CPU CI runner reported a
    green PASS without ever exercising it.  As a separate test it shows
    up as ``SKIPPED (needs >= 4 CPUs ...)`` in the report instead.
    """
    cpu_count = os.cpu_count() or 1
    if cpu_count < WORKERS:
        pytest.skip(
            f"hardware-gated: needs >= {WORKERS} CPUs for the >=2x "
            f"speedup assertion, host has {cpu_count}"
        )
    if "runs" not in _CACHE:  # ran standalone (e.g. -k speedup)
        run_both()
    serial, parallel = _CACHE["runs"]
    speedup = _speedup(serial, parallel)
    assert speedup >= 2.0, (
        f"expected >=2x speedup on {cpu_count} CPUs, got {speedup:.2f}x"
    )
