"""Performance-regression gate against the committed baselines.

Compares the kernel hot paths against ``benchmarks/baselines.json`` and
fails on a regression beyond the tolerance (default 20 %).  Wall-clock
measurements are only meaningful on the runner class the baselines were
recorded on, so the whole module SKIPs unless ``REPRO_PERF_CI=1`` — CI
sets it; locally run::

    REPRO_PERF_CI=1 PYTHONPATH=src python -m pytest tests/perf -q -s

Every test writes its measurement into ``benchmarks/out/perf_gate.json``
(via the bench emit helper), which CI uploads as an artifact; after an
*intentional* perf change, copy the measured values into
``baselines.json`` in the same commit.

Knobs:

* ``REPRO_PERF_CI=1`` — enable the gate (off by default everywhere else).
* ``REPRO_PERF_TOLERANCE`` — allowed fractional regression (default from
  ``baselines.json``, currently 0.2).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.sim.engine import Simulator

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF_CI") != "1",
    reason=(
        "perf gate compares wall-clock against baselines recorded on the "
        "CI runner class; set REPRO_PERF_CI=1 to run it on this machine"
    ),
)

_BASELINES_PATH = Path(__file__).parent.parent.parent / "benchmarks" / "baselines.json"


def _baselines() -> dict:
    return json.loads(_BASELINES_PATH.read_text(encoding="utf-8"))


def _tolerance(baselines: dict) -> float:
    return float(
        os.environ.get(
            "REPRO_PERF_TOLERANCE", baselines.get("tolerance_default", 0.2)
        )
    )


_RESULTS: dict[str, dict] = {}


def _record(name: str, measured: dict) -> None:
    """Accumulate gate measurements and emit the artifact incrementally."""
    from benchmarks._util import emit

    _RESULTS[name] = measured
    lines = ["perf gate measurements vs benchmarks/baselines.json"]
    for bench, result in sorted(_RESULTS.items()):
        lines.append(f"  {bench}: {result}")
    emit("perf_gate", "\n".join(lines), data=dict(_RESULTS))


def test_kernel_a10_single_replica_wall():
    from benchmarks.bench_kernel import _time_single_replica

    baselines = _baselines()
    base = baselines["benches"]["kernel_a10_single_replica"]
    tolerance = _tolerance(baselines)
    wall, events = _time_single_replica()
    limit = base["wall_s"] * (1.0 + tolerance)
    _record(
        "kernel_a10_single_replica",
        {
            "wall_s": round(wall, 4),
            "events": events,
            "baseline_wall_s": base["wall_s"],
            "limit_wall_s": round(limit, 4),
        },
    )
    assert events == base["events"], (
        f"event count diverged: {events} != {base['events']} — behaviour "
        "change, not a perf regression; fix equivalence first"
    )
    assert wall <= limit, (
        f"A10 single-replica wall {wall:.3f} s exceeds baseline "
        f"{base['wall_s']:.3f} s by more than {tolerance:.0%}"
    )


def _rate_one_shot(n: int) -> float:
    best = 0.0
    for _ in range(3):
        sim = Simulator()
        callback = lambda s: None  # noqa: E731
        for t in range(n):
            sim.schedule_at(t, callback)
        t0 = time.perf_counter()
        sim.run_until(n)
        best = max(best, n / (time.perf_counter() - t0))
    return best


def _rate_periodic(n: int) -> float:
    best = 0.0
    for _ in range(3):
        sim = Simulator()
        sim.schedule_periodic(1, lambda s: None)
        t0 = time.perf_counter()
        sim.run_until(n)
        best = max(best, n / (time.perf_counter() - t0))
    return best


def test_campaign_serial_wall():
    """The serial campaign path must not regress.

    A 12-replica 300 ms A10 campaign through ``run_random_campaigns``
    against the committed baseline.  The event count is a pure function
    of (seed, spec, replicas), so a count mismatch is a behaviour
    change, not a perf regression.
    """
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns
    from repro.units import ms

    baselines = _baselines()
    base = baselines["benches"]["campaign_serial"]
    tolerance = _tolerance(baselines)
    outcome = run_random_campaigns(
        base["replicas"],
        root_seed=4321,
        spec=CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(300)),
    )
    wall = outcome.metrics.wall_time_s
    limit = base["wall_s"] * (1.0 + tolerance)
    _record(
        "campaign_serial",
        {
            "wall_s": round(wall, 4),
            "events": outcome.metrics.events_simulated,
            "baseline_wall_s": base["wall_s"],
            "limit_wall_s": round(limit, 4),
        },
    )
    assert outcome.metrics.events_simulated == base["events"], (
        f"event count diverged: {outcome.metrics.events_simulated} != "
        f"{base['events']} — behaviour change, not a perf regression"
    )
    assert wall <= limit, (
        f"serial campaign wall {wall:.3f} s exceeds baseline "
        f"{base['wall_s']:.3f} s by more than {tolerance:.0%}"
    )


def test_store_write_overhead(tmp_path):
    """Columnar-store writes must stay inside the <10 % overhead budget.

    The gate is relative — the same campaign with and without the store
    write, measured in one session — so it is host-speed independent.
    The stored aggregates must also answer exactly what the in-memory
    reduce answers (the cheap end of the differential battery).
    """
    from benchmarks.bench_store import _time_store

    baselines = _baselines()
    base = baselines["benches"]["store_write"]
    plain, stored, nff, _confusion, query_s = _time_store(
        base["replicas"], tmp_path / "store"
    )
    wall_plain = plain.metrics.wall_time_s
    wall_store = stored.metrics.wall_time_s
    overhead = (wall_store - wall_plain) / wall_plain if wall_plain else 0.0
    _record(
        "store_write",
        {
            "wall_plain_s": round(wall_plain, 4),
            "wall_store_s": round(wall_store, 4),
            "query_s": round(query_s, 4),
            "overhead_ratio": round(overhead, 4),
            "max_overhead": base["max_overhead"],
        },
    )
    assert stored.value == plain.value, (
        "store write perturbed the campaign aggregate — identity broken; "
        "fix the store differential battery first"
    )
    assert nff["faults_injected"] == plain.value.faults_injected
    assert overhead <= base["max_overhead"], (
        f"store write overhead {overhead:.1%} exceeds the "
        f"{base['max_overhead']:.0%} budget "
        f"({wall_store:.3f} s vs {wall_plain:.3f} s)"
    )


@pytest.mark.parametrize(
    "bench, measure",
    [("kernel_dispatch", _rate_one_shot), ("kernel_periodic", _rate_periodic)],
)
def test_kernel_throughput(bench, measure):
    baselines = _baselines()
    base = baselines["benches"][bench]
    tolerance = _tolerance(baselines)
    rate = measure(base["events"])
    floor = base["events_per_s"] / (1.0 + tolerance)
    _record(
        bench,
        {
            "events_per_s": round(rate),
            "baseline_events_per_s": base["events_per_s"],
            "floor_events_per_s": round(floor),
        },
    )
    assert rate >= floor, (
        f"{bench} throughput {rate:,.0f} ev/s is more than {tolerance:.0%} "
        f"below the baseline {base['events_per_s']:,.0f} ev/s"
    )
