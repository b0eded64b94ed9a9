"""Tests for the ParallelCampaignRunner and its metrics record.

The task callables live at module level so ``spawn`` workers can import
them by reference (tests run with the repo root on ``sys.path``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import pytest

from repro.errors import SimulationError
from repro.runtime.metrics import RunMetrics
from repro.runtime.runner import (
    MAX_WORKERS,
    ParallelCampaignRunner,
    ReplicaTask,
    RunOptions,
)


@dataclass(frozen=True)
class _Counted:
    value: int
    events_simulated: int


def square_task(replica: ReplicaTask) -> int:
    return replica.index**2 + int(replica.spec)


def counted_task(replica: ReplicaTask) -> _Counted:
    return _Counted(value=replica.index, events_simulated=10 * (replica.index + 1))


def draw_task(replica: ReplicaTask) -> float:
    """First draw of the replica's private stream."""
    return float(replica.rng().random())


def crashy_task(replica: ReplicaTask) -> int:
    """Kill the worker process hard on first execution of index 1.

    A sentinel file marks the first attempt, so the retried chunk
    succeeds — this simulates a transient worker crash (OOM kill).
    """
    sentinel = os.path.join(str(replica.spec), f"crashed-{replica.index}")
    if replica.index == 1 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("x")
        os._exit(17)
    return replica.index


# -- serial path -----------------------------------------------------------


def test_serial_map_without_reduce():
    runner = ParallelCampaignRunner(square_task)
    outcome = runner.run([100, 100, 100], root_seed=0)
    assert outcome.value == (100, 101, 104)
    assert outcome.values() == [100, 101, 104]


def test_reduce_receives_index_order():
    runner = ParallelCampaignRunner(
        square_task, reduce=list, options=RunOptions(chunk_size=2)
    )
    outcome = runner.run([0] * 5, root_seed=0)
    assert outcome.value == [0, 1, 4, 9, 16]
    assert [r.index for r in outcome.results] == [0, 1, 2, 3, 4]


def test_metrics_accounting():
    runner = ParallelCampaignRunner(counted_task)
    outcome = runner.run([None] * 4, root_seed=0)
    m = outcome.metrics
    assert m.replicas == 4
    assert m.workers == 1
    assert m.events_simulated == 10 + 20 + 30 + 40
    assert m.events_per_second > 0
    assert m.retries == 0
    assert pytest.approx(sum(m.worker_busy_s.values()), rel=1e-6) == sum(
        r.elapsed_s for r in outcome.results
    )


def test_replica_streams_match_seeds_module():
    from repro.runtime.seeds import replica_rng

    outcome = ParallelCampaignRunner(draw_task).run([None] * 6, root_seed=99)
    expected = [float(replica_rng(99, i).random()) for i in range(6)]
    assert outcome.values() == expected


def rejecting_reduce(values):
    """A fold reducer that rejects empty campaigns (like summarize_campaign)."""
    if not values:
        raise ValueError("cannot reduce an empty campaign")
    return sum(values)


def test_empty_spec_list():
    outcome = ParallelCampaignRunner(square_task).run([], root_seed=0)
    assert outcome.value == ()
    assert outcome.metrics.replicas == 0
    assert outcome.complete
    assert outcome.completeness()["replicas_expected"] == 0


def test_empty_run_never_calls_reduce():
    """run([]) short-circuits instead of handing [] to fold reducers."""
    outcome = ParallelCampaignRunner(square_task, rejecting_reduce).run([])
    assert outcome.value == ()
    assert outcome.results == ()
    # A non-empty run still exercises the reducer.
    assert ParallelCampaignRunner(square_task, rejecting_reduce).run(
        [0, 0]
    ).value == 0 + 1


def test_validation():
    with pytest.raises(ValueError):
        RunOptions(workers=0)
    with pytest.raises(ValueError):
        RunOptions(workers=MAX_WORKERS + 1)
    with pytest.raises(ValueError):
        RunOptions(chunk_size=0)
    with pytest.raises(ValueError):
        ParallelCampaignRunner(square_task, max_retries=-1)


# -- parallel path ---------------------------------------------------------


def test_parallel_equals_serial_toy_task():
    serial = ParallelCampaignRunner(square_task).run([5] * 9, root_seed=3)
    parallel = ParallelCampaignRunner(
        square_task, options=RunOptions(workers=2, chunk_size=2)
    ).run([5] * 9, root_seed=3)
    assert parallel.value == serial.value
    assert parallel.metrics.workers == 2


def test_worker_crash_is_retried(tmp_path):
    runner = ParallelCampaignRunner(
        crashy_task,
        options=RunOptions(workers=2, chunk_size=1),
        max_retries=2,
    )
    outcome = runner.run([str(tmp_path)] * 4, root_seed=0)
    assert outcome.value == (0, 1, 2, 3)
    assert outcome.metrics.retries >= 1
    assert (tmp_path / "crashed-1").exists()


# -- metrics record --------------------------------------------------------


def test_run_metrics_json_roundtrip(tmp_path):
    metrics = RunMetrics.from_results(
        replicas=3,
        workers=2,
        chunk_size=1,
        wall_time_s=2.0,
        retries=1,
        events=[100, 200, 300],
        busy_by_worker={"pid-1": 1.0, "pid-2": 0.5},
    )
    assert metrics.events_simulated == 600
    assert metrics.events_per_second == pytest.approx(300.0)
    assert metrics.worker_utilization["pid-1"] == pytest.approx(0.5)
    path = metrics.write_json(tmp_path / "deep" / "metrics.json")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["replicas"] == 3
    assert loaded["retries"] == 1
    assert loaded["worker_busy_s"]["pid-2"] == pytest.approx(0.5)


def test_lost_replica_detected():
    """The runner refuses to reduce an incomplete result set."""

    class Hole(ParallelCampaignRunner):
        def _run_pool(self, tasks, chunk_size, *args, **kwargs):
            results, retries = super()._run_pool(
                tasks, chunk_size, *args, **kwargs
            )
            return results[:-1], retries

    runner = Hole(square_task, options=RunOptions(workers=2, chunk_size=1))
    with pytest.raises(SimulationError, match="lost replicas"):
        runner.run([0] * 4, root_seed=0)


def test_duplicated_replica_detected():
    """Duplicate indices trip the guard too (not just missing ones)."""

    class Double(ParallelCampaignRunner):
        def _run_pool(self, tasks, chunk_size, *args, **kwargs):
            results, retries = super()._run_pool(
                tasks, chunk_size, *args, **kwargs
            )
            return results + results[:1], retries

    runner = Double(square_task, options=RunOptions(workers=2, chunk_size=1))
    with pytest.raises(SimulationError, match="lost replicas"):
        runner.run([0] * 4, root_seed=0)
