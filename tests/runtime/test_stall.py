"""Stall detection and resubmission in the live-telemetry pool path.

The acceptance case: a worker that stops heartbeating is flagged
``stall_suspected`` and its chunk resubmitted to a free worker *without
waiting for pool teardown*; the run completes with the same aggregate an
uninterrupted run produces (duplicate execution is safe because results
dedupe by replica index and replica values are pure functions of
``(root_seed, index)``).

The hanging task coordinates through marker files under the spec
directory, like ``test_crash_recovery``:

* ``hung-once``  — created (O_EXCL) by the first execution of replica 0,
  which then blocks; any later execution of replica 0 sees the marker
  and returns immediately — whichever execution loses the race, the
  outcome converges;
* ``release``    — written by the test at teardown so the hung worker
  exits promptly instead of sleeping out its bounded deadline.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.obs.live import LiveEventBus, MemoryLiveSink
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask, RunOptions

#: Upper bound on how long the hung replica sleeps if never released.
_HANG_DEADLINE_S = 30.0


def hang_once_task(replica: ReplicaTask) -> int:
    base = str(replica.spec)
    if replica.index == 0:
        marker = os.path.join(base, "hung-once")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return replica.index * 10  # the resubmitted duplicate
        os.close(fd)
        release = os.path.join(base, "release")
        deadline = time.monotonic() + _HANG_DEADLINE_S
        while time.monotonic() < deadline and not os.path.exists(release):
            time.sleep(0.05)
    return replica.index * 10


def test_stalled_chunk_is_resubmitted_without_pool_teardown(tmp_path):
    sink = MemoryLiveSink()
    bus = LiveEventBus([sink])
    runner = ParallelCampaignRunner(
        hang_once_task,
        options=RunOptions(workers=2, chunk_size=1),
        max_retries=2,
        retry_backoff_s=0.0,
        stall_timeout_s=2.0,
        stall_poll_s=0.1,
        shutdown_timeout_s=0.5,
    )
    t0 = time.monotonic()
    try:
        outcome = runner.run([str(tmp_path)] * 3, root_seed=0, live=bus)
    finally:
        # Release the hung worker (and reap any leaked pid) promptly.
        with open(
            os.path.join(tmp_path, "release"), "w", encoding="utf-8"
        ) as fh:
            fh.write("x")
    wall = time.monotonic() - t0

    # Bit-identical to an uninterrupted run of the same campaign.
    assert outcome.value == (0, 10, 20)
    assert [r.index for r in outcome.results] == [0, 1, 2]
    assert outcome.complete

    # The stall was flagged and structurally resubmitted: the chunk id
    # of the stall_suspected record was chunk_submitted at least twice.
    kinds = [r["kind"] for r in sink.records]
    assert "stall_suspected" in kinds
    stalls = [r for r in sink.records if r["kind"] == "stall_suspected"]
    assert all(s["action"] == "resubmitted" for s in stalls)
    stalled_cid = stalls[0]["chunk"]
    submissions = [
        r
        for r in sink.records
        if r["kind"] == "chunk_submitted" and r["chunk"] == stalled_cid
    ]
    assert len(submissions) >= 2
    assert outcome.metrics.retries >= 1

    # The run_finished record carries the stall count.
    finished = [r for r in sink.records if r["kind"] == "run_finished"]
    assert len(finished) == 1
    assert finished[0]["stalls"] >= 1

    # "Without waiting for pool teardown": the run completed long before
    # the hung replica's own deadline — the duplicate won while the
    # original was still blocked.
    assert wall < _HANG_DEADLINE_S / 2

    # The abandoned original is either reaped by the bounded shutdown or
    # reported as a leaked pid — never silently lost.  Reap stragglers
    # so the test leaves nothing behind.
    for pid in outcome.metrics.leaked_worker_pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def test_stall_knobs_are_validated():
    with pytest.raises(ValueError, match="stall_timeout_s"):
        ParallelCampaignRunner(hang_once_task, stall_timeout_s=0.0)
    with pytest.raises(ValueError, match="stall_poll_s"):
        ParallelCampaignRunner(hang_once_task, stall_poll_s=0.0)
    with pytest.raises(ValueError, match="straggler_factor"):
        ParallelCampaignRunner(hang_once_task, straggler_factor=1.0)
