"""Pool workers exit when their parent process dies.

A SIGKILLed parent cannot shut its pool down, and a spawn worker waiting
on the executor's call queue never notices (every worker holds the
queue's write end).  Each worker therefore watches its parent's sentinel
and exits when it fires; this test kills a pooled, live-logged ``mc``
mid-campaign and requires every worker named by a ``worker_heartbeat``
record to be gone (exited, or a zombie awaiting its new parent's reap)
within 10 s.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="reads process states from /proc",
)


def _running_worker(pid: int) -> bool:
    """True while ``pid`` is a live (not zombie) multiprocessing process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    state = stat.rsplit(")", 1)[1].split()[0]
    return state != "Z" and b"multiprocessing" in cmdline


def _heartbeat_pids(log: Path) -> set[int]:
    pids: set[int] = set()
    try:
        lines = log.read_text(encoding="utf-8").splitlines()
    except OSError:
        return pids
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue  # the line being written
        if record.get("kind") == "worker_heartbeat" and record.get("pid"):
            pids.add(int(record["pid"]))
    return pids


def test_pool_workers_exit_when_the_parent_is_killed(tmp_path):
    log = tmp_path / "live.jsonl"
    parent = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--seed", "11", "--workers", "2", "--live-log", str(log),
            "mc", "--replicas", "8", "--horizon-ms", "3000",
        ],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    pids: set[int] = set()
    try:
        # Kill after the first heartbeat, once both workers have stamped
        # one (or a few seconds later).
        deadline = time.monotonic() + 60.0
        while parent.poll() is None and time.monotonic() < deadline:
            pids = _heartbeat_pids(log)
            if len(pids) >= 2:
                break
            if pids:
                deadline = min(deadline, time.monotonic() + 5.0)
            time.sleep(0.05)
        assert pids, "no worker_heartbeat record before the run ended"
        assert parent.poll() is None, "the run finished before the kill"
        parent.kill()
        parent.wait()
        alive = set(pids)
        deadline = time.monotonic() + 10.0
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = {pid for pid in alive if _running_worker(pid)}
        assert not alive, (
            f"pool workers {sorted(alive)} outlived their killed parent"
        )
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            if _running_worker(pid):
                os.kill(pid, signal.SIGKILL)
