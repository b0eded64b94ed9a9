"""A run with at most one replica left to run starts no worker pool.

``whatif`` splices every replica its rewrite leaves unaffected, and
``resume`` loads every replica its ledger holds.  When only one replica
is fresh, a spawn pool would add its start-up (interpreter and imports)
and nothing else, so the runner runs that replica in the parent,
whatever ``--workers`` says.  The result is the ``workers=1`` result.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main
from repro.replay import load_baseline, whatif, whatif_to_dict
from repro.runtime import runner


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", refuse)


def _mc(ledger, *extra: str) -> str:
    """Run a checkpointed 3-replica mc; return its plan digest line."""
    out = io.StringIO()
    argv = [
        "--seed", "11", "--checkpoint", str(ledger), *extra,
        "mc", "--replicas", "3", "--horizon-ms", "300",
    ]
    with redirect_stdout(out):
        assert main(argv) == 0
    return _digest_line(out.getvalue())


def _digest_line(out: str) -> str:
    lines = [line for line in out.splitlines() if "plan digest" in line]
    assert lines, out
    return lines[-1]


def test_whatif_with_one_affected_replica_runs_in_the_parent(
    tmp_path, no_pool
):
    ledger = tmp_path / "mc.jsonl"
    _mc(ledger, "--provenance")
    baseline = load_baseline(ledger)
    mechanism, target, at_us = baseline.outcome(0).plan_events[0]
    rewrite = (f"r0:{mechanism}@{target}@{at_us}",)

    serial = whatif(baseline, suppress_faults=rewrite, workers=1)
    assert len(serial.affected) == 1
    pooled = whatif(baseline, suppress_faults=rewrite, workers=2)
    assert whatif_to_dict(pooled) == whatif_to_dict(serial)


def test_resume_with_one_missing_replica_runs_in_the_parent(
    tmp_path, no_pool
):
    ledger = tmp_path / "mc.jsonl"
    reference = _mc(ledger)
    lines = ledger.read_text(encoding="utf-8").splitlines()
    # Header and one chunk line per replica (chunk size 1), then close.
    assert len(lines) == 5
    ledger.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["resume", str(ledger), "--workers", "2"]) == 0
    assert "[resumed: 2 replica(s)" in out.getvalue()
    assert _digest_line(out.getvalue()) == reference
