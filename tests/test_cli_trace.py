"""``--trace`` on ``fleet`` and ``campaign`` records the CLI process only.

Both run their replicas under one in-process obs context, which worker
processes cannot see, so a pooled run would write an empty trace.  The
CLI refuses ``--trace`` with ``--workers`` > 1 on both commands, also
when ``resume`` re-dispatches one, before any replica runs.  (``mc``
collects each replica's records through the reduce, so any worker count
traces.)
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.obs import read_jsonl, trace_digest, validate_trace

FLEET = ["fleet", "--vehicles", "4", "--drive-ms", "300"]

#: Canonical digest and record count of the ``--seed 3 --workers 1``
#: fleet trace, as written before pooled traces were refused.
FLEET_TRACE = (
    "52ca70a11fd72f601637f4a838b5aedb7b3c3cb5e62f72bebca4ee184c0adc26",
    548,
)


@pytest.mark.parametrize(
    "command", [FLEET, ["campaign"]], ids=["fleet", "campaign"]
)
def test_pooled_trace_is_refused_before_anything_runs(tmp_path, capsys, command):
    trace = tmp_path / "t.jsonl"
    assert main(["--workers", "2", "--trace", str(trace), *command]) == 2
    captured = capsys.readouterr()
    assert "--trace records this process only" in captured.err
    assert "trace with --workers 1" in captured.err
    assert captured.out == ""
    assert not trace.exists()


def test_resume_refuses_a_pooled_trace_too(tmp_path, capsys):
    ledger, trace = tmp_path / "fleet.jsonl", tmp_path / "t.jsonl"
    assert main(["--seed", "3", "--checkpoint", str(ledger), *FLEET]) == 0
    text = ledger.read_text(encoding="utf-8")
    capsys.readouterr()
    argv = ["--trace", str(trace), "resume", str(ledger), "--workers", "2"]
    assert main(argv) == 2
    assert "trace with --workers 1" in capsys.readouterr().err
    assert ledger.read_text(encoding="utf-8") == text
    assert not trace.exists()


def test_serial_fleet_trace_is_unchanged(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    argv = ["--seed", "3", "--workers", "1", "--trace", str(trace), *FLEET]
    assert main(argv) == 0
    assert "(548 records)]" in capsys.readouterr().out
    records = read_jsonl(trace)
    validate_trace(records)
    assert (trace_digest(records), len(records) - 1) == FLEET_TRACE
