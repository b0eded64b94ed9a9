"""``--workers`` is range-checked when the command line is parsed.

The runner accepts 1 to ``MAX_WORKERS`` worker processes.  A value
outside that range is an argparse usage error (exit status 2) on every
command that runs replicas, before anything runs — including a
``resume`` that types the override.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """A finished two-replica mc ledger (a whatif baseline)."""
    path = tmp_path_factory.mktemp("workers") / "mc.jsonl"
    argv = ["--checkpoint", str(path), "mc", "--replicas", "2", "--horizon-ms", "100"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return path


@pytest.mark.parametrize("workers", ["0", "65"])
@pytest.mark.parametrize(
    "command",
    [
        ["mc", "--replicas", "2", "--horizon-ms", "100"],
        ["fleet", "--vehicles", "1", "--drive-ms", "100"],
        ["campaign"],
        ["whatif", "{ledger}", "--scan", "onas"],
        ["resume", "{ledger}"],
    ],
    ids=["mc", "fleet", "campaign", "whatif", "resume"],
)
def test_workers_out_of_range_is_a_usage_error(ledger, capsys, command, workers):
    argv = [arg.replace("{ledger}", str(ledger)) for arg in command]
    before = ledger.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", workers])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--workers: must be between 1 and 64" in captured.err
    assert captured.out == ""
    assert ledger.read_bytes() == before
