"""``repro resume`` re-parses the argv recorded in the ledger header.

Resume rebuilds the run through the CLI's own parser: the recorded
argv, plus exactly the global flags typed before or after ``resume``,
whatever their values, with ``--checkpoint`` forced to the ledger.
Flags that would change the campaign — ``--seed``, and for ``mc`` the
obs flags that enter its spec digest — are refused by the ledger's
identity check with a message on stderr, never a traceback.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.storage import CampaignStore

MC = ["mc", "--replicas", "4", "--horizon-ms", "300"]


def _digest_line(out: str) -> str:
    (line,) = [line for line in out.splitlines() if "plan digest" in line]
    return line


def _truncated(ledger: Path, chunks: int) -> str:
    """The ledger's header and first ``chunks`` chunk lines."""
    kept = []
    for line in ledger.read_text(encoding="utf-8").splitlines():
        kind = json.loads(line)["kind"]
        if kind == "chunk" and chunks == 0:
            break
        if kind in ("header", "chunk"):
            kept.append(line)
            chunks -= kind == "chunk"
    return "\n".join(kept) + "\n"


@pytest.fixture(scope="module")
def mc_ledger(tmp_path_factory):
    """A killed ``--workers 2 --campaign-id nightly`` mc run: the header
    and one chunk line, plus the uninterrupted run's digest line."""
    path = tmp_path_factory.mktemp("mc") / "written.jsonl"
    argv = [
        "--seed", "11", "--workers", "2", "--campaign-id", "nightly",
        "--checkpoint", str(path), *MC,
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert json.loads(path.read_text(encoding="utf-8").splitlines()[0])[
        "argv"
    ] == argv
    return _truncated(path, 1), _digest_line(out.getvalue())


def _ledger(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "ledger.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


def test_typed_workers_wins_even_at_the_parser_default(
    tmp_path, capsys, mc_ledger
):
    text, reference = mc_ledger
    ledger = _ledger(tmp_path, text)
    metrics = tmp_path / "m.json"
    argv = ["resume", str(ledger), "--workers", "1"]
    assert main([*argv, "--metrics-json", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert f"resuming mc campaign from {ledger} (seed 11, workers=1)" in out
    assert "[resumed: 1 replica(s) loaded" in out
    assert _digest_line(out) == reference
    assert json.loads(metrics.read_text(encoding="utf-8"))["workers"] == 1


def test_typed_campaign_id_wins_even_at_the_parser_default(
    tmp_path, capsys, mc_ledger
):
    """Flags typed before ``resume`` count as well as flags after it."""
    text, reference = mc_ledger
    ledger = _ledger(tmp_path, text)
    store = tmp_path / "store"
    argv = ["--store", str(store), "resume", str(ledger)]
    assert main([*argv, "--campaign-id", "default"]) == 0
    out = capsys.readouterr().out
    assert _digest_line(out) == reference
    assert "(campaign 'default')" in out
    (part,) = CampaignStore(store).parts()
    assert part.campaign_id == "default"
    assert part.header["params"]["campaign_id"] == "default"


@pytest.mark.parametrize(
    "flags, mismatch",
    [
        (["--seed", "99"], "root_seed: ledger has 11, run has 99"),
        (["--trace", "{tmp}/t.jsonl"], "spec_digest"),
        (["--profile"], "spec_digest"),
        (["--provenance"], "spec_digest"),
    ],
    ids=["seed", "trace", "profile", "provenance"],
)
def test_identity_flags_are_refused_by_the_ledger(
    tmp_path, capsys, mc_ledger, flags, mismatch
):
    """``--seed`` changes the root seed and, for mc, the obs flags change
    the spec digest: the ledger refuses them and is left untouched."""
    text, _reference = mc_ledger
    ledger = _ledger(tmp_path, text)
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert main([*flags, "resume", str(ledger)]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint ledger {ledger} does not match this campaign" in err
    assert mismatch in err
    assert ledger.read_text(encoding="utf-8") == text
    assert not (tmp_path / "t.jsonl").exists()


COMMANDS = {
    "mc": MC,
    "fleet": ["fleet", "--vehicles", "4", "--drive-ms", "300"],
    "campaign": ["campaign"],
}


def _result(out: str) -> list[str]:
    """The printed result: every line but the run and progress lines."""
    return [
        line
        for line in out.splitlines()
        if not line.startswith("[") and "workers=" not in line
    ]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_checkpointing_command_resumes(tmp_path, capsys, command):
    """Each command resumes a truncated ledger to the uninterrupted
    result, with and without an override."""
    ledger = tmp_path / "ledger.jsonl"
    assert main(["--seed", "5", "--checkpoint", str(ledger), *COMMANDS[command]]) == 0
    reference = _result(capsys.readouterr().out)
    chunks = ledger.read_text(encoding="utf-8").count('"kind": "chunk"')
    assert chunks >= 2
    text = _truncated(ledger, chunks - 1)
    metrics = tmp_path / "m.json"
    for override in ([], ["--workers", "2", "--metrics-json", str(metrics)]):
        ledger.write_text(text, encoding="utf-8")
        assert main(["resume", str(ledger), *override]) == 0
        out = capsys.readouterr().out
        assert f"resuming {command} campaign" in out
        assert _result(out) == reference
        (session,) = [
            json.loads(line)
            for line in ledger.read_text(encoding="utf-8").splitlines()
            if '"kind": "resume"' in line
        ]
        assert session["loaded"] > 0
    recorded = json.loads(metrics.read_text(encoding="utf-8"))
    assert recorded["workers"] == 2
    assert 0 < recorded["replicas_resumed"] < recorded["replicas"]
