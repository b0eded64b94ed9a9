"""``repro resume`` re-parses the argv recorded in the ledger header.

Resume rebuilds the run through the CLI's own parser: the recorded
argv, plus exactly the global flags typed before or after ``resume``,
whatever their values, with ``--checkpoint`` forced to the ledger.
Flags that would change the campaign — ``--seed``, and for ``mc`` the
obs flags that enter its spec digest — are refused by the ledger's
identity check with a message on stderr, never a traceback.  A store
part is a closed ledger and resumes in place, and a killed ``--store``
run resumes from its in-flight ledger.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.storage import CampaignStore
from repro.storage.ledger import read_ledger

MC = ["mc", "--replicas", "4", "--horizon-ms", "300"]


def _sessions(ledger) -> int:
    """The sessions a ledger records: the first, plus one per resume."""
    return 1 + sum(line["kind"] == "resume" for line in ledger.lines)


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
    assert part.path.parent.parent == store / "default"
    # The part is the ledger: its header records the run that wrote it.
    assert part.header["params"]["campaign_id"] == "nightly"


@pytest.mark.parametrize(
    "flags, mismatch",
    [
        (["--seed", "99"], "root_seed: ledger has 11, run has 99"),
        (["--trace", "{tmp}/t.jsonl"], "spec_digest"),
        (["--provenance"], "spec_digest"),
    ],
    ids=["seed", "trace", "provenance"],
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


def test_profile_leaves_the_campaign_identity_alone(tmp_path, capsys, mc_ledger):
    """``--profile`` profiles the CLI process, not the replicas: a
    profiled run records the spec digest of an unprofiled one, and
    ``--profile resume`` continues an unprofiled ledger."""
    text, reference = mc_ledger
    ledger = _ledger(tmp_path, text)
    assert main(["--profile", "resume", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert _digest_line(out) == reference
    assert out.count("Profile: calls and self time per module") == 1
    profiled = tmp_path / "profiled.jsonl"
    argv = ["--seed", "11", "--checkpoint", str(profiled), "--profile", *MC]
    assert main(argv) == 0
    capsys.readouterr()
    headers = [
        json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        for path in (profiled, ledger)
    ]
    assert headers[0]["spec_digest"] == headers[1]["spec_digest"]


def test_a_store_part_resumes_in_place(tmp_path, capsys):
    """A store part is a closed ledger: resuming it appends a resume and
    a close line to it, and it stays a part every reader accepts."""
    store, other = tmp_path / "st", tmp_path / "st2"
    argv = ["--seed", "5", "--store", str(store), "mc", "--replicas", "2"]
    assert main([*argv, "--horizon-ms", "100"]) == 0
    (part,) = store.rglob("part-*.jsonl")
    assert not list(store.rglob("run-*.jsonl"))  # the finished run's ledger
    report = _query_report(store)
    capsys.readouterr()
    assert main(["--store", str(other), "resume", str(part)]) == 0
    assert "[resumed: 2 replica(s) loaded" in capsys.readouterr().out
    text = part.read_text(encoding="utf-8")
    kinds = [json.loads(line)["kind"] for line in text.splitlines()]
    assert kinds[-2:] == ["resume", "close"]
    assert _query_report(store) == report
    # The typed --store gets a byte copy of the resumed part.
    (copy,) = other.rglob("part-*.jsonl")
    assert copy.read_bytes() == part.read_bytes()
    assert _sessions(read_ledger(part, tolerant=True, decode=True)) == 2


def _query_report(store: Path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["query", "report", "--store", str(store)]) == 0
    return out.getvalue()


def _killed(ledger: Path, chunks: int) -> str:
    """What a SIGKILL leaves: the header, ``chunks`` chunk lines and the
    first half of the next chunk line, with no close line."""
    lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
    chunk_lines = [line for line in lines if '"kind": "chunk"' in line]
    torn = chunk_lines[chunks]
    return lines[0] + "".join(chunk_lines[:chunks]) + torn[: len(torn) // 2]


def test_a_killed_store_run_resumes_from_its_in_flight_ledger(tmp_path, capsys):
    """``--store`` alone survives a kill: the in-flight ledger resumes,
    and the store then answers queries and replays exactly like the
    store of an uninterrupted run, with no in-flight file left."""
    mc = ["mc", "--replicas", "8", "--horizon-ms", "400"]
    reference, killed = tmp_path / "ref", tmp_path / "st"
    for store in (reference, killed):
        assert main(["--seed", "11", "--store", str(store), *mc]) == 0
    # Turn the second run's part back into the ledger a kill leaves.
    (part,) = killed.rglob("part-*.jsonl")
    inflight = killed / "default" / part.name.replace("part-", "run-")
    inflight.write_text(_killed(part, 1), encoding="utf-8")
    part.unlink()
    capsys.readouterr()
    # A killed run is not a part: the store holds nothing to query yet.
    assert main(["query", "scan", "--store", str(killed)]) == 0
    scan = json.loads(capsys.readouterr().out)
    assert (scan["parts"], scan["skipped"]) == (0, 0)

    assert main(["resume", str(inflight)]) == 0
    assert "[resumed: 2 replica(s) loaded" in capsys.readouterr().out
    assert not list(killed.rglob("run-*.jsonl"))
    assert _query_report(killed) == _query_report(reference)
    scans = []
    for store in (killed, reference):
        argv = ["whatif", str(store), "--scan", "faults", "--json"]
        assert main(argv) == 0
        scans.append(capsys.readouterr().out)
    assert scans[0] == scans[1]


def test_resume_after_a_torn_tail_keeps_every_line_readable(tmp_path, capsys):
    """The resume line never follows a torn one: the resume first
    rewrites the ledger without the lines it could not read."""
    ledger = tmp_path / "T.jsonl"
    argv = ["--seed", "6", "--checkpoint", str(ledger)]
    assert main([*argv, "mc", "--replicas", "8", "--horizon-ms", "100"]) == 0
    ledger.write_text(_killed(ledger, 2), encoding="utf-8")
    assert read_ledger(ledger, tolerant=True, decode=True).skipped == 1
    for sessions in (2, 3):
        assert main(["resume", str(ledger)]) == 0
        for line in ledger.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        state = read_ledger(ledger, tolerant=True, decode=True)
        assert (_sessions(state), state.skipped) == (sessions, 0)
        assert sorted(state.results) == list(range(8))
    capsys.readouterr()


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
