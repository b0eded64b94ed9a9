"""Hostile and malformed checkpoint ledgers.

A ledger is read back from disk, so it is input: whatever a line holds,
``read_ledger``, ``repro resume`` and ``repro whatif`` answer with a
:class:`~repro.errors.ConfigurationError` (or skip the line as a torn
tail), never a stack trace — and never by running code the file
carries.  Version 1 ledgers held base64 pickles; they are refused by
their header before any chunk is looked at.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import pickle
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.runtime.checkpoint import spec_digest
from repro.runtime.seeds import stream_fingerprint
from repro.storage.ledger import chunk_checksum, read_ledger
from tests._differential import run_campaign

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _Trap:
    """Unpickling this creates the marker file."""

    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (open, (str(self.marker), "w"))


def _v1_ledger(tmp_path: Path) -> tuple[Path, Path]:
    """A version-1 ledger whose only chunk unpickles to the trap."""
    marker = tmp_path / "pwned"
    raw = pickle.dumps([_Trap(marker)], protocol=4)
    header = {
        "kind": "header",
        "version": 1,
        "root_seed": 7,
        "replicas": 1,
        "chunk_size": 1,
        "workers": 1,
        "spec_digest": spec_digest(7, [None]),
        "command": "mc",
        "params": {"seed": 7, "replicas": 1, "expected_faults": 3.0, "horizon_ms": 300},
    }
    chunk = {
        "kind": "chunk",
        "chunk": 0,
        "indices": [0],
        "streams": {"0": stream_fingerprint(7, 0)},
        "payload": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    ledger = tmp_path / "v1.jsonl"
    ledger.write_text(
        json.dumps(header, sort_keys=True) + "\n" + json.dumps(chunk, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return ledger, marker


def test_v1_pickle_ledger_is_refused_unopened(tmp_path, capsys):
    ledger, marker = _v1_ledger(tmp_path)
    with pytest.raises(ConfigurationError, match="version 1"):
        read_ledger(ledger, tolerant=True, decode=True)
    assert main(["resume", str(ledger)]) == 1
    assert "version 1" in capsys.readouterr().err
    assert main(["whatif", str(ledger), "--scan", "onas"]) == 1
    assert "version 1" in capsys.readouterr().err
    assert not marker.exists()


def test_no_module_unpickles():
    """Nothing under src/repro loads pickles (spec digests only hash
    ``pickle.dumps`` bytes)."""
    loads = re.compile(r"pickle\s*\.\s*(loads?|Unpickler)\b|from\s+pickle\s+import")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if loads.search(line)
    ]
    assert offenders == []


# -- malformed lines ----------------------------------------------------------


@pytest.fixture(scope="module")
def ledger_lines(tmp_path_factory) -> list[str]:
    """A real two-chunk mc ledger (header, 2 chunks, close)."""
    path = tmp_path_factory.mktemp("ledger") / "mc.jsonl"
    run_campaign(replicas=2, chunk=1, checkpoint=path)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[1])
    assert first["indices"] == [0] and first["tables"]["plan_events"]["at_us"]
    return lines


def _write(tmp_path: Path, lines: list[str]) -> Path:
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_header_that_is_not_an_object(tmp_path, capsys, ledger_lines):
    path = _write(tmp_path, ["[1, 2]", *ledger_lines[1:]])
    with pytest.raises(ConfigurationError, match="header"):
        read_ledger(path, tolerant=True, decode=True)
    assert main(["resume", str(path)]) == 1
    assert "header" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_ledger_lines(tmp_path_factory) -> list[str]:
    """A ledger written by ``repro mc``: its header records the argv."""
    path = tmp_path_factory.mktemp("cli-ledger") / "mc.jsonl"
    argv = ["--seed", "11", "--checkpoint", str(path), "mc", "--replicas", "2", "--horizon-ms", "300"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["argv"] == argv
    return lines


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h, path: h.pop("argv"), "predates argv replay"),
        (lambda h, path: h.update(argv="mc --replicas 2"), "not a list of strings"),
        (lambda h, path: h.update(argv=["mc", "--replicas", 2]), "not a list of strings"),
        (lambda h, path: h["argv"].extend(["--workers", "x"]), "parser rejects"),
        (lambda h, path: h.update(argv=["resume", str(path)]), "its argv runs 'resume'"),
        (lambda h, path: h.update(argv=["fleet", "--vehicles", "2"]), "its argv runs 'fleet'"),
    ],
    ids=[
        "argv-missing",
        "argv-string",
        "argv-not-strings",
        "argv-bad-workers",
        "argv-resume",
        "argv-other-command",
    ],
)
def test_hostile_resume_header_ends_in_a_message(
    tmp_path, capsys, cli_ledger_lines, edit, message
):
    """``repro resume`` re-parses the header's argv: an argv that is
    missing (a ledger written before argv replay), not a list of
    strings, rejected by the parser, naming ``resume`` itself or another
    command than the header's ends with a message naming the ledger."""
    path = tmp_path / "ledger.jsonl"
    header = json.loads(cli_ledger_lines[0])
    edit(header, path)
    _write(tmp_path, [json.dumps(header, sort_keys=True), *cli_ledger_lines[1:]])
    assert main(["resume", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint ledger {path}" in err
    assert message in err


def test_later_line_that_is_not_an_object_is_skipped(tmp_path, ledger_lines):
    path = _write(tmp_path, [ledger_lines[0], '["chunk"]', '"x"', *ledger_lines[1:]])
    state = read_ledger(path, tolerant=True, decode=True)
    assert state.skipped == 2
    assert sorted(state.results) == [0, 1]


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(tables=[]),
        lambda r: r.update(tables={"replicas": []}),
        lambda r: r.update(value_kind="pickle"),
        lambda r: r["tables"]["plan_events"]["at_us"].__setitem__(0, "soon"),
        lambda r: r["tables"]["replica_trace"].update(replica=[0], record=["[1]"]),
        lambda r: r["tables"]["replica_histograms"]["buckets"].__setitem__(0, '{"x":1}'),
        lambda r: r["tables"]["replicas"]["counters_schema"].__setitem__(0, None),
        lambda r: r["tables"]["replicas"]["replica"].__setitem__(0, -1),
    ],
    ids=[
        "tables-list",
        "tables-partial",
        "unknown-kind",
        "bad-dtype",
        "trace-not-object",
        "bad-buckets",
        "counters-without-schema",
        "negative-index",
    ],
)
def test_untrusted_chunk_is_skipped_even_with_a_valid_checksum(
    tmp_path, ledger_lines, edit
):
    """A doctored chunk line is skipped (its replica re-executes), even
    when the doctor recomputed the checksum."""
    record = json.loads(ledger_lines[1])
    assert record["kind"] == "chunk"
    edit(record)
    if isinstance(record["tables"], dict):
        record["sha256"] = chunk_checksum(record["tables"])
    path = _write(
        tmp_path, [ledger_lines[0], json.dumps(record, sort_keys=True), *ledger_lines[2:]]
    )
    state = read_ledger(path, tolerant=True, decode=True)
    assert state.skipped == 1
    assert sorted(state.results) == [1]


@pytest.fixture(scope="module")
def cli_store_part(tmp_path_factory) -> tuple[Path, list[str]]:
    """A store written by ``repro mc``: its one part file and lines."""
    store = tmp_path_factory.mktemp("cli-store") / "store"
    argv = ["--seed", "11", "--store", str(store), "mc", "--replicas", "2", "--horizon-ms", "300"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    (part,) = store.rglob("part-*.jsonl")
    return part, part.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("artefact", ["ledger", "store"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(horizon_ms=0), "horizon_us must be >= 1"),
        (lambda p: p.update(expected_faults=-1.0), "expected_faults must be"),
        (lambda p: p.update(expected_faults=1e9), "expected_faults must be"),
    ],
    ids=["zero-horizon", "negative-faults", "faults-above-cap"],
)
def test_doctored_params_fail_whatif_with_a_message(
    tmp_path, capsys, cli_ledger_lines, cli_store_part, edit, message, artefact
):
    """Campaign sizes the CLI would refuse, doctored into the ``params``
    of a ledger or store part header, end ``whatif`` with a message
    naming the file instead of failing inside the fault sampler."""
    if artefact == "ledger":
        lines = cli_ledger_lines
        path = tmp_path / "ledger.jsonl"
        baseline = path
    else:
        part, lines = cli_store_part
        baseline = tmp_path / "store"
        path = baseline / part.relative_to(part.parents[2])
        path.parent.mkdir(parents=True)
    header = json.loads(lines[0])
    edit(header["params"])
    path.write_text(
        "\n".join([json.dumps(header, sort_keys=True), *lines[1:]]) + "\n",
        encoding="utf-8",
    )
    assert main(["whatif", str(baseline), "--scan", "faults"]) == 1
    captured = capsys.readouterr()
    assert f"{path} params do not describe an mc campaign" in captured.err
    assert message in captured.err
