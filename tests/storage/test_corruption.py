"""Corruption, version-skew and resume-equivalence tests for the store.

A damaged store must fail *diagnosably*: a truncated, bit-flipped,
version-skewed or malformed part file, a part that breaks the rules of a
closed ledger, a part written before close lines carried ``failures``
and a part directory of the old layout all surface as
:class:`~repro.errors.ConfigurationError` naming the offending file —
never a stack trace — and the tolerant scan mode reports how many parts
were dropped.  Storing a resumed run must produce the same part an
uninterrupted run writes, modulo the declared volatile columns
(wall-clock and worker labels).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome, CampaignReplicaSpec
from repro.runtime.runner import ReplicaResult, RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.storage import CampaignStore, write_run
from repro.storage.schema import TABLES, VOLATILE_COLUMNS, tables_for_kind
from repro.units import ms
from tests.storage._parts import write_ledger, write_part


def _result(index: int = 0, obs_counters=None) -> ReplicaResult:
    """One small campaign replica, built without touching the simulator."""
    outcome = CampaignReplicaOutcome(
        index=index,
        plan_events=(("seu", "comp1", 100), ("connector", "comp2", 900)),
        attributed=(True, False),
        verdicts_emitted=3,
        events_simulated=50,
        alpha_state=(("comp1", 2.0),),
        trust_state=(("comp1", 0.5),),
        obs_counters=obs_counters,
    )
    return ReplicaResult(
        index=index, value=outcome, events=50, elapsed_s=0.1, worker="serial"
    )


def _synthetic_part(
    root: Path, *, campaign="c1", seed=7, obs_counters=None, replicas=1
) -> Path:
    """A small campaign part: one chunk line of ``replicas`` replicas."""
    return write_part(
        root,
        [_result(i, obs_counters) for i in range(replicas)],
        root_seed=seed,
        campaign_id=campaign,
        plan_digest="e" * 64,
    )


# -- hostile part files -------------------------------------------------------


def _lines(part: Path) -> list[dict]:
    return [json.loads(line) for line in part.read_text(encoding="utf-8").splitlines()]


def _write_lines(part: Path, lines: list) -> None:
    text = "".join(
        (line if isinstance(line, str) else json.dumps(line, sort_keys=True)) + "\n"
        for line in lines
    )
    part.write_text(text, encoding="utf-8")


def _edit_line(part: Path, index: int, **changes) -> None:
    lines = _lines(part)
    lines[index].update(changes)
    _write_lines(part, lines)


def _strict_error(root: Path, part: Path) -> str:
    """The strict read's message, which must name the part file."""
    with pytest.raises(ConfigurationError) as exc:
        CampaignStore(root).parts()
    assert str(part) in str(exc.value)
    return str(exc.value)


def test_truncated_table_is_a_config_error(tmp_path):
    """A part cut inside its chunk line, which holds the tables."""
    part = _synthetic_part(tmp_path)
    blob = part.read_bytes()
    part.write_bytes(blob[: blob.index(b'"tables"') + 40])
    assert "line 2 is not valid JSON" in _strict_error(tmp_path, part)


def test_bit_flip_is_a_config_error(tmp_path):
    part = _synthetic_part(tmp_path)
    blob = bytearray(part.read_bytes())
    blob[blob.index(b'"connector"') + 3] ^= 0x40
    part.write_bytes(bytes(blob))
    assert "checksum mismatch" in _strict_error(tmp_path, part)


def test_unparseable_table_with_matching_checksum(tmp_path):
    """Even a checksum-valid chunk must fail cleanly if a table in it is
    not a table."""
    from repro.storage.ledger import chunk_checksum

    part = _synthetic_part(tmp_path)
    lines = _lines(part)
    tables = lines[1]["tables"]
    tables["replica_counters"] = "this is not json{"
    lines[1]["sha256"] = chunk_checksum(tables)
    _write_lines(part, lines)
    assert "'replica_counters' does not have the declared columns" in (
        _strict_error(tmp_path, part)
    )


# -- header and close lines, and version skew -------------------------------
#
# A part's header and close lines hold what the manifest file of the old
# directory layout held: version, kind, provenance, counts, failures.


def test_bumped_schema_version_is_a_config_error(tmp_path):
    part = _synthetic_part(tmp_path)
    _edit_line(part, 0, version=99)
    assert "format version 99" in _strict_error(tmp_path, part)


def test_unknown_kind_is_a_config_error(tmp_path):
    part = _synthetic_part(tmp_path)
    _edit_line(part, 1, value_kind="exotic")
    assert "no tables of a declared kind" in _strict_error(tmp_path, part)


def test_unreadable_manifest_is_a_config_error(tmp_path):
    part = _synthetic_part(tmp_path)
    _write_lines(part, ["{{{", *_lines(part)[1:]])
    assert "line 1 is not valid JSON" in _strict_error(tmp_path, part)


def test_manifest_missing_table_entry_is_a_config_error(tmp_path):
    """The chunk line's table inventory is checked against its kind."""
    from repro.storage.ledger import chunk_checksum

    part = _synthetic_part(tmp_path)
    lines = _lines(part)
    del lines[1]["tables"]["plan_events"]
    lines[1]["sha256"] = chunk_checksum(lines[1]["tables"])
    _write_lines(part, lines)
    assert "not the tables of kind 'campaign'" in _strict_error(tmp_path, part)


def _replace_table(lines: list, name: str, value) -> list:
    """``lines`` with one table of the chunk replaced, checksum re-stamped."""
    from repro.storage.ledger import chunk_checksum

    tables = {**lines[1]["tables"], name: value}
    chunk = {**lines[1], "tables": tables, "sha256": chunk_checksum(tables)}
    return [lines[0], chunk, *lines[2:]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: ["[1, 2]", *lines[1:]], "line 1 is not a JSON object"),
        (
            lambda lines: [{k: v for k, v in lines[0].items() if k != "version"}, *lines[1:]],
            "format version None",
        ),
        (
            lambda lines: [lines[0], {k: v for k, v in lines[1].items() if k != "sha256"}, lines[2]],
            "checksum mismatch",
        ),
        (
            lambda lines: _replace_table(lines, "replicas", "replicas.json"),
            "'replicas' does not have the declared columns",
        ),
        (lambda lines: [*lines[:2], {**lines[2], "completed": "1"}], "close field 'completed'"),
        (lambda lines: [*lines[:2], {**lines[2], "complete": 1}], "close field 'complete'"),
        (lambda lines: [{**lines[0], "root_seed": "7"}, *lines[1:]], "'root_seed'"),
        (
            lambda lines: [*lines[:2], {k: v for k, v in lines[2].items() if k != "failures"}],
            "close field 'failures' is None",
        ),
        (lambda lines: [{**lines[0], "kind": "chunk"}, *lines[1:]], "header line"),
        (
            lambda lines: [*lines[:2], {**lines[2], "failures": {"replica": [0]}}],
            "close: table 'failures' does not have the declared columns",
        ),
        (lambda lines: [*lines[:2], {**lines[2], "plan_digest": 5}], "close field 'plan_digest'"),
    ],
    ids=[
        "array",
        "no-format",
        "no-sha256",
        "entry-not-object",
        "rows-not-int",
        "complete-not-bool",
        "root-seed-not-int",
        "no-failures",
        "header-kind",
        "failures-not-a-table",
        "plan-digest-not-str",
    ],
)
def test_malformed_manifest_is_a_config_error(tmp_path, edit, message):
    part = _synthetic_part(tmp_path)
    _write_lines(part, edit(_lines(part)))
    assert message in _strict_error(tmp_path, part)
    report = CampaignStore(tmp_path).scan_report()  # the tolerant scan drops it
    assert (report["parts"], report["skipped"]) == (0, 1)
    assert report["skipped_parts"][0]["path"] == str(part)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:1] + lines[2:], "holds 0 replica rows"),
        (lambda lines: lines[:2], "does not end with a close line"),
        (lambda lines: [lines[0], lines[1], lines[1], lines[2]], "replica 0 is stored twice"),
        (lambda lines: [lines[0], lines[2], lines[1]], "does not end with a close line"),
        (lambda lines: [*lines, {"kind": "resume"}], "does not end with a close line"),
        (lambda lines: [], "is empty"),
    ],
    ids=[
        "no-chunk-line",
        "no-close-line",
        "second-chunk-line",
        "close-before-chunk",
        "extra-line",
        "empty",
    ],
)
def test_part_is_exactly_header_chunk_and_close(tmp_path, edit, message):
    """A part is a closed ledger: its header, then chunk and resume
    lines, ending in a close line whose count its chunks hold."""
    part = _synthetic_part(tmp_path)
    _write_lines(part, edit(_lines(part)))
    assert message in _strict_error(tmp_path, part)
    report = CampaignStore(tmp_path).scan_report()
    assert (report["parts"], report["skipped"]) == (0, 1)


# -- a part is a closed ledger ---------------------------------------------


def _chunked_part(root: Path, replicas: int = 4, chunk_size: int = 2) -> Path:
    return write_part(
        root,
        [_result(i) for i in range(replicas)],
        root_seed=7,
        campaign_id="c1",
        plan_digest="e" * 64,
        chunk_size=chunk_size,
    )


def test_a_damaged_later_chunk_is_refused(tmp_path):
    part = _chunked_part(tmp_path)
    lines = part.read_bytes().splitlines(keepends=True)
    chunk = bytearray(lines[2])
    chunk[chunk.index(b'"connector"') + 3] ^= 0x40
    part.write_bytes(b"".join([*lines[:2], bytes(chunk), *lines[3:]]))
    assert f"{part}:3: checksum mismatch" in _strict_error(tmp_path, part)


def test_a_replica_held_by_two_chunks_is_refused(tmp_path):
    """The second chunk relabelled as replica 0, checksum re-stamped."""
    from repro.storage.ledger import chunk_checksum

    part = _chunked_part(tmp_path, replicas=2, chunk_size=1)
    lines = _lines(part)
    tables = lines[2]["tables"]
    for columns in tables.values():
        columns["replica"] = [0] * len(columns["replica"])
    lines[2]["sha256"] = chunk_checksum(tables)
    _write_lines(part, lines)
    assert "replica 0 is stored twice" in _strict_error(tmp_path, part)


def test_a_close_count_that_does_not_match_is_refused(tmp_path):
    part = _chunked_part(tmp_path)
    _edit_line(part, 3, completed=5)
    message = _strict_error(tmp_path, part)
    assert "holds 4 replica rows, but its close line counts 5 completed" in message


def test_chunks_of_two_kinds_are_refused(tmp_path):
    from repro.storage.codec import encode
    from repro.storage.ledger import chunk_line

    part = _synthetic_part(tmp_path)
    lines = _lines(part)
    kind, tables = encode((), 7)
    lines.insert(2, chunk_line(kind, tables, chunk=1, indices=[]))
    _write_lines(part, lines)
    message = _strict_error(tmp_path, part)
    assert "mixes chunks of kinds ['campaign', 'generic']" in message


def test_a_part_written_before_close_lines_carried_failures(tmp_path):
    """The earlier part shape — ``campaign_id`` on the header and a close
    line without ``failures`` — fails on that missing field."""
    part = _synthetic_part(tmp_path)
    header, chunk, close = _lines(part)
    kept = ("kind", "plan_digest", "completed", "failed", "complete")
    old = [{**header, "campaign_id": "c1"}, chunk, {k: close[k] for k in kept}]
    _write_lines(part, old)
    assert "close field 'failures' is None" in _strict_error(tmp_path, part)


def test_chunks_read_in_replica_order(tmp_path):
    """Chunks that completed out of order read as if they had not, and
    the campaign id is the part's directory."""
    results = [_result(i) for i in range(4)]
    for name, order in (("a", results), ("b", [*results[2:], *results[:2]])):
        write_part(
            tmp_path / name, order, root_seed=7, campaign_id="c1", chunk_size=2
        )
    (a,), (b,) = (CampaignStore(tmp_path / name).parts() for name in "ab")
    assert a.tables == b.tables
    assert a.table("replicas")["replica"] == [0, 1, 2, 3]
    assert (a.campaign_id, "campaign_id" in a.header) == ("c1", False)


def test_old_layout_part_directory_is_refused(tmp_path, capsys):
    """A part directory of the manifest-and-table-files layout is never
    skipped silently: strict reads refuse it, the tolerant scan counts it."""
    from repro.__main__ import main

    _synthetic_part(tmp_path, campaign="new")
    old = tmp_path / "old" / ("e" * 16) / ("part-" + "cd" * 8)
    old.mkdir(parents=True)
    (old / "manifest.json").write_text('{"schema_version": 2}', encoding="utf-8")
    (old / "replicas.json").write_text("{}", encoding="utf-8")
    assert "old layout" in _strict_error(tmp_path, old)
    report = CampaignStore(tmp_path).scan_report()
    assert (report["parts"], report["skipped"]) == (1, 1)
    assert main(["query", "report", "--store", str(tmp_path)]) == 1
    assert "re-store the campaign" in capsys.readouterr().err


def test_missing_store_root_is_a_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        CampaignStore(tmp_path / "nope")


def test_tolerant_scan_skips_and_reports(tmp_path):
    """One healthy part + one version-skewed part: scan drops one."""
    _synthetic_part(tmp_path, campaign="ok")
    bad = _synthetic_part(tmp_path, campaign="bad", seed=8)
    _edit_line(bad, 0, version=99)
    store = CampaignStore(tmp_path)
    with pytest.raises(ConfigurationError):
        store.parts()
    parts = store.parts(tolerant=True)
    assert [p.campaign_id for p in parts] == ["ok"]
    report = store.scan_report()
    assert report["parts"] == 1
    assert report["skipped"] == 1
    assert "format version" in report["skipped_parts"][0]["error"]


# -- resume-then-store ≡ uninterrupted-store -------------------------------


def _comparable_tables(part) -> dict:
    """All stored columns minus the declared volatile ones."""
    out = {}
    for name in tables_for_kind(part.kind):
        columns = dict(part.table(name))
        for volatile in VOLATILE_COLUMNS.get(name, ()):
            columns.pop(volatile, None)
        out[name] = columns
    return out


def test_resume_then_store_equals_uninterrupted_store(tmp_path):
    """A resumed run stores the identical part (modulo wall/worker)."""
    spec = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(250))
    stored = dict(campaign_id="c1")
    plain_root = tmp_path / "plain"
    resumed_root = tmp_path / "resumed"
    ledger = str(tmp_path / "ledger.jsonl")

    def run(**options):
        return run_random_campaigns(
            4, root_seed=21, spec=spec, options=RunOptions(chunk_size=2, **options)
        )

    plain = run(store=str(plain_root), **stored)
    run(checkpoint=ledger)
    resumed = run(
        checkpoint=ledger, resume=True, store=str(resumed_root), **stored
    )
    assert resumed.value == plain.value
    assert resumed.metrics.replicas_resumed == 4

    plain_part = CampaignStore(plain_root).parts()[0]
    resumed_part = CampaignStore(resumed_root).parts()[0]
    # Same run identity -> same partition and part directory names.
    assert plain_part.path.relative_to(plain_root) == resumed_part.path.relative_to(
        resumed_root
    )
    assert _comparable_tables(resumed_part) == _comparable_tables(plain_part)
    # Lines differ only in their wall-clock stamps; the resumed part is
    # the ledger, so it also holds the sessions of its first run.
    assert _without_wall(resumed_part.header) == _without_wall(plain_part.header)
    assert _without_wall(resumed_part.close) == _without_wall(plain_part.close)


def _without_wall(line: dict) -> dict:
    return {k: v for k, v in line.items() if k != "wall"}


def test_rewriting_a_part_is_idempotent(tmp_path):
    """Publishing the same closed ledger twice leaves exactly one part,
    a byte copy of the ledger."""
    ledger = write_ledger(
        tmp_path / "ledger.jsonl", [_result()], root_seed=7, plan_digest="e" * 64
    )
    store = tmp_path / "store"

    def publish():
        return write_run(
            store,
            ledger.path,
            spec_digest=ledger.spec_digest,
            plan_digest="e" * 64,
            campaign_id="c1",
        )

    first = publish()
    assert first.read_bytes() == ledger.path.read_bytes()
    second = publish()
    assert first == second
    assert second.read_bytes() == ledger.path.read_bytes()
    assert list(first.parent.iterdir()) == [first]  # no temporary file left
    parts = CampaignStore(store)
    assert len(parts.part_paths()) == 1
    part = parts.parts()[0]
    for name in tables_for_kind(part.kind):
        assert sorted(part.table(name)) == sorted(TABLES[name])


# -- hostile input: a checksum is not a MAC ----------------------------------


def _rechecksummed_value(part: Path, table: str, column: str, value) -> None:
    """Overwrite one stored value and re-stamp the chunk's checksum."""
    from repro.storage.ledger import chunk_checksum

    lines = _lines(part)
    tables = lines[1]["tables"]
    assert tables[table][column], f"{table}.{column} is empty"
    tables[table][column][0] = value
    lines[1]["sha256"] = chunk_checksum(tables)
    _write_lines(part, lines)


@pytest.mark.parametrize(
    "table, column, value",
    [
        ("plan_events", "at_us", "soon"),
        pytest.param("replicas", "verdicts_emitted", True, id="int-holds-a-bool"),
        ("alpha_state", "value", 2),
        pytest.param("plan_events", "attributed", 1, id="bool-holds-an-int"),
    ],
)
def test_value_of_the_wrong_dtype_is_a_config_error(tmp_path, table, column, value):
    part = _synthetic_part(tmp_path)
    _rechecksummed_value(part, table, column, value)
    message = _strict_error(tmp_path, part)
    assert f"{part}:2: table '{table}' column '{column}'" in message


def _mc_part(root: Path) -> Path:
    """A small stored mc campaign that `repro whatif` accepts."""
    spec = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(250))
    run_random_campaigns(
        2,
        root_seed=21,
        spec=spec,
        options=RunOptions(
            store=str(root),
            campaign_id="c1",
            invocation={
                "command": "mc",
                "params": {"replicas": 2, "expected_faults": 3.0, "horizon_ms": 250},
            },
        ),
    )
    (part,) = CampaignStore(root).part_paths()
    return part


def test_a_version_2_ledger_or_part_is_refused(tmp_path, capsys):
    """Version 2 kept per-mechanism counts, not which fault was
    attributed: ``resume``, ``whatif`` and strict ``query`` refuse its
    files, and ``query scan`` counts such a part as skipped."""
    from repro.__main__ import main

    store = tmp_path / "st"
    part = _mc_part(store)
    ledger = tmp_path / "led.jsonl"
    shutil.copyfile(part, ledger)
    for path in (part, ledger):
        _edit_line(path, 0, version=2)
    for argv in (
        ["resume", str(ledger)],
        ["resume", str(part)],
        ["whatif", str(ledger), "--scan", "faults"],
        ["whatif", str(part), "--scan", "faults"],
        ["whatif", str(store), "--scan", "faults"],
        ["query", "report", "--store", str(store)],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "format version 2" in err and "re-run the campaign" in err
    assert main(["query", "scan", "--store", str(store)]) == 0
    scan = json.loads(capsys.readouterr().out)
    assert (scan["parts"], scan["skipped"]) == (0, 1)
    assert "format version 2" in scan["skipped_parts"][0]["error"]


@pytest.mark.parametrize(
    "doctor, message",
    [
        (
            lambda d: _rechecksummed_value(d, "plan_events", "at_us", "soon"),
            "'at_us'",
        ),
        (
            lambda d: _rechecksummed_value(d, "replicas", "replica", -1),
            "undecodable",
        ),
        (
            lambda d: _edit_line(d, 0, replicas=10**12),
            "covers 2/1000000000000 replicas",
        ),
    ],
    ids=["bad-dtype", "negative-index", "huge-replica-count"],
)
def test_whatif_over_a_doctored_store_fails_cleanly(
    tmp_path, capsys, doctor, message
):
    from repro.__main__ import main

    part = _mc_part(tmp_path)
    doctor(part)
    assert main(["whatif", str(tmp_path), "--scan", "onas"]) == 1
    err = capsys.readouterr().err
    assert "whatif failed" in err and message in err
    assert str(part) in err


@pytest.mark.parametrize(
    "column, value, rc, output",
    [
        ("buckets", '{"x":1}', 1, "buckets"),
        ("key", "provenance.stage_latency_us{junk}", 0, '"cls": "?"'),
    ],
    ids=["bad-bucket-key", "label-without-value"],
)
def test_query_over_doctored_histograms(tmp_path, capsys, column, value, rc, output):
    """Bucket JSON is decoded and checked too, so a doctored bucket key
    is a query error, not a ValueError deep in the histogram merge; a
    label without a value reads as unknown."""
    from repro.__main__ import main

    snapshot = {
        "schema": 1,
        "counters": {"sim.events": 50},
        "histograms": {
            "provenance.stage_latency_us{cls=a,stage=x->y}": {
                "count": 1,
                "sum": 3.0,
                "min": 3.0,
                "max": 3.0,
                "buckets": {"2": 1},
            }
        },
    }
    part = _synthetic_part(tmp_path, obs_counters=snapshot)
    assert main(["query", "latency", "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    _rechecksummed_value(part, "replica_histograms", column, value)
    assert main(["query", "latency", "--store", str(tmp_path)]) == rc
    captured = capsys.readouterr()
    assert output in (captured.err if rc else captured.out)
