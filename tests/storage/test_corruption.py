"""Corruption, version-skew and resume-equivalence tests for the store.

A damaged store must fail *diagnosably*: truncated or bit-flipped table
files and version-skewed manifests all surface as
:class:`~repro.errors.ConfigurationError` naming the offending file —
never a backend stack trace — and the tolerant scan mode reports how
many parts were dropped.  Storing a resumed run must produce the same
part an uninterrupted run writes, modulo the declared volatile columns
(wall-clock and worker labels).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome, CampaignReplicaSpec
from repro.runtime.runner import ReplicaResult, RunOptions, RunOutcome
from repro.runtime.workloads import run_random_campaigns
from repro.storage import CampaignStore, write_run
from repro.storage.schema import TABLES, VOLATILE_COLUMNS, tables_for_kind
from repro.units import ms

SPEC_DIGEST = "cd" * 32


def _synthetic_part(
    root: Path, *, campaign="c1", seed=7, obs_counters=None
) -> Path:
    """One small campaign part written without touching the simulator."""
    outcome = CampaignReplicaOutcome(
        index=0,
        plan_events=(("seu", "comp1", 100), ("connector", "comp2", 900)),
        injected_by_mechanism=(("connector", 1), ("seu", 1)),
        attributed_by_mechanism=(("seu", 1),),
        faults_injected=2,
        faults_attributed=1,
        verdicts_emitted=3,
        events_simulated=50,
        alpha_state=(("comp1", 2.0),),
        trust_state=(("comp1", 0.5),),
        obs_counters=obs_counters,
    )
    run = RunOutcome(
        value=SimpleNamespace(plan_digest="e" * 64, obs_counters=None),
        results=(
            ReplicaResult(
                index=0, value=outcome, events=50, elapsed_s=0.1, worker="serial"
            ),
        ),
        metrics=None,
        failures=(),
    )
    return write_run(
        root,
        run,
        root_seed=seed,
        spec_digest=SPEC_DIGEST,
        campaign_id=campaign,
        store_format="json",
    )


# -- table-file corruption --------------------------------------------------


def test_truncated_table_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    table_path = part_dir / "replicas.json"
    table_path.write_bytes(table_path.read_bytes()[: 10])
    part = CampaignStore(tmp_path).parts()[0]
    with pytest.raises(ConfigurationError, match="checksum mismatch"):
        part.table("replicas")


def test_bit_flip_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    table_path = part_dir / "mechanisms.json"
    blob = bytearray(table_path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    table_path.write_bytes(bytes(blob))
    part = CampaignStore(tmp_path).parts()[0]
    with pytest.raises(ConfigurationError, match=r"checksum mismatch"):
        part.table("mechanisms")


def test_missing_table_file_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    (part_dir / "alpha_state.json").unlink()
    part = CampaignStore(tmp_path).parts()[0]
    with pytest.raises(ConfigurationError, match="missing"):
        part.table("alpha_state")


def test_unparseable_table_with_matching_checksum(tmp_path):
    """Even a checksum-valid file must fail cleanly if it won't parse."""
    from repro.storage.backend import file_sha256

    part_dir = _synthetic_part(tmp_path)
    table_path = part_dir / "replica_counters.json"
    table_path.write_text("this is not json{", encoding="utf-8")
    manifest_path = part_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["files"]["replica_counters"]["sha256"] = file_sha256(table_path)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    part = CampaignStore(tmp_path).parts()[0]
    with pytest.raises(ConfigurationError):
        part.table("replica_counters")


# -- manifest corruption and version skew ----------------------------------


def _edit_manifest(part_dir: Path, **changes) -> None:
    manifest_path = part_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.update(changes)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_bumped_schema_version_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    _edit_manifest(part_dir, schema_version=99)
    with pytest.raises(ConfigurationError, match="schema version 99"):
        CampaignStore(tmp_path).parts()


def test_unknown_kind_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    _edit_manifest(part_dir, kind="exotic")
    with pytest.raises(ConfigurationError, match="unknown kind"):
        CampaignStore(tmp_path).parts()


def test_unreadable_manifest_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    (part_dir / "manifest.json").write_text("{{{", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unreadable manifest"):
        CampaignStore(tmp_path).parts()


def test_manifest_missing_table_entry_is_a_config_error(tmp_path):
    part_dir = _synthetic_part(tmp_path)
    manifest_path = part_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["files"]["plan_events"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="plan_events"):
        CampaignStore(tmp_path).parts()


def test_missing_store_root_is_a_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        CampaignStore(tmp_path / "nope")


def test_tolerant_scan_skips_and_reports(tmp_path):
    """One healthy part + one version-skewed part: scan drops one."""
    _synthetic_part(tmp_path, campaign="ok")
    bad_dir = _synthetic_part(tmp_path, campaign="bad", seed=8)
    _edit_manifest(bad_dir, schema_version=99)
    store = CampaignStore(tmp_path)
    with pytest.raises(ConfigurationError):
        store.parts()
    parts = store.parts(tolerant=True)
    assert [p.campaign_id for p in parts] == ["ok"]
    report = store.scan_report()
    assert report["parts"] == 1
    assert report["skipped"] == 1
    assert "schema version" in report["skipped_parts"][0]["error"]


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
    stored = dict(campaign_id="c1", store_format="json")
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


def test_rewriting_a_part_is_idempotent(tmp_path):
    """Storing the same run twice leaves exactly one identical part."""
    first = _synthetic_part(tmp_path)
    second = _synthetic_part(tmp_path)
    assert first == second
    store = CampaignStore(tmp_path)
    assert len(store.part_dirs()) == 1
    part = store.parts()[0]
    for name in tables_for_kind(part.kind):
        assert sorted(part.table(name)) == sorted(TABLES[name])


# -- hostile input: a checksum is not a MAC ----------------------------------


def _doctor_manifest(part_dir: Path, edit) -> None:
    manifest_path = part_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest_path.write_text(json.dumps(edit(manifest)), encoding="utf-8")


def _replace_entry(manifest: dict, **entry) -> dict:
    return {**manifest, "files": {**manifest["files"], "replicas": entry}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: [m], "not a JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "format"}, "'format'"),
        (
            lambda m: _replace_entry(m, path="replicas.json", rows=1),
            "'replicas' entry",
        ),
        (
            lambda m: {**m, "files": {**m["files"], "replicas": "replicas.json"}},
            "'replicas' entry",
        ),
        (
            lambda m: _replace_entry(m, path="replicas.json", sha256="0", rows="1"),
            "'replicas' entry",
        ),
    ],
    ids=["array", "no-format", "no-sha256", "entry-not-object", "rows-not-int"],
)
def test_malformed_manifest_is_a_config_error(tmp_path, edit, message):
    part_dir = _synthetic_part(tmp_path)
    _doctor_manifest(part_dir, edit)
    store = CampaignStore(tmp_path)
    with pytest.raises(ConfigurationError, match=message):
        store.parts()[0].table("replicas")
    report = store.scan_report()  # the tolerant scan drops the part
    assert (report["parts"], report["skipped"]) == (0, 1)
    assert "manifest" in report["skipped_parts"][0]["error"]


def test_table_path_outside_the_part_is_refused(tmp_path):
    """A manifest cannot point a table at a file outside its part, even
    with that file's valid checksum."""
    root = tmp_path / "store"
    part_dir = _synthetic_part(root)
    outside = tmp_path / "elsewhere.json"
    outside.write_bytes((part_dir / "replicas.json").read_bytes())
    for path in (str(outside), "../../../../elsewhere.json"):
        _doctor_manifest(
            part_dir,
            lambda m: _replace_entry(m, **{**m["files"]["replicas"], "path": path}),
        )
        with pytest.raises(ConfigurationError, match="'replicas' entry"):
            CampaignStore(root).parts()


def _rechecksummed_value(part_dir: Path, table: str, column: str, value) -> None:
    """Overwrite one stored value and re-stamp the table's checksum."""
    from repro.storage.backend import file_sha256

    table_path = part_dir / f"{table}.json"
    payload = json.loads(table_path.read_text(encoding="utf-8"))
    assert payload["columns"][column], f"{table}.{column} is empty"
    payload["columns"][column][0] = value
    table_path.write_text(json.dumps(payload), encoding="utf-8")
    _doctor_manifest(
        part_dir,
        lambda m: {
            **m,
            "files": {
                **m["files"],
                table: {**m["files"][table], "sha256": file_sha256(table_path)},
            },
        },
    )


@pytest.mark.parametrize(
    "table, column, value",
    [
        ("plan_events", "at_us", "soon"),
        ("replicas", "faults_injected", True),
        ("alpha_state", "value", 2),
        ("mechanisms", "mechanism", None),
    ],
)
def test_value_of_the_wrong_dtype_is_a_config_error(tmp_path, table, column, value):
    part_dir = _synthetic_part(tmp_path)
    _rechecksummed_value(part_dir, table, column, value)
    part = CampaignStore(tmp_path).parts()[0]
    with pytest.raises(
        ConfigurationError, match=rf"{table}\.json: table '{table}' column '{column}'"
    ):
        part.table(table)


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
            store_format="json",
            invocation={
                "command": "mc",
                "params": {"replicas": 2, "expected_faults": 3.0, "horizon_ms": 250},
            },
        ),
    )
    (part_dir,) = CampaignStore(root).part_dirs()
    return part_dir


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
            lambda d: _doctor_manifest(d, lambda m: {**m, "replicas": 10**12}),
            "covers 2/1000000000000 replicas",
        ),
    ],
    ids=["bad-dtype", "negative-index", "huge-replica-count"],
)
def test_whatif_over_a_doctored_store_fails_cleanly(
    tmp_path, capsys, doctor, message
):
    from repro.__main__ import main

    doctor(_mc_part(tmp_path))
    assert main(["whatif", str(tmp_path), "--scan", "onas"]) == 1
    err = capsys.readouterr().err
    assert "whatif failed" in err and message in err


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
    part_dir = _synthetic_part(tmp_path, obs_counters=snapshot)
    assert main(["query", "latency", "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    _rechecksummed_value(part_dir, "replica_histograms", column, value)
    assert main(["query", "latency", "--store", str(tmp_path)]) == rc
    captured = capsys.readouterr()
    assert output in (captured.err if rc else captured.out)
