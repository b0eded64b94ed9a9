"""``repro query`` CLI tests, including the sim-free import guarantee.

The acceptance property of the query path is that it answers from the
stored columns alone: a subprocess runs the real ``python -m repro
query`` entry point against a populated store and then asserts that none
of the simulator modules ever entered ``sys.modules``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.faults.campaign import CampaignReplicaOutcome
from repro.runtime.runner import ReplicaResult
from tests._sim_free import assert_sim_free
from tests.storage._parts import write_part


def _populate(root: Path, campaigns=("c001", "c002")) -> None:
    for i, campaign in enumerate(campaigns):
        outcome = CampaignReplicaOutcome(
            index=0,
            plan_events=(("seu", "comp1", 100),),
            attributed=(i % 2 == 0,),
            verdicts_emitted=2,
            events_simulated=40,
            alpha_state=(("comp1", 1.5),),
            trust_state=(("comp1", 0.75),),
        )
        result = ReplicaResult(
            index=0, value=outcome, events=40, elapsed_s=0.1, worker="serial"
        )
        write_part(
            root,
            [result],
            root_seed=3 + i,
            campaign_id=campaign,
            plan_digest=f"{i:x}" * 64,
        )


def test_query_subprocess_never_imports_the_simulator(tmp_path):
    """End-to-end ``python -m repro query report`` on a bare interpreter."""
    _populate(tmp_path)
    out = assert_sim_free(["query", "report", "--store", str(tmp_path)])
    assert "stored campaigns" in out


def test_query_report_prints_sections(tmp_path, capsys):
    _populate(tmp_path)
    assert main(["query", "report", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stored campaigns" in out
    assert "attribution by mechanism" in out
    assert "accuracy drift across campaigns" in out


@pytest.mark.parametrize(
    ("what", "probe"),
    [
        ("campaigns", "faults_injected"),
        ("nff", "nff_ratio"),
        ("confusion", "mechanism"),
        ("drift", "drift"),
        ("latency", None),
        ("scan", "skipped"),
    ],
)
def test_query_json_views_are_parseable(tmp_path, capsys, what, probe):
    _populate(tmp_path)
    assert main(["query", what, "--store", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    if probe is not None:
        assert probe in json.dumps(payload)


def test_query_campaign_filter(tmp_path, capsys):
    _populate(tmp_path)
    assert main(
        ["query", "nff", "--store", str(tmp_path), "--campaign", "c002"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "faults_injected": 1,
        "faults_attributed": 0,
        "nff_ratio": 1.0,
    }


def test_query_without_store_is_usage_error(capsys):
    assert main(["query", "report"]) == 2
    assert "--store" in capsys.readouterr().err


def test_query_missing_store_dir_fails_cleanly(tmp_path, capsys):
    assert main(["query", "report", "--store", str(tmp_path / "nope")]) == 1
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_query_empty_store_fails_cleanly(tmp_path, capsys):
    """An aggregate over no campaign parts is refused: its zeros would
    read as a perfect campaign."""
    aggregates = ("report", "campaigns", "nff", "confusion", "latency")
    for what in (*aggregates, "drift"):
        assert main(["query", what, "--store", str(tmp_path)]) == 1, what
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "store holds no campaign parts" in captured.err, what
    _populate(tmp_path / "s")
    for what in aggregates:
        store = ["--store", str(tmp_path / "s"), "--campaign", "nope"]
        assert main(["query", what, *store]) == 1, what
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no campaign parts for campaign 'nope'" in captured.err, what


def test_store_bad_campaign_id_fails_fast(tmp_path, capsys):
    """An unusable store target is rejected before any simulation."""
    rc = main(
        [
            "--store",
            str(tmp_path / "s"),
            "--campaign-id",
            "../evil",
            "mc",
            "--replicas",
            "1",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "store setup failed" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "target, checkpoint, message",
    [
        ("a-file", None, "store setup failed"),
        ("same", "same", "--checkpoint and --store both name"),
    ],
    ids=["store-is-a-file", "store-is-the-checkpoint"],
)
def test_store_path_that_cannot_hold_a_store_fails_fast(
    tmp_path, capsys, target, checkpoint, message
):
    """A --store path that is a file, or the checkpoint ledger's path,
    is refused before any replica runs, not after the whole run."""
    (tmp_path / "a-file").write_text("not a store\n", encoding="utf-8")
    argv = ["--store", str(tmp_path / target)]
    if checkpoint is not None:
        argv += ["--checkpoint", str(tmp_path / checkpoint)]
    rc = main([*argv, "mc", "--replicas", "2", "--horizon-ms", "100"])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "running" not in captured.out
    assert not (tmp_path / "same").exists()


def test_store_format_parquet_is_a_usage_error(tmp_path, capsys):
    """Parquet output is gone: asking for it exits 2 before anything
    runs."""
    store = tmp_path / "s"
    argv = ["--store", str(store), "--store-format", "parquet", "mc"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--replicas", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--store-format" in captured.err and "'parquet'" in captured.err
    assert captured.out == ""
    assert not store.exists()


def test_mc_store_cli_writes_a_queryable_part(tmp_path, capsys):
    """The write path end to end: ``mc --store`` then ``query nff``."""
    store = tmp_path / "store"
    rc = main(
        [
            "--seed",
            "11",
            "--store",
            str(store),
            "--campaign-id",
            "cli-test",
            "--store-format",
            "json",
            "mc",
            "--replicas",
            "2",
            "--horizon-ms",
            "250",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "store part published" in out
    assert main(["query", "campaigns", "--store", str(store)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["campaign"] == "cli-test"
    assert rows[0]["replicas"] == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_checkpoint_and_store_are_one_artefact(tmp_path, capsys, workers):
    """With both flags the store part is a byte copy of the checkpoint
    ledger, and no in-flight ledger is left in the store."""
    ledger, store = tmp_path / "L", tmp_path / "S"
    argv = ["--seed", "5", "--workers", workers, "--checkpoint", str(ledger)]
    argv += ["--store", str(store), "mc", "--replicas", "6", "--horizon-ms", "300"]
    assert main(argv) == 0
    (part,) = store.glob("default/*/part-*.jsonl")
    assert part.read_bytes() == ledger.read_bytes()
    assert not list(store.rglob("run-*.jsonl"))
