"""Checkpoint ledger: durability, tamper tolerance and the resume
determinism contract.

The acceptance case of the crash-proofing issue lives here: a campaign
that is interrupted and resumed from its ledger produces **bit-identical**
aggregates — and identical canonical obs digests — to an uninterrupted
run, at ``workers=1`` and ``workers=4`` alike.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome, CampaignReplicaSpec
from repro.obs import trace_digest
from repro.runtime.checkpoint import (
    CheckpointLedger,
    load_ledger,
    spec_digest,
)
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask, RunOptions
from repro.runtime.seeds import stream_fingerprint
from repro.runtime.workloads import run_random_campaigns
from repro.storage.ledger import chunk_checksum
from repro.units import ms

OBS_SPEC = CampaignReplicaSpec(
    expected_faults=3.0,
    horizon_us=ms(300),
    obs_enabled=True,
    obs_trace=True,
)


def draw_task(replica: ReplicaTask) -> CampaignReplicaOutcome:
    """First draw of the replica's private stream (spawn-picklable).

    The draw rides in ``alpha_state`` of a declared value kind: the
    ledger only holds values it has declared tables for.
    """
    return CampaignReplicaOutcome(
        index=replica.index,
        plan_events=(),
        injected_by_mechanism=(),
        attributed_by_mechanism=(),
        faults_injected=0,
        faults_attributed=0,
        verdicts_emitted=0,
        events_simulated=0,
        alpha_state=(("draw", float(replica.rng().random())),),
    )


def _draws(checkpoint=None, *, chunk_size=2, **options) -> ParallelCampaignRunner:
    """The draw task under a ledger at ``checkpoint``."""
    return ParallelCampaignRunner(
        draw_task,
        options=RunOptions(chunk_size=chunk_size, checkpoint=checkpoint, **options),
    )


def _ledger_lines(path) -> list[dict]:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def _truncate_to_first_chunk(src, dst) -> int:
    """Copy header + first chunk line only; return replicas kept."""
    kept = []
    replicas_kept = 0
    for record, line in zip(
        _ledger_lines(src), src.read_text(encoding="utf-8").splitlines()
    ):
        if record["kind"] == "header":
            kept.append(line)
        elif record["kind"] == "chunk":
            kept.append(line)
            replicas_kept = len(record["indices"])
            break
    dst.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return replicas_kept


def _obs_digest(outcome) -> str:
    """Canonical digest over all replica trace records, index order."""
    return trace_digest(
        record
        for result in outcome.results
        for record in result.value.obs_trace
    )


# -- ledger mechanics ------------------------------------------------------


def test_spec_digest_identity():
    specs = [CampaignReplicaSpec(horizon_us=ms(300))] * 3
    assert spec_digest(1, specs) == spec_digest(1, list(specs))
    assert spec_digest(1, specs) != spec_digest(2, specs)
    assert spec_digest(1, specs) != spec_digest(1, specs[:2])
    assert spec_digest(1, specs) != spec_digest(
        1, [CampaignReplicaSpec(horizon_us=ms(400))] * 3
    )


def test_ledger_roundtrip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    outcome = _draws(path).run([None] * 5, root_seed=7)
    state = load_ledger(path)
    assert sorted(state.results_by_index) == [0, 1, 2, 3, 4]
    assert state.sessions == 1
    assert state.skipped_lines == 0
    for result in outcome.results:
        assert state.results_by_index[result.index].value == result.value
    meta = state.meta
    assert meta["root_seed"] == 7
    assert meta["replicas"] == 5
    assert meta["chunk_size"] == 2
    assert meta["spec_digest"] == spec_digest(7, [None] * 5)
    records = _ledger_lines(path)
    assert records[0]["kind"] == "header"
    assert records[-1]["kind"] == "close"
    assert records[-1]["complete"] is True
    assert records[-1]["completed"] == 5


def test_resume_of_complete_ledger_executes_nothing(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = _draws(path).run([None] * 5, root_seed=7)
    second = _draws(path, resume=True).run([None] * 5, root_seed=7)
    assert second.values() == first.values()
    m = second.metrics
    assert m.replicas_resumed == 5
    assert m.events_simulated == 0  # nothing executed this session
    assert m.worker_busy_s == {}
    kinds = [r["kind"] for r in _ledger_lines(path)]
    assert kinds.count("resume") == 1
    assert kinds.count("close") == 2


def test_interrupted_then_resumed_equivalence_toy(tmp_path):
    """Truncated ledger (simulated crash) + resume == uninterrupted,
    for both a serial and a pooled resume."""
    reference = _draws().run([None] * 8, root_seed=13)
    full = tmp_path / "full.jsonl"
    _draws(full).run([None] * 8, root_seed=13)
    for workers in (1, 3):
        trunc = tmp_path / f"trunc-w{workers}.jsonl"
        kept = _truncate_to_first_chunk(full, trunc)
        assert 0 < kept < 8
        resumed = _draws(trunc, resume=True, workers=workers).run(
            [None] * 8, root_seed=13
        )
        assert resumed.values() == reference.values()
        assert resumed.metrics.replicas_resumed == kept


def test_corrupted_tail_is_skipped_and_reexecuted(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = _draws(path).run([None] * 5, root_seed=7)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "chunk", "payload": "AAAA", "sha2')  # torn write
        fh.write("\n")
        fh.write(
            json.dumps(
                {
                    "kind": "chunk",
                    "indices": [9],
                    "payload": "AAAA",
                    "sha256": "0" * 64,
                    "streams": {},
                }
            )
            + "\n"
        )
    state = load_ledger(path)
    assert state.skipped_lines == 2
    assert sorted(state.results_by_index) == [0, 1, 2, 3, 4]
    resumed = _draws(path, resume=True).run([None] * 5, root_seed=7)
    assert resumed.values() == first.values()
    assert resumed.metrics.replicas_resumed == 5


def test_stream_fingerprint_guard_forces_reexecution(tmp_path):
    """A chunk whose replica carries the wrong seed-stream fingerprint
    is not trusted: the replica re-executes and the aggregate is still
    exactly the uninterrupted one."""
    path = tmp_path / "ledger.jsonl"
    first = _draws(path, chunk_size=1).run([None] * 4, root_seed=7)
    lines = path.read_text(encoding="utf-8").splitlines()
    doctored = []
    tampered = False
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "chunk" and not tampered:
            # A valid checksum over a wrong fingerprint: only the
            # stream guard can reject this line.
            record["tables"]["replicas"]["seed_fingerprint"][0] = "f" * 32
            record["sha256"] = chunk_checksum(record["tables"])
            line = json.dumps(record, sort_keys=True)
            tampered = True
        doctored.append(line)
    path.write_text("\n".join(doctored) + "\n", encoding="utf-8")
    state = load_ledger(path)
    assert state.skipped_lines == 1
    assert len(state.results_by_index) == 3
    resumed = _draws(path, chunk_size=1, resume=True).run(
        [None] * 4, root_seed=7
    )
    assert resumed.values() == first.values()
    assert resumed.metrics.replicas_resumed == 3


def test_resume_rejects_mismatched_campaign(tmp_path):
    path = tmp_path / "ledger.jsonl"
    _draws(path).run([None] * 5, root_seed=7)
    resuming = _draws(path, resume=True)
    with pytest.raises(ConfigurationError, match="root_seed"):
        resuming.run([None] * 5, root_seed=8)
    with pytest.raises(ConfigurationError, match="replicas"):
        resuming.run([None] * 6, root_seed=7)
    with pytest.raises(ConfigurationError, match="spec_digest"):
        resuming.run(["x"] * 5, root_seed=7)


def test_fresh_run_truncates_stale_ledger(tmp_path):
    """Without resume=True an existing ledger is overwritten, never
    silently mixed into the new campaign."""
    path = tmp_path / "ledger.jsonl"
    runner = _draws(path)
    runner.run([None] * 5, root_seed=7)
    fresh = runner.run([None] * 3, root_seed=9)
    assert fresh.metrics.replicas_resumed == 0
    meta = load_ledger(path).meta
    assert meta["root_seed"] == 9
    assert meta["replicas"] == 3


def test_header_validation(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="empty"):
        load_ledger(empty)
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="header"):
        load_ledger(garbage)
    headless = tmp_path / "headless.jsonl"
    headless.write_text('{"kind": "chunk"}\n', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="header"):
        load_ledger(headless)
    futuristic = tmp_path / "future.jsonl"
    futuristic.write_text(
        json.dumps({"kind": "header", "version": 99}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="version"):
        load_ledger(futuristic)
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_ledger(missing)


def test_ledger_open_records_command_provenance(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger, preloaded = CheckpointLedger.open(
        path,
        root_seed=3,
        specs=[None] * 2,
        chunk_size=1,
        workers=1,
        resume=False,
        invocation={
            "command": "mc",
            "params": {"seed": 3, "replicas": 2},
            "argv": ["--seed", "3", "mc", "--replicas", "2"],
        },
    )
    ledger.close(completed=0)
    assert preloaded == {}
    meta = load_ledger(path).meta
    assert meta["command"] == "mc"
    assert meta["params"] == {"seed": 3, "replicas": 2}
    assert meta["argv"] == ["--seed", "3", "mc", "--replicas", "2"]


def test_stream_fingerprint_shape():
    fp = stream_fingerprint(7, 3)
    assert len(fp) == 32
    int(fp, 16)  # hex
    assert fp != stream_fingerprint(7, 4)
    assert fp != stream_fingerprint(8, 3)
    assert fp == stream_fingerprint(7, 3)


# -- the acceptance case: full-campaign equivalence ------------------------


def test_resumed_campaign_bit_identical_with_obs_digests(tmp_path):
    """Interrupted-then-resumed ≡ uninterrupted ≡ workers=1, including
    canonical obs trace digests, at workers=1 and workers=4."""
    reference = run_random_campaigns(
        6, root_seed=11, spec=OBS_SPEC, options=RunOptions(chunk_size=2)
    )
    reference_digest = _obs_digest(reference)
    full = tmp_path / "full.jsonl"
    checkpointed = run_random_campaigns(
        6,
        root_seed=11,
        spec=OBS_SPEC,
        options=RunOptions(chunk_size=2, checkpoint=str(full)),
    )
    # Checkpointing itself must not perturb the campaign.
    assert checkpointed.value == reference.value
    assert _obs_digest(checkpointed) == reference_digest
    for workers in (1, 4):
        trunc = tmp_path / f"trunc-w{workers}.jsonl"
        kept = _truncate_to_first_chunk(full, trunc)
        assert 0 < kept < 6
        resumed = run_random_campaigns(
            6,
            root_seed=11,
            spec=OBS_SPEC,
            options=RunOptions(
                workers=workers,
                chunk_size=2,
                checkpoint=str(trunc),
                resume=True,
            ),
        )
        # Bit-identical aggregate: full CampaignSummary equality covers
        # plan digest, attribution tables and merged obs counters; the
        # JSON form also catches type drift (3 == 3.0 hides it).
        assert resumed.value == reference.value
        assert json.dumps(resumed.value.to_dict(), sort_keys=True) == json.dumps(
            reference.value.to_dict(), sort_keys=True
        )
        assert _obs_digest(resumed) == reference_digest
        assert resumed.metrics.replicas_resumed == kept
        assert resumed.metrics.workers == workers


def test_mid_batch_resume_skips_completed_replicas(tmp_path):
    """A resume whose preloaded replicas straddle a chunk boundary never
    re-runs them.

    The ledger is written with chunk_size=4 (replicas 0–3 complete); the
    resume re-chunks at chunk_size=3, so chunk [3, 4, 5] is *partially*
    preloaded.  The runner must execute only the fresh replicas — proven
    by the events_simulated accounting, which counts executed replicas
    only.
    """
    spec = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(300))
    reference = run_random_campaigns(
        6, root_seed=11, spec=spec, options=RunOptions(chunk_size=4)
    )
    full = tmp_path / "full.jsonl"
    run_random_campaigns(
        6,
        root_seed=11,
        spec=spec,
        options=RunOptions(chunk_size=4, checkpoint=str(full)),
    )
    trunc = tmp_path / "trunc.jsonl"
    kept = _truncate_to_first_chunk(full, trunc)
    assert kept == 4
    resumed = run_random_campaigns(
        6,
        root_seed=11,
        spec=spec,
        options=RunOptions(chunk_size=3, checkpoint=str(trunc), resume=True),
    )
    assert resumed.value == reference.value
    assert resumed.metrics.replicas_resumed == 4
    fresh_events = sum(
        result.events for result in reference.results if result.index >= 4
    )
    assert resumed.metrics.events_simulated == fresh_events


# -- every declared kind ----------------------------------------------------


def test_undeclared_value_type_fails_at_first_append(tmp_path):
    """Only declared value kinds can be checkpointed: a bare int has no
    tables, and the ledger says so before it writes any chunk."""
    path = tmp_path / "ledger.jsonl"
    runner = ParallelCampaignRunner(
        _bare_int_task, options=RunOptions(chunk_size=2, checkpoint=path)
    )
    with pytest.raises(ConfigurationError, match="no declared storage kind"):
        runner.run([None] * 4, root_seed=1)
    assert [r["kind"] for r in _ledger_lines(path)] == ["header"]


def _bare_int_task(replica: ReplicaTask) -> int:
    return replica.index


def _fleet(**options):
    from repro.analysis.fleet_sim import simulate_diagnosed_fleet

    result = simulate_diagnosed_fleet(
        3,
        seed=21,
        fault_probability=0.7,
        drive_duration_us=ms(200),
        options=RunOptions(chunk_size=1, **options),
    )
    return (result.report.counts.tolist(), result.vehicles_detected), result


def _catalogue(**options):
    from repro.analysis.scenarios import CATALOGUE, run_campaign

    result = run_campaign(
        CATALOGUE[:2], seeds=(7,), options=RunOptions(chunk_size=1, **options)
    )
    return (
        result.score.matrix.rows(),
        result.integrated_cost.actions,
        result.obd_cost.actions,
    ), result


@pytest.mark.parametrize(
    "run, kind", [(_fleet, "fleet"), (_catalogue, "catalogue")]
)
def test_every_declared_kind_resumes_and_stores_identically(
    tmp_path, run, kind
):
    """Fleet and catalogue values round-trip through both artefacts: a
    resume from a truncated ledger reduces to the uninterrupted result,
    and the store part decodes to the values the ledger holds."""
    from repro.storage import CampaignStore
    from repro.storage.codec import decode
    from repro.storage.schema import tables_for_kind

    reference, _ = run()
    full = tmp_path / "full.jsonl"
    store = tmp_path / "store"
    run(checkpoint=str(full), store=str(store))
    trunc = tmp_path / "trunc.jsonl"
    assert _truncate_to_first_chunk(full, trunc) == 1
    resumed, outcome = run(checkpoint=str(trunc), resume=True)
    assert resumed == reference
    assert outcome.metrics.replicas_resumed == 1

    (part,) = CampaignStore(store).parts()
    assert part.kind == kind
    stored = decode(
        kind,
        {name: part.table(name) for name in tables_for_kind(kind)},
        part.root_seed,
    )
    ledgered = load_ledger(full).results_by_index
    assert {i: r.value for i, r in stored.items()} == {
        i: r.value for i, r in ledgered.items()
    }
