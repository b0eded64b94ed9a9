"""Replay-equivalence differential battery.

The identity contract of ``repro whatif``: a splice-replay of a stored
baseline with a cause removed is **bit-identical** to a fresh full
campaign run with the same cause removed — same summary (verdict totals,
per-mechanism folds, plan digest, merged obs counters with the
provenance stage-latency histograms), same wall-free per-replica
outcomes — at any worker count.  The ``events_simulated``/
``replicas_resumed`` metrics prove that only the DAG-affected replicas
actually re-ran.

The hypothesis block is ``derandomize=True`` over the shared strategy
space in ``tests/_differential.py`` — a fixed, replayable corpus, same
convention as the store battery.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import load_baseline, whatif
from tests._differential import (
    FUZZ_CHUNK,
    FUZZ_EXPECTED_FAULTS,
    FUZZ_SEED,
    FULL_OBS_SPEC,
    fuzz_spec,
    run_campaign,
    wall_free,
)

pytestmark = pytest.mark.differential


def _checkpoint_baseline(tmp_path, *, replicas=4, seed=11, spec=FULL_OBS_SPEC):
    """Run one checkpointed mc campaign and load it back as a baseline."""
    ledger = tmp_path / "baseline.ckpt"
    params = {
        "replicas": replicas,
        "expected_faults": spec.expected_faults,
        "horizon_ms": spec.horizon_us // 1000,
        "trace": spec.obs_trace,
        "provenance": spec.obs_provenance,
    }
    outcome = run_campaign(
        replicas=replicas,
        seed=seed,
        spec=spec,
        checkpoint=ledger,
        checkpoint_meta={"command": "mc", "params": params},
    )
    return outcome, load_baseline(ledger)


def _store_baseline(tmp_path, *, replicas=4, seed=11, spec=FULL_OBS_SPEC, chunk=2):
    """Run one stored mc campaign and load it back as a baseline."""
    params = {
        "replicas": replicas,
        "expected_faults": spec.expected_faults,
        "horizon_ms": spec.horizon_us // 1000,
        "trace": spec.obs_trace,
        "provenance": spec.obs_provenance,
    }
    outcome = run_campaign(
        replicas=replicas,
        seed=seed,
        spec=spec,
        chunk=chunk,
        store=str(tmp_path),
        store_meta={
            "campaign_id": "c1",
            "format": "json",
            "command": "mc",
            "params": params,
        },
    )
    return outcome, load_baseline(tmp_path)


def _first_selector(baseline, replica=0):
    mechanism, target, at_us = baseline.outcome(replica).plan_events[0]
    return f"r{replica}:{mechanism}@{target}@{at_us}"


def _fresh(baseline, *, suppress=(), onas=(), workers=1):
    """A full fresh campaign of the rewritten spec — the reference."""
    spec = replace(
        baseline.spec, suppress_faults=tuple(suppress), disable_onas=tuple(onas)
    )
    return run_campaign(
        replicas=baseline.replicas,
        seed=baseline.root_seed,
        spec=spec,
        workers=workers,
    )


# -- identity across workers ------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "workers4"])
def test_whatif_equals_fresh_run(tmp_path, workers):
    """Splice-replay ≡ fresh full run with the fault removed, exactly."""
    _, baseline = _checkpoint_baseline(tmp_path)
    selector = _first_selector(baseline)
    result = whatif(
        baseline,
        suppress_faults=(selector,),
        workers=workers,
    )
    fresh = _fresh(baseline, suppress=(selector,), workers=workers)
    # Summary equality covers verdict totals, per-mechanism folds, the
    # plan digest and the merged obs-counter snapshot (which includes
    # the provenance stage-latency histograms).
    assert result.counterfactual_summary == fresh.value
    assert result.counterfactual_summary.obs_counters == fresh.value.obs_counters


def test_whatif_per_replica_outcomes_equal_fresh(tmp_path):
    """Wall-free per-replica outcomes of replay and fresh run match."""
    outcome, baseline = _checkpoint_baseline(tmp_path)
    selector = _first_selector(baseline)
    result = whatif(baseline, suppress_faults=(selector,))
    fresh = _fresh(baseline, suppress=(selector,))
    # Rebuild the replayed campaign's per-replica view: affected come
    # from the engine's diff inputs, spliced come from the baseline.
    fresh_by_index = {r.index: r for r in fresh.results}
    for index in result.spliced:
        spliced = baseline.results[index]
        ref = fresh_by_index[index]
        assert wall_free_one(spliced) == wall_free_one(ref)
    assert result.counterfactual_summary == fresh.value


def wall_free_one(result):
    from repro.obs import trace_digest

    return replace(result.value, obs_trace=trace_digest(result.value.obs_trace))


def test_whatif_splice_proof(tmp_path):
    """events_simulated/replicas_resumed prove only affected replicas ran."""
    _, baseline = _checkpoint_baseline(tmp_path)
    selector = _first_selector(baseline)
    result = whatif(baseline, suppress_faults=(selector,))
    assert result.affected == (0,)
    assert result.affected_by == "plan"
    assert result.spliced == (1, 2, 3)
    assert result.metrics.replicas_resumed == 3
    # Fresh-only event accounting: exactly the affected replica's events.
    affected_events = result.counterfactual_summary.events_simulated - sum(
        baseline.outcome(i).events_simulated for i in result.spliced
    )
    assert result.replayed_events == affected_events
    assert result.replayed_events < result.baseline_events


def test_whatif_without_ona_equals_fresh(tmp_path):
    """ONA disabling replays to the same bytes as a fresh disabled run."""
    _, baseline = _checkpoint_baseline(tmp_path)
    result = whatif(baseline, disable_onas=("isolated-transient",))
    fresh = _fresh(baseline, onas=("isolated-transient",))
    # Full tracing is on, so every replica re-runs (trace-wide rule).
    assert result.affected_by == "trace"
    assert result.affected == tuple(range(baseline.replicas))
    assert result.counterfactual_summary == fresh.value


def test_whatif_ona_counters_affected_set(tmp_path):
    """Counters-only baselines re-run exactly the replicas that fired.

    ``mc --provenance`` (no ``--trace``) records per-replica counter
    snapshots but no trace stream — the exact-counters affected set.
    """
    spec = replace(FULL_OBS_SPEC, obs_enabled=False, obs_trace=False)
    _, baseline = _checkpoint_baseline(tmp_path, spec=spec)
    fired = [
        index
        for index in range(baseline.replicas)
        for key, value in (
            baseline.outcome(index).obs_counters or {}
        )["counters"].items()
        if key.startswith("ona.triggers{")
        and "ona=isolated-transient" in key
        and value
    ]
    result = whatif(baseline, disable_onas=("isolated-transient",))
    assert result.affected_by == "counters"
    assert result.affected == tuple(sorted(set(fired)))
    fresh = _fresh(baseline, onas=("isolated-transient",))
    assert result.counterfactual_summary == fresh.value


def test_whatif_store_baseline_equals_fresh(tmp_path):
    """Store-backed baselines replay to the same bytes as fresh runs."""
    spec = replace(
        FULL_OBS_SPEC,
        obs_enabled=False,
        obs_trace=False,
        obs_provenance=False,
    )
    replicas, seed = 4, 11
    run_campaign(
        replicas=replicas,
        seed=seed,
        spec=spec,
        store=str(tmp_path),
        store_meta={
            "campaign_id": "c1",
            "format": "json",
            "command": "mc",
            "params": {
                "replicas": replicas,
                "expected_faults": spec.expected_faults,
                "horizon_ms": spec.horizon_us // 1000,
            },
        },
    )
    baseline = load_baseline(tmp_path)
    assert baseline.source == "store"
    selector = _first_selector(baseline)
    result = whatif(baseline, suppress_faults=(selector,))
    fresh = _fresh(baseline, suppress=(selector,))
    assert result.counterfactual_summary == fresh.value
    assert result.metrics.replicas_resumed == len(result.spliced)


def test_obs_store_baseline_equals_ledger_baseline(tmp_path):
    """One traced, provenance-enabled run writes a ledger and a store
    part; both decode to the run's own results, trace records and wall
    stamps included, so both replay it identically."""
    spec = FULL_OBS_SPEC
    meta = {
        "command": "mc",
        "params": {
            "replicas": 4,
            "expected_faults": spec.expected_faults,
            "horizon_ms": spec.horizon_us // 1000,
            "trace": True,
            "provenance": True,
        },
    }
    outcome = run_campaign(
        replicas=4,
        spec=spec,
        checkpoint=tmp_path / "baseline.ckpt",
        checkpoint_meta=meta,
        store=str(tmp_path / "store"),
        store_meta={"campaign_id": "c1", "format": "json", **meta},
    )
    from_ledger = load_baseline(tmp_path / "baseline.ckpt")
    from_store = load_baseline(tmp_path / "store")
    assert (from_ledger.source, from_store.source) == ("checkpoint", "store")
    assert from_store.spec == from_ledger.spec == spec
    expected = {r.index: r.value for r in outcome.results}
    assert {i: r.value for i, r in from_store.results.items()} == expected
    assert {i: r.value for i, r in from_ledger.results.items()} == expected
    result = whatif(from_store, disable_onas=("isolated-transient",))
    assert result.counterfactual_summary == _fresh(
        from_store, onas=("isolated-transient",)
    ).value


# -- fixed-corpus fuzz ------------------------------------------------------


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=FUZZ_SEED,
    replicas=st.integers(min_value=1, max_value=4),
    chunk=FUZZ_CHUNK,
    expected_faults=FUZZ_EXPECTED_FAULTS,
)
def test_fuzz_whatif_equals_fresh(
    tmp_path_factory, seed, replicas, chunk, expected_faults
):
    """Random baselines: splice-replay always equals the fresh rerun."""
    tmp_path = tmp_path_factory.mktemp("replay-fuzz")
    spec = fuzz_spec(expected_faults, True, trace=True)
    _, baseline = _checkpoint_baseline(
        tmp_path, replicas=replicas, seed=seed, spec=spec
    )
    events = baseline.outcome(replicas - 1).plan_events
    if not events:
        selectors = ("r0:seu",)  # may match nothing: full-splice path
    else:
        mechanism, target, at_us = events[0]
        selectors = (f"r{replicas - 1}:{mechanism}@{target}@{at_us}",)
    result = whatif(baseline, suppress_faults=selectors)
    fresh = _fresh(baseline, suppress=selectors)
    assert result.counterfactual_summary == fresh.value
    assert result.metrics.replicas_resumed == len(result.spliced)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    seed=FUZZ_SEED,
    replicas=st.integers(min_value=1, max_value=4),
    chunk=FUZZ_CHUNK,
    expected_faults=FUZZ_EXPECTED_FAULTS,
    trace=st.booleans(),
)
def test_fuzz_whatif_equals_fresh_from_store(
    tmp_path_factory, seed, replicas, chunk, expected_faults, trace
):
    """The same corpus from obs-enabled store baselines: a store part
    replays exactly like the ledger the fuzz above replays."""
    tmp_path = tmp_path_factory.mktemp("replay-store-fuzz")
    # As `mc --provenance [--trace]` builds it: counters need obs_enabled
    # only with the trace.
    spec = replace(fuzz_spec(expected_faults, True, trace=trace), obs_enabled=trace)
    _, baseline = _store_baseline(
        tmp_path, replicas=replicas, seed=seed, spec=spec, chunk=chunk
    )
    events = baseline.outcome(replicas - 1).plan_events
    if not events:
        selectors = ("r0:seu",)
    else:
        mechanism, target, at_us = events[0]
        selectors = (f"r{replicas - 1}:{mechanism}@{target}@{at_us}",)
    result = whatif(baseline, suppress_faults=selectors)
    fresh = _fresh(baseline, suppress=selectors)
    assert result.counterfactual_summary == fresh.value
    assert result.metrics.replicas_resumed == len(result.spliced)
