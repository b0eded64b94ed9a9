"""Property tests of the counterfactual plan rewrite.

The rewrite layer (``repro.faults.suppress`` + the spec fields
``suppress_faults``/``disable_onas``) must be *surgical*: suppressing a
fault that was never sampled is a byte-identical no-op (the sampler
consumes the same RNG draws, FRU collision slots and fault ids either
way), suppression is idempotent, suppressing every sampled event leaves
a fault-free campaign, and rewritten specs round-trip through both
durable artefacts (checkpoint ledger header, CSR store columns).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import CampaignReplicaSpec
from repro.faults.suppress import (
    matching_events,
    parse_selector,
    parse_selectors,
    selectors_for_replica,
)
from repro.errors import ConfigurationError
from repro.runtime.checkpoint import load_ledger, spec_digest
from repro.units import ms
from tests._differential import (
    FUZZ_EXPECTED_FAULTS,
    FUZZ_SEED,
    run_campaign,
    wall_free,
)

pytestmark = pytest.mark.differential

SPEC = CampaignReplicaSpec(expected_faults=3.0, horizon_us=ms(250))


def _suppressed(spec, selectors):
    return replace(spec, suppress_faults=tuple(selectors))


# -- selector grammar -------------------------------------------------------


def test_selector_round_trip():
    for text in (
        "seu",
        "seu@component:comp3",
        "seu@component:comp3@1500",
        "r2:emi-burst@component:loom-channel-0@99",
        "r0:sensor",
    ):
        assert str(parse_selector(text)) == text


@pytest.mark.parametrize(
    "bad", ["", "r:seu", "rX:seu", "seu@t@notanint", "r1:", "@", "seu@a@1@2"]
)
def test_selector_rejects_bad_grammar(bad):
    with pytest.raises(ConfigurationError):
        parse_selector(bad)


def test_replica_scoping():
    selectors = ("r1:seu", "emi-burst")
    assert [str(s) for s in selectors_for_replica(selectors, 0)] == [
        "emi-burst"
    ]
    assert [str(s) for s in selectors_for_replica(selectors, 1)] == [
        "r1:seu",
        "emi-burst",
    ]


# -- no-op / idempotence / total suppression --------------------------------


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=FUZZ_SEED, expected_faults=FUZZ_EXPECTED_FAULTS)
def test_suppressing_absent_fault_is_noop(seed, expected_faults):
    """A selector that matches nothing leaves every byte unchanged.

    ``job-crash`` is a real mechanism name but absent from the default
    sampling mix, so it can never appear in a sampled plan.
    """
    spec = replace(SPEC, expected_faults=expected_faults)
    baseline = run_campaign(replicas=3, seed=seed, spec=spec)
    noop = run_campaign(
        replicas=3, seed=seed, spec=_suppressed(spec, ("job-crash",))
    )
    assert noop.value == baseline.value
    assert wall_free(noop) == wall_free(baseline)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=FUZZ_SEED)
def test_suppression_is_idempotent(seed):
    """Suppressing a selector twice equals suppressing it once."""
    baseline = run_campaign(replicas=2, seed=seed, spec=SPEC)
    events = baseline.results[0].value.plan_events
    selector = (
        f"r0:{events[0][0]}@{events[0][1]}@{events[0][2]}"
        if events
        else "r0:seu"
    )
    once = run_campaign(
        replicas=2, seed=seed, spec=_suppressed(SPEC, (selector,))
    )
    twice = run_campaign(
        replicas=2, seed=seed, spec=_suppressed(SPEC, (selector, selector))
    )
    assert twice.value == once.value
    assert wall_free(twice) == wall_free(once)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=FUZZ_SEED, expected_faults=FUZZ_EXPECTED_FAULTS)
def test_suppressing_every_event_leaves_fault_free_campaign(
    seed, expected_faults
):
    """Suppressing each sampled event yields the fault-free baseline."""
    spec = replace(SPEC, expected_faults=expected_faults)
    baseline = run_campaign(replicas=2, seed=seed, spec=spec)
    selectors = tuple(
        f"r{r.index}:{mechanism}@{target}@{at_us}"
        for r in baseline.results
        for mechanism, target, at_us in r.value.plan_events
    )
    if not selectors:
        return  # nothing sampled: already fault-free
    empty = run_campaign(
        replicas=2, seed=seed, spec=_suppressed(spec, selectors)
    )
    assert empty.value.faults_injected == 0
    assert empty.value.faults_attributed == 0
    for r in empty.results:
        assert r.value.plan_events == ()
    # matching_events agrees: every baseline event was covered.
    for r in baseline.results:
        assert matching_events(
            selectors, r.index, r.value.plan_events
        ) == list(r.value.plan_events)


# -- durable round-trips ----------------------------------------------------


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=FUZZ_SEED)
def test_rewritten_spec_round_trips_through_checkpoint_header(
    tmp_path_factory, seed
):
    """suppress/disable fields survive the ledger's spec digest binding."""
    tmp = tmp_path_factory.mktemp("rewrite-ckpt")
    ledger = tmp / "c.ckpt"
    spec = replace(
        SPEC,
        suppress_faults=("r0:seu@component:comp3@1500", "emi-burst"),
        disable_onas=("wearout",),
    )
    outcome = run_campaign(
        replicas=2,
        seed=seed,
        spec=spec,
        checkpoint=ledger,
        invocation={"command": "mc", "params": {}},
    )
    state = load_ledger(ledger)
    assert state.meta["spec_digest"] == spec_digest(seed, [spec] * 2)
    # A different rewrite binds to a different digest — the ledger can
    # never silently resume the wrong counterfactual.
    other = replace(spec, suppress_faults=("emi-burst",))
    assert state.meta["spec_digest"] != spec_digest(seed, [other] * 2)
    # The recorded per-replica results are the run's own, verbatim.
    assert {
        i: r.value for i, r in state.results_by_index.items()
    } == {r.index: r.value for r in outcome.results}


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=FUZZ_SEED)
def test_rewritten_plan_round_trips_through_store_columns(
    tmp_path_factory, seed
):
    """Suppressed events never leak into the CSR plan_events columns."""
    from repro.storage.store import CampaignStore

    tmp = tmp_path_factory.mktemp("rewrite-store")
    baseline = run_campaign(replicas=2, seed=seed, spec=SPEC)
    events = baseline.results[0].value.plan_events
    selectors = (
        (f"r0:{events[0][0]}@{events[0][1]}@{events[0][2]}",)
        if events
        else ("r0:seu",)
    )
    spec = _suppressed(SPEC, selectors)
    outcome = run_campaign(
        replicas=2,
        seed=seed,
        spec=spec,
        store=str(tmp),
        campaign_id="c1",
    )
    part = CampaignStore(tmp).parts()[0]
    table = part.table("plan_events")
    stored = {}
    for replica, ordinal, mechanism, target, at_us in zip(
        table["replica"],
        table["ordinal"],
        table["mechanism"],
        table["target"],
        table["at_us"],
    ):
        stored.setdefault(int(replica), []).append(
            (int(ordinal), (str(mechanism), str(target), int(at_us)))
        )
    for r in outcome.results:
        rows = tuple(e for _o, e in sorted(stored.get(r.index, [])))
        assert rows == r.value.plan_events
        assert not matching_events(selectors, r.index, rows)


def test_parse_selectors_validates_each():
    with pytest.raises(ConfigurationError):
        parse_selectors(("seu", "r?:bad"))
