"""Every fault count of a campaign is a count over its fault rows.

A replica reports one row per injected fault (``plan_events``) and
whether the diagnosis attributed it (``attributed``).  The
per-mechanism counts derived from those rows must equal the counts the
replicas reported before the rows existed:
``tests/data/golden_mechanism_counts.json`` holds them for replicas 0-39
of root seed 4321 at a 300 ms horizon, a campaign that injects faults of
all ten mechanisms of the default mix.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults.campaign import (
    DEFAULT_MIX,
    CampaignReplicaOutcome,
    CampaignReplicaSpec,
    mechanism_counts,
)
from repro.runtime.workloads import run_random_campaigns
from repro.storage import codec
from repro.units import ms

DATA = Path(__file__).parent.parent / "data"
REFERENCE = DATA / "golden_mechanism_counts.json"


def _pairs(counts: dict[str, int]) -> list[list]:
    return [[mechanism, n] for mechanism, n in sorted(counts.items())]


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outcome(reference):
    spec = CampaignReplicaSpec(
        expected_faults=reference["expected_faults"],
        horizon_us=ms(reference["horizon_ms"]),
    )
    return run_random_campaigns(
        reference["replicas"], root_seed=reference["root_seed"], spec=spec
    )


def test_the_reference_covers_every_mechanism(reference):
    summary = reference["summary"]
    assert {m for m, _n in summary["injected_by_mechanism"]} == set(DEFAULT_MIX)
    assert 0 < summary["faults_attributed"] < summary["faults_injected"]


def test_per_replica_counts_from_the_rows_equal_the_reference(
    reference, outcome
):
    values = sorted((r.value for r in outcome.results), key=lambda v: v.index)
    assert [v.index for v in values] == list(range(reference["replicas"]))
    for value, want in zip(values, reference["per_replica"]):
        injected, attributed = mechanism_counts([value])
        assert _pairs(injected) == want["injected_by_mechanism"]
        assert _pairs(attributed) == want["attributed_by_mechanism"]
        assert len(value.attributed) == len(value.plan_events)
        assert all(type(hit) is bool for hit in value.attributed)
        assert value.faults_injected == sum(injected.values())
        assert value.faults_attributed == sum(attributed.values())


def test_summary_counts_from_the_rows_equal_the_reference(reference, outcome):
    summary, want = outcome.value, reference["summary"]
    assert summary.plan_digest == want["plan_digest"]
    assert summary.faults_injected == want["faults_injected"]
    assert summary.faults_attributed == want["faults_attributed"]
    for field in ("injected_by_mechanism", "attributed_by_mechanism"):
        assert [list(p) for p in getattr(summary, field)] == want[field]


def test_stored_rows_give_the_same_counts(reference, outcome):
    """The fault rows survive the codec: decoded outcomes count the same."""
    kind, tables = codec.encode(outcome.results, reference["root_seed"])
    assert tables["plan_events"]["attributed"] == [
        hit
        for r in sorted(outcome.results, key=lambda r: r.index)
        for hit in r.value.attributed
    ]
    decoded = codec.decode(kind, tables, reference["root_seed"])
    stored = mechanism_counts(r.value for r in decoded.values())
    assert stored == mechanism_counts(r.value for r in outcome.results)


def test_a_flag_per_fault_is_required():
    value = CampaignReplicaOutcome(
        index=0,
        plan_events=(("seu", "comp1", 10), ("wiring", "comp2", 20)),
        attributed=(True,),
        verdicts_emitted=0,
        events_simulated=0,
    )
    with pytest.raises(ValueError):
        mechanism_counts([value])
