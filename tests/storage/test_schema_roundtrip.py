"""Schema round-trip property tests for the campaign store.

Arbitrary replica-result corpora — including NaN/±inf alpha finals and
interleaved :class:`ReplicaFailure` rows — are written as a run writes
them (chunk lines of its ledger, failures on the close line, published
by :func:`repro.storage.writer.write_run`) and read back through
:class:`repro.storage.store.CampaignStore`; every stored field must come
back *bit-equal* (floats compared by their IEEE-754 bit pattern, so a
NaN final survives the trip too).
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome
from repro.runtime.runner import ReplicaFailure, ReplicaResult, RunOutcome
from repro.runtime.seeds import stream_fingerprint
from repro.storage import CampaignStore, write_run
from tests.storage._parts import write_part

ROOT_SEED = 7


def _bits(x: float) -> int:
    """IEEE-754 bit pattern — NaN-safe float identity."""
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


# -- strategies ------------------------------------------------------------

_MECHANISMS = ("seu", "emi-burst", "connector", "permanent", "sensor")
_TARGETS = ("comp1", "comp2", "comp3", "channel:0")
_FRUS = ("comp1", "comp2", "comp3", "channel:0", "sensor.C1")

_plan_event = st.tuples(
    st.sampled_from(_MECHANISMS),
    st.sampled_from(_TARGETS),
    st.integers(min_value=0, max_value=10**9),
)

# JSON collapses every NaN payload to the canonical quiet NaN, so the
# corpus uses the canonical one explicitly (plus ±inf, ±0.0 and finite
# doubles, all of which round-trip bit-exactly through shortest-repr).
_state_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.just(float("nan")),
)

_state = st.lists(
    st.tuples(st.sampled_from(_FRUS), _state_value),
    max_size=4,
    unique_by=lambda kv: kv[0],
).map(lambda kvs: tuple(sorted(kvs, key=lambda kv: kv[0])))


@st.composite
def _outcomes(draw, index: int) -> CampaignReplicaOutcome:
    plan = tuple(draw(st.lists(_plan_event, max_size=6)))
    correct = tuple(draw(st.booleans()) for _ in plan)
    injected: dict[str, int] = {}
    attributed: dict[str, int] = {}
    hits = 0
    for (mechanism, _t, _a), ok in zip(plan, correct):
        injected[mechanism] = injected.get(mechanism, 0) + 1
        if ok:
            attributed[mechanism] = attributed.get(mechanism, 0) + 1
            hits += 1
    return CampaignReplicaOutcome(
        index=index,
        plan_events=plan,
        injected_by_mechanism=tuple(sorted(injected.items())),
        attributed_by_mechanism=tuple(sorted(attributed.items())),
        faults_injected=len(plan),
        faults_attributed=hits,
        verdicts_emitted=draw(st.integers(min_value=0, max_value=20)),
        events_simulated=draw(st.integers(min_value=0, max_value=10**6)),
        alpha_state=draw(_state),
        trust_state=draw(_state),
    )


@st.composite
def _result_batches(draw) -> list[ReplicaResult | ReplicaFailure]:
    n = draw(st.integers(min_value=1, max_value=6))
    fail_at = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)
    )
    results: list[ReplicaResult | ReplicaFailure] = []
    for i in range(n):
        if i in fail_at:
            results.append(
                ReplicaFailure(
                    index=i,
                    error_type="ValueError",
                    message=f"boom {i}",
                    traceback="tb",
                    attempts=1,
                    worker="serial",
                )
            )
            continue
        outcome = draw(_outcomes(i))
        results.append(
            ReplicaResult(
                index=i,
                value=outcome,
                events=outcome.events_simulated,
                elapsed_s=draw(
                    st.floats(
                        min_value=0.0,
                        max_value=10.0,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                worker=draw(st.sampled_from(("serial", "pid-100", "pid-200"))),
            )
        )
    return results


def _outcome_of(results) -> RunOutcome:
    """A duck-typed RunOutcome over an interleaved result/failure list."""
    oks = tuple(r for r in results if isinstance(r, ReplicaResult))
    fails = tuple(r for r in results if isinstance(r, ReplicaFailure))
    value = SimpleNamespace(plan_digest="d" * 64, obs_counters=None)
    return RunOutcome(value=value, results=oks, metrics=None, failures=fails)


def _write(root: Path, outcome: RunOutcome, chunk_size: int | None = None):
    write_part(
        root,
        outcome.results,
        root_seed=ROOT_SEED,
        campaign_id="rt",
        plan_digest=outcome.value.plan_digest,
        failures=outcome.failures,
        chunk_size=chunk_size,
    )


def _write_and_read(results, root: Path):
    outcome = _outcome_of(results)
    # Chunks of two replicas: a part concatenates its chunks' tables.
    _write(root, outcome, chunk_size=2)
    parts = CampaignStore(root).parts()
    assert len(parts) == 1
    return outcome, parts[0]


def _assert_part_matches(outcome: RunOutcome, part) -> None:
    replicas = part.table("replicas")
    assert replicas["replica"] == [r.index for r in outcome.results]
    for i, r in enumerate(outcome.results):
        v = r.value
        assert replicas["seed_fingerprint"][i] == stream_fingerprint(
            ROOT_SEED, r.index
        )
        assert replicas["faults_injected"][i] == v.faults_injected
        assert replicas["faults_attributed"][i] == v.faults_attributed
        assert replicas["verdicts_emitted"][i] == v.verdicts_emitted
        assert replicas["events_simulated"][i] == v.events_simulated

    # A batch with no successful replicas stores as a generic part that
    # carries no campaign tables.
    assert part.kind == ("campaign" if outcome.results else "generic")
    if part.kind == "generic":
        _assert_failures_match(outcome, part)
        return

    plan = part.table("plan_events")
    flat = [
        (r.index, ordinal, *event)
        for r in outcome.results
        for ordinal, event in enumerate(r.value.plan_events)
    ]
    assert (
        list(
            zip(
                plan["replica"],
                plan["ordinal"],
                plan["mechanism"],
                plan["target"],
                plan["at_us"],
            )
        )
        == flat
    )

    mech = part.table("mechanisms")
    rows = list(
        zip(
            mech["replica"],
            mech["mechanism"],
            mech["injected"],
            mech["attributed"],
        )
    )
    expected_mech = [
        (r.index, m, inj, dict(r.value.attributed_by_mechanism).get(m, 0))
        for r in outcome.results
        for m, inj in r.value.injected_by_mechanism
    ]
    assert rows == expected_mech

    for name, attr in (("alpha_state", "alpha_state"), ("trust_state", "trust_state")):
        table = part.table(name)
        stored = [
            (rep, fru, _bits(value))
            for rep, fru, value in zip(
                table["replica"], table["fru"], table["value"]
            )
        ]
        expected = [
            (r.index, fru, _bits(value))
            for r in outcome.results
            for fru, value in getattr(r.value, attr)
        ]
        assert stored == expected, name

    _assert_failures_match(outcome, part)


def _assert_failures_match(outcome: RunOutcome, part) -> None:
    failures = part.table("failures")
    assert list(
        zip(
            failures["replica"],
            failures["error_type"],
            failures["message"],
            failures["traceback"],
            failures["attempts"],
            failures["worker"],
        )
    ) == [
        (f.index, f.error_type, f.message, f.traceback, f.attempts, f.worker)
        for f in outcome.failures
    ]
    assert part.close["completed"] == len(outcome.results)
    assert part.close["failed"] == len(outcome.failures)
    assert part.complete == (not outcome.failures)
    assert part.header["replicas"] == len(outcome.results) + len(outcome.failures)


# -- store round-trip (property) -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(_result_batches())
def test_store_roundtrip_bit_equal(results):
    """write -> read reproduces every stored field bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        outcome, part = _write_and_read(results, Path(tmp))
        _assert_part_matches(outcome, part)


def test_store_roundtrip_nonfinite_state():
    """NaN, ±inf, -0.0 and denormal finals all survive the JSON trip."""
    nasty = (
        ("comp1", float("nan")),
        ("comp2", float("inf")),
        ("comp3", float("-inf")),
        ("channel:0", -0.0),
        ("sensor.C1", 5e-324),
    )
    outcome = CampaignReplicaOutcome(
        index=0,
        plan_events=(("seu", "comp1", 100),),
        injected_by_mechanism=(("seu", 1),),
        attributed_by_mechanism=(),
        faults_injected=1,
        faults_attributed=0,
        verdicts_emitted=2,
        events_simulated=10,
        alpha_state=nasty,
        trust_state=nasty,
    )
    results = [
        ReplicaResult(index=0, value=outcome, events=10, elapsed_s=0.1, worker="serial")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        run, part = _write_and_read(results, Path(tmp))
        _assert_part_matches(run, part)
        stored = part.table("alpha_state")["value"]
        assert [_bits(v) for v in stored] == [_bits(v) for _f, v in nasty]


def test_store_roundtrip_counters_and_histograms():
    """Per-replica counter/histogram snapshots round-trip canonically
    through the replica sidecar tables, int counters staying int."""
    snapshot = {
        "schema": 1,
        "counters": {"detector.symptoms{cls=a}": 3, "verdicts": 7.5},
        "histograms": {
            "provenance.stage_latency_us{cls=a,stage=x->y}": {
                "count": 2,
                "sum": 7.0,
                "min": 1.0,
                "max": 6.0,
                "buckets": {"1": 1, "8": 1},
            },
            "empty": {
                "count": 0,
                "sum": 0.0,
                "min": None,
                "max": None,
                "buckets": {},
            },
        },
    }
    outcome = CampaignReplicaOutcome(
        index=0,
        plan_events=(),
        injected_by_mechanism=(),
        attributed_by_mechanism=(),
        faults_injected=0,
        faults_attributed=0,
        verdicts_emitted=0,
        events_simulated=1,
        obs_counters=snapshot,
    )
    results = (
        ReplicaResult(index=0, value=outcome, events=1, elapsed_s=0.1, worker="serial"),
    )
    run = RunOutcome(
        value=SimpleNamespace(plan_digest="d" * 64, obs_counters=snapshot),
        results=results,
        metrics=None,
        failures=(),
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, run)
        part = CampaignStore(root).parts()[0]
        assert part.table("replicas")["counters_schema"] == [1]
        counters = part.table("replica_counters")
        assert list(
            zip(
                counters["replica"],
                counters["key"],
                counters["int_value"],
                counters["float_value"],
            )
        ) == [(0, "detector.symptoms{cls=a}", 3, None), (0, "verdicts", None, 7.5)]
        hists = part.table("replica_histograms")
        assert hists["replica"] == [0, 0]
        assert sorted(hists["key"]) == sorted(snapshot["histograms"])
        i = hists["key"].index("provenance.stage_latency_us{cls=a,stage=x->y}")
        assert hists["count"][i] == 2
        assert hists["sum"][i] == 7.0
        assert hists["buckets"][i] == '{"1":1,"8":1}'
        j = hists["key"].index("empty")
        assert hists["min"][j] is None and hists["max"][j] is None
        assert hists["buckets"][j] == "{}"


def test_invalid_campaign_id_rejected():
    with tempfile.TemporaryDirectory() as tmp:
        for bad in (".hidden", "a/b", "a b", "..", "c\x00d"):
            with pytest.raises(ConfigurationError, match="campaign id"):
                write_run(
                    Path(tmp),
                    Path(tmp) / "ledger.jsonl",
                    spec_digest="ab" * 32,
                    plan_digest=None,
                    campaign_id=bad,
                )
        assert list(Path(tmp).iterdir()) == []
