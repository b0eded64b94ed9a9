"""Round-trip properties of the one result codec, over every value kind.

:func:`repro.storage.codec.encode` → JSON text → schema check →
:func:`repro.storage.codec.decode` must give back *equal* replica
results with *equal types*: Python's ``3 == 3.0`` and ``(1,) != [1]``
asymmetry means plain equality alone would let an ``int`` counter come
back as a ``float`` unnoticed, so every value is also compared through
:func:`_typed`, which tags each leaf with its type (and compares floats
by bit pattern, so ``0.0`` and ``-0.0`` differ).  A future
tuple-valued trace attribute or non-string key fails here loudly.
"""

from __future__ import annotations

import dataclasses
import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fleet_sim import VehicleOutcome
from repro.analysis.scenarios import CatalogueCellOutcome
from repro.core.fault_model import FaultClass
from repro.core.maintenance import MaintenanceAction
from repro.faults.campaign import CampaignReplicaOutcome
from repro.runtime.runner import ReplicaResult
from repro.storage.codec import decode, encode
from repro.storage.schema import check_table, tables_for_kind

ROOT_SEED = 5


def _typed(value):
    """``value`` with every leaf tagged by its exact type."""
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            {f.name: _typed(getattr(value, f.name)) for f in dataclasses.fields(value)},
        )
    if isinstance(value, dict):
        return ("dict", {key: _typed(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _through_disk(kind, tables):
    """What a reader gets back: JSON text, parsed, schema-checked."""
    text = json.dumps(tables, allow_nan=True)
    parsed = json.loads(text)
    assert sorted(parsed) == sorted(tables_for_kind(kind))
    return {name: check_table(name, cols, "test") for name, cols in parsed.items()}


def _assert_round_trip(values) -> None:
    results = [
        ReplicaResult(
            index=v.index,
            value=v,
            events=v.events_simulated,
            elapsed_s=0.25 * v.index,
            worker=f"pid-{100 + v.index}",
        )
        for v in values
    ]
    kind, tables = encode(results, ROOT_SEED)
    decoded = decode(kind, _through_disk(kind, tables), ROOT_SEED)
    expected = {r.index: r for r in results}
    assert decoded == expected
    assert _typed(decoded) == _typed(expected)


# -- strategies ------------------------------------------------------------

_names = st.text(alphabet="abcdefghij.-{}=,", min_size=1, max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# NaN finals are covered bit-exactly by test_schema_roundtrip.py; here
# they would defeat the plain equality assertion (nan != nan).
_state_value = st.floats(allow_nan=False, allow_infinity=True, width=64)
_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**53), 2**53), _finite, _names
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_names, inner, max_size=3),
    ),
    max_leaves=6,
)

_histogram = st.builds(
    lambda count, total, lo, hi, buckets: {
        "count": count,
        "sum": total,
        "min": lo,
        "max": hi,
        "buckets": {str(b): n for b, n in sorted(buckets.items())},
    },
    st.integers(0, 50),
    _finite,
    st.none() | _finite,
    st.none() | _finite,
    st.dictionaries(st.integers(0, 40), st.integers(1, 9), max_size=4),
)

_snapshot = st.builds(
    lambda counters, histograms: {
        "schema": 1,
        "counters": dict(sorted(counters.items())),
        "histograms": dict(sorted(histograms.items())),
    },
    st.dictionaries(_names, st.integers(0, 10**6) | _finite, max_size=4),
    st.dictionaries(_names, _histogram, max_size=3),
)


@st.composite
def _campaign_values(draw, index: int) -> CampaignReplicaOutcome:
    plan = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(("seu", "connector", "sensor")),
                    st.sampled_from(("component:comp1", "job:A1")),
                    st.integers(0, 10**9),
                ),
                max_size=5,
            )
        )
    )
    state = st.lists(
        st.tuples(_names, _state_value), max_size=3, unique_by=lambda kv: kv[0]
    ).map(lambda kvs: tuple(sorted(kvs)))
    return CampaignReplicaOutcome(
        index=index,
        plan_events=plan,
        attributed=tuple(draw(st.booleans()) for _ in plan),
        verdicts_emitted=draw(st.integers(0, 30)),
        events_simulated=draw(st.integers(0, 10**6)),
        obs_counters=draw(st.none() | _snapshot),
        obs_trace=tuple(
            draw(
                st.lists(
                    st.dictionaries(_names, _json_value, max_size=4).map(
                        lambda record: {**record, "replica": index}
                    ),
                    max_size=3,
                )
            )
        ),
        alpha_state=draw(state),
        trust_state=draw(state),
    )


@st.composite
def _fleet_values(draw, index: int) -> VehicleOutcome:
    return VehicleOutcome(
        index=index,
        counts=tuple(draw(st.lists(st.integers(0, 99), min_size=5, max_size=5))),
        with_fault=draw(st.booleans()),
        detected=draw(st.booleans()),
        events_simulated=draw(st.integers(0, 10**6)),
    )


_actions = st.lists(
    st.tuples(st.sampled_from(list(MaintenanceAction)), st.booleans()), max_size=3
).map(tuple)


@st.composite
def _catalogue_values(draw, index: int) -> CatalogueCellOutcome:
    return CatalogueCellOutcome(
        index=index,
        scenario=draw(_names),
        seed=draw(st.integers(0, 2**31)),
        truth=draw(st.sampled_from(list(FaultClass))),
        predicted=draw(st.none() | st.sampled_from(list(FaultClass))),
        spurious=draw(st.integers(0, 9)),
        integrated_actions=draw(_actions),
        obd_actions=draw(_actions),
        events_simulated=draw(st.integers(0, 10**6)),
    )


def _batch(values):
    """1–4 values of one kind at sparse, increasing replica indices."""
    return st.lists(
        st.integers(0, 30), min_size=1, max_size=4, unique=True
    ).flatmap(lambda idx: st.tuples(*(values(i) for i in sorted(idx))))


# -- properties ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_batch(_campaign_values))
def test_campaign_values_round_trip(values):
    _assert_round_trip(values)


@settings(max_examples=30, deadline=None)
@given(_batch(_fleet_values))
def test_fleet_values_round_trip(values):
    _assert_round_trip(values)


@settings(max_examples=30, deadline=None)
@given(_batch(_catalogue_values))
def test_catalogue_values_round_trip(values):
    _assert_round_trip(values)


def test_absent_observability_stays_absent():
    """A None snapshot stays None (not {}), an empty trace stays ()."""
    bare = CampaignReplicaOutcome(
        index=0,
        plan_events=(),
        attributed=(),
        verdicts_emitted=0,
        events_simulated=3,
    )
    empty = dataclasses.replace(
        bare, index=1, obs_counters={"schema": 1, "counters": {}, "histograms": {}}
    )
    _assert_round_trip([bare, empty])
    kind, tables = encode(
        [ReplicaResult(0, bare, 3, 0.0, "serial")], ROOT_SEED
    )
    value = decode(kind, tables, ROOT_SEED)[0].value
    assert value.obs_counters is None
    assert value.obs_trace == () and type(value.obs_trace) is tuple


def test_simulated_outcomes_round_trip():
    """Real traced, provenance-enabled replicas survive the codec with
    their types: a simulator change that puts a tuple or a non-string
    key into a trace record or counter snapshot fails here."""
    from tests._differential import FULL_OBS_SPEC, run_campaign

    outcome = run_campaign(replicas=2, spec=FULL_OBS_SPEC)
    assert all(r.value.obs_trace and r.value.obs_counters for r in outcome.results)
    _assert_round_trip([r.value for r in outcome.results])
