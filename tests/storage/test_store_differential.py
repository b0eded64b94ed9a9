"""Store-vs-reduce differential battery.

``repro query`` promises that aggregates computed from the *stored*
columns — NFF ratio, the per-mechanism confusion table, the provenance
stage-latency percentiles — are exactly equal to the same aggregates
derived from the in-memory :class:`CampaignSummary` reduce that wrote
the part.  This battery runs identical campaigns through the serial
path and the process pool (``workers=4``), stores each run, and fails
on any divergence between the store-backed query answer and the
in-memory answer.

The hypothesis block is ``derandomize=True``: a fixed, replayable fuzz
corpus drawn from the shared strategy space in
``tests/_differential.py``.  The report renderer is pinned
byte-for-byte by ``tests/data/golden_query_report.txt`` (regeneration
recipe in :func:`regenerate`).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import CampaignReplicaSpec
from repro.obs.provenance import histogram_quantile
from repro.runtime.runner import RunOptions
from repro.runtime.workloads import run_random_campaigns
from repro.storage import CampaignStore
from repro.storage.query import (
    STAGE_LATENCY_PREFIX,
    accuracy_drift,
    campaign_summaries,
    confusion,
    nff_ratio,
    render_query_report,
    stage_latency,
)
from repro.units import ms
from tests._differential import (
    FUZZ_CHUNK,
    FUZZ_EXPECTED_FAULTS,
    FUZZ_SEED,
    PROVENANCE_SPEC,
    fuzz_spec,
)

pytestmark = pytest.mark.differential

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_query_report.txt"

#: The golden corpus: three campaigns, fixed seeds, provenance on.
GOLDEN_SPEC = CampaignReplicaSpec(
    expected_faults=3.0,
    horizon_us=ms(250),
    obs_enabled=True,
    obs_provenance=True,
)
GOLDEN_CAMPAIGNS = (("c001", 101), ("c002", 102), ("c003", 103))


def _store_run(
    root,
    *,
    workers=1,
    seed=11,
    replicas=6,
    chunk=2,
    campaign="c1",
    spec=PROVENANCE_SPEC,
):
    return run_random_campaigns(
        replicas,
        root_seed=seed,
        spec=spec,
        options=RunOptions(
            workers=workers,
            chunk_size=chunk,
            store=str(root),
            campaign_id=campaign,
        ),
    )


def _expected_from_summary(summary) -> dict:
    """The in-memory reduce's answers, shaped like the query module's."""
    injected = summary.faults_injected
    attributed = summary.faults_attributed
    attributed_by = dict(summary.attributed_by_mechanism)
    return {
        "nff": {
            "faults_injected": injected,
            "faults_attributed": attributed,
            "nff_ratio": (injected - attributed) / injected if injected else 0.0,
        },
        "confusion": [
            {
                "mechanism": mechanism,
                "injected": count,
                "attributed": attributed_by.get(mechanism, 0),
                "accuracy": (
                    attributed_by.get(mechanism, 0) / count if count else 0.0
                ),
            }
            for mechanism, count in sorted(summary.injected_by_mechanism)
        ],
    }


def _expected_latency(summary) -> list[dict]:
    """Stage percentiles straight from the reduce's merged histograms."""
    rows = []
    histograms = (summary.obs_counters or {}).get("histograms", {})
    for key in sorted(histograms):
        if not key.startswith(STAGE_LATENCY_PREFIX):
            continue
        data = histograms[key]
        labels = dict(
            item.split("=", 1)
            for item in key[len(STAGE_LATENCY_PREFIX) : -1].split(",")
        )
        rows.append(
            {
                "cls": labels.get("cls", "?"),
                "stage": labels.get("stage", "?"),
                "count": data["count"],
                "p50_us": histogram_quantile(data, 0.5),
                "p90_us": histogram_quantile(data, 0.9),
                "mean_us": data["sum"] / data["count"] if data["count"] else 0.0,
            }
        )
    return rows


def _assert_store_equals_reduce(store: CampaignStore, summary) -> None:
    expected = _expected_from_summary(summary)
    assert nff_ratio(store) == expected["nff"]
    assert confusion(store) == expected["confusion"]
    assert stage_latency(store) == _expected_latency(summary)
    rows = campaign_summaries(store)
    assert len(rows) == 1
    assert rows[0]["faults_injected"] == summary.faults_injected
    assert rows[0]["faults_attributed"] == summary.faults_attributed
    assert rows[0]["events_simulated"] == summary.events_simulated
    assert rows[0]["verdicts_emitted"] == summary.verdicts_emitted
    assert rows[0]["replicas"] == summary.replicas
    assert rows[0]["complete"] is True


# -- deterministic battery: serial, pooled ---------------------------------


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "workers4"])
def test_store_aggregates_equal_reduce(tmp_path, workers):
    """Stored-column aggregates ≡ the in-memory reduce, per worker count."""
    outcome = _store_run(tmp_path, workers=workers)
    store = CampaignStore(tmp_path)
    _assert_store_equals_reduce(store, outcome.value)


def test_all_backends_store_identical_aggregates(tmp_path):
    """Serial and pooled stores of one campaign answer queries identically."""
    answers = []
    for name, kwargs in (
        ("serial", {}),
        ("workers4", {"workers": 4}),
    ):
        root = tmp_path / name
        _store_run(root, replicas=4, **kwargs)
        store = CampaignStore(root)
        answers.append(
            (nff_ratio(store), confusion(store), stage_latency(store))
        )
    assert answers[0] == answers[1]


def test_pooled_multi_chunk_part_equals_one_encode(tmp_path):
    """A pooled run's part holds one chunk line per chunk, in completion
    order; read back, its tables are the one encode of the run's sorted
    results, outside the volatile columns."""
    from repro.storage.codec import encode
    from repro.storage.schema import VOLATILE_COLUMNS

    outcome = _store_run(tmp_path, workers=2, replicas=12, chunk=2)
    (part,) = CampaignStore(tmp_path).parts()
    assert part.path.read_text(encoding="utf-8").count('"kind": "chunk"') == 6
    kind, tables = encode(outcome.results, 11, outcome.failures)
    assert part.kind == kind

    def stable(tables):
        return {
            name: {
                column: values
                for column, values in columns.items()
                if column not in VOLATILE_COLUMNS.get(name, ())
            }
            for name, columns in tables.items()
        }

    assert stable(part.tables) == stable(tables)


def test_accuracy_drift_across_stored_campaigns(tmp_path):
    """The cross-campaign question: drift from stored parts only."""
    summaries = {}
    for campaign, seed in GOLDEN_CAMPAIGNS:
        outcome = _store_run(
            tmp_path,
            seed=seed,
            replicas=3,
            campaign=campaign,
            spec=GOLDEN_SPEC,
        )
        summaries[campaign] = outcome.value
    rows = accuracy_drift(CampaignStore(tmp_path))
    assert [row["campaign"] for row in rows] == [c for c, _ in GOLDEN_CAMPAIGNS]
    previous = None
    for row in rows:
        summary = summaries[row["campaign"]]
        assert row["faults_injected"] == summary.faults_injected
        assert row["faults_attributed"] == summary.faults_attributed
        assert row["accuracy"] == summary.attribution_accuracy
        expected_drift = (
            0.0
            if previous is None
            else summary.attribution_accuracy - previous
        )
        assert row["drift"] == expected_drift
        previous = summary.attribution_accuracy


# -- fixed-corpus fuzz ------------------------------------------------------


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=FUZZ_SEED,
    replicas=st.integers(min_value=1, max_value=4),
    chunk=FUZZ_CHUNK,
    expected_faults=FUZZ_EXPECTED_FAULTS,
    obs=st.booleans(),
)
def test_fuzz_store_equals_reduce(
    tmp_path_factory, seed, replicas, chunk, expected_faults, obs
):
    """Random campaigns: stored aggregates always equal the reduce."""
    spec = fuzz_spec(expected_faults, obs)
    root = tmp_path_factory.mktemp("fuzz-store")
    outcome = _store_run(
        root, seed=seed, replicas=replicas, chunk=chunk, spec=spec
    )
    _assert_store_equals_reduce(CampaignStore(root), outcome.value)


# -- byte-stable golden report ---------------------------------------------


def _populate_golden(root) -> None:
    for campaign, seed in GOLDEN_CAMPAIGNS:
        _store_run(
            root,
            seed=seed,
            replicas=3,
            campaign=campaign,
            spec=GOLDEN_SPEC,
        )


def test_query_report_matches_golden(tmp_path):
    """``repro query report`` output is byte-stable across runs/hosts.

    The report deliberately contains no wall-clock values or paths, so
    the golden pins renderer *and* stored-aggregate semantics at once.
    """
    _populate_golden(tmp_path)
    report = render_query_report(CampaignStore(tmp_path))
    assert report == GOLDEN_PATH.read_text(encoding="utf-8")


def regenerate() -> None:
    """Regenerate the golden after a *deliberate* semantic change::

        PYTHONPATH=src python -c \\
          "from tests.storage.test_store_differential import regenerate; regenerate()"
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _populate_golden(Path(tmp))
        report = render_query_report(CampaignStore(tmp))
    GOLDEN_PATH.write_text(report, encoding="utf-8")
    print(f"regenerated {GOLDEN_PATH}: {len(report.splitlines())} lines")
