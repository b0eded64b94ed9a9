"""Golden regression for assessment epochs over a *sliding* symptom window.

The A10 campaign configuration keeps its whole horizon in the window, so
the 46 goldens and the e2e benchmark never evict a symptom.  This battery
runs the A10 fault mix (root seed 1, replicas 0-7, 4 s, 4 expected
faults) with ``window_points=1_000``: the window starts to slide after
one second and keeps sliding for the remaining three.  Per replica it
pins the sampled plan, a digest of every epoch's triggers and verdicts,
and the final alpha-count and trust states.

To regenerate after a *deliberate* semantic change (never for a pure
optimization):

    PYTHONPATH=src python -c \
      "from tests.integration.test_sliding_window_golden import regenerate; regenerate()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.diagnosis.diag_das import DiagnosticService
from repro.faults.campaign import RandomCampaign
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster
from repro.runtime.runner import ReplicaTask
from repro.units import seconds

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_sliding_window.json"

ROOT_SEED = 1
REPLICAS = range(8)
HORIZON_US = seconds(4)
WINDOW_POINTS = 1_000


def _epoch_digest(result) -> str:
    """Short digest of one epoch's triggers and verdicts, field by field."""
    fields = [result.now_us, result.new_symptoms]
    for t in result.triggers:
        fields.append(
            (
                t.ona,
                t.fault_class.value,
                str(t.subject),
                t.time_us,
                repr(t.confidence),
                t.evidence,
                t.pattern.name if t.pattern is not None else None,
                t.detail,
            )
        )
    for v in result.verdicts:
        fields.append(
            (
                str(v.fru),
                v.fault_class.value,
                repr(v.confidence),
                v.evidence,
                v.persistence.value,
                v.detail,
            )
        )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def run_replica(index: int) -> dict:
    task = ReplicaTask(index, ROOT_SEED)
    parts = figure10_cluster(seed=task.state_seed())
    cluster = parts.cluster
    try:
        service = DiagnosticService(
            cluster, collector="comp5", window_points=WINDOW_POINTS
        )
        campaign = RandomCampaign(
            FaultInjector(cluster),
            expected_faults=4.0,
            horizon_us=HORIZON_US,
            sensor_jobs=("C1",),
            software_jobs=("A1", "A2", "B1", "C2"),
            config_ports=(("A3", "in"),),
        )
        plan = campaign.run(task.rng())
        cluster.run(HORIZON_US)
        assessment = service.assessment
        alpha = {
            name: [
                repr(ac.score),
                repr(ac.peak_score),
                ac.failures_seen,
                ac.observations,
                ac.first_crossing_at_us,
            ]
            for name, ac in sorted(assessment.classifier.alpha._counts.items())
        }
        trust = {
            name: [repr(level.value), level.epochs]
            for name, level in sorted(assessment.trust._levels.items())
        }
        return {
            "plan": [list(event) for event in plan.events],
            "epochs": [_epoch_digest(r) for r in service.epoch_results],
            "triggers": len(assessment.trigger_log),
            "symptoms": assessment.symptoms_total,
            "alpha": alpha,
            "trust": trust,
        }
    finally:
        cluster.close()


def regenerate() -> None:
    """Rewrite the golden snapshots from the current implementation."""
    goldens = {
        "meta": {
            "root_seed": ROOT_SEED,
            "replicas": len(REPLICAS),
            "horizon_us": HORIZON_US,
            "window_points": WINDOW_POINTS,
        },
        "replicas": {str(i): run_replica(i) for i in REPLICAS},
    }
    GOLDEN_PATH.write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"regenerated {GOLDEN_PATH}")


@pytest.mark.parametrize("index", list(REPLICAS))
def test_sliding_window_replica_matches_golden(index):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["replicas"][
        str(index)
    ]
    got = run_replica(index)
    assert got["plan"] == golden["plan"]
    assert got["symptoms"] == golden["symptoms"]
    assert len(got["epochs"]) == len(golden["epochs"])
    for epoch, (mine, want) in enumerate(zip(got["epochs"], golden["epochs"])):
        assert mine == want, f"first differing epoch: {epoch}"
    assert got["triggers"] == golden["triggers"]
    assert got["alpha"] == golden["alpha"]
    assert got["trust"] == golden["trust"]


def test_the_window_slides_for_most_of_the_run():
    """The battery is only meaningful if most epochs can evict."""
    time_base = figure10_cluster(seed=ROOT_SEED).cluster.time_base
    assert time_base.lattice_point(HORIZON_US) >= 4 * WINDOW_POINTS
