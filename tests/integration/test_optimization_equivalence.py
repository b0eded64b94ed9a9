"""Equivalence battery gating hot-path optimizations of the kernel.

Any change that makes the simulator faster must leave every observable
bit of its behaviour untouched: the cluster trace digest, the canonical
(wall-free) obs-trace digest, the event count and the verdict/action
sequences of a representative scenario set are pinned here against
goldens recorded on the pre-optimization kernel.

The battery covers three scenario families:

* the full 19-mechanism catalogue (``analysis.scenarios.CATALOGUE``),
* the A8 concurrent-fault pairs (two mechanisms superimposed), and
* A10-style stochastic random campaigns across several seeds.

Horizons are capped (equivalence needs code-path coverage, not verdict
convergence), so the battery stays affordable in tier-1.

To regenerate after a *deliberate* semantic change (never for a pure
optimization — an optimization that changes these digests is a bug):

    PYTHONPATH=src python -c \
      "from tests.integration.test_optimization_equivalence import regenerate; regenerate()"
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.analysis.scenarios import CATALOGUE
from repro.core.maintenance import determine_action
from repro.diagnosis.diag_das import DiagnosticService
from repro.faults.campaign import RandomCampaign
from repro.faults.injector import FaultInjector
from repro.obs.tracer import trace_digest
from repro.presets import figure10_cluster
from repro.units import seconds

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_equivalence.json"

#: Frozen battery parameters — never change without regenerating.
MECHANISM_SEED = 7
MECHANISM_HORIZON_US = seconds(1)
PAIR_SEED = 29
PAIR_HORIZON_US = seconds(1)
CAMPAIGN_SEEDS = (1, 2, 3)
CAMPAIGN_HORIZON_US = seconds(2)

#: A8 pairing table (mirrors benchmarks/bench_a8_concurrent.py): pairs
#: share no FRU and exclude cluster-wide mechanisms.
_PAIRABLE_FRU = (
    ("permanent-silent", "comp2"),
    ("permanent-timing", "comp1"),
    ("babbling-idiot", "comp4"),
    ("wearout", "comp3"),
    ("bohrbug", "comp3"),
    ("job-crash", "comp1"),
    ("sensor-stuck", "comp2"),
    ("queue-config", "comp2"),
)


def _pair_names() -> list[tuple[str, str]]:
    out = []
    for i, (a, fru_a) in enumerate(_PAIRABLE_FRU):
        for b, fru_b in _PAIRABLE_FRU[i + 1 :]:
            if fru_a != fru_b:
                out.append((a, b))
    return out


def _catalogue_by_name():
    return {s.name: s for s in CATALOGUE}


def _verdict_lines(service: DiagnosticService) -> list[str]:
    """Deterministic serialization of the verdict/action sequence."""
    lines = []
    for v in service.verdicts():
        action = determine_action(v).action.name
        lines.append(
            f"{v.fru}|{v.fault_class.value}|{v.persistence.value}"
            f"|{v.evidence}|{action}"
        )
    return lines


def _snapshot_run(build_and_run) -> dict:
    """Run a scenario under an obs context and snapshot its observables."""
    with obs.activated(obs.Observability()) as o:
        cluster, service = build_and_run()
    return {
        "cluster_digest": cluster.trace.digest(),
        "obs_digest": trace_digest(o.trace_dicts()),
        "events_processed": cluster.sim.events_processed,
        "trace_records": len(cluster.trace),
        "symptoms": service.detection.symptoms_emitted,
        "verdicts": _verdict_lines(service),
    }


# -- scenario family runners ---------------------------------------------------


def run_mechanism(name: str) -> dict:
    scenario = _catalogue_by_name()[name]

    def build_and_run():
        parts = figure10_cluster(seed=MECHANISM_SEED)
        cluster = parts.cluster
        service = DiagnosticService(
            cluster, collector="comp5", window_points=12_000
        )
        service.add_tmr_monitor(parts.tmr_monitor)
        scenario.inject(FaultInjector(cluster))
        cluster.run(min(scenario.duration_us, MECHANISM_HORIZON_US))
        return cluster, service

    return _snapshot_run(build_and_run)


def run_pair(a_name: str, b_name: str) -> dict:
    by_name = _catalogue_by_name()
    a, b = by_name[a_name], by_name[b_name]

    def build_and_run():
        parts = figure10_cluster(seed=PAIR_SEED)
        cluster = parts.cluster
        service = DiagnosticService(
            cluster, collector="comp5", window_points=12_000
        )
        service.add_tmr_monitor(parts.tmr_monitor)
        injector = FaultInjector(cluster)
        a.inject(injector)
        b.inject(injector)
        cluster.run(min(max(a.duration_us, b.duration_us), PAIR_HORIZON_US))
        return cluster, service

    return _snapshot_run(build_and_run)


def run_campaign(seed: int) -> dict:
    def build_and_run():
        parts = figure10_cluster(seed=seed)
        cluster = parts.cluster
        service = DiagnosticService(
            cluster, collector="comp5", window_points=12_000
        )
        injector = FaultInjector(cluster)
        campaign = RandomCampaign(
            injector,
            expected_faults=4.0,
            horizon_us=CAMPAIGN_HORIZON_US,
            sensor_jobs=("C1",),
            software_jobs=("A1", "A2", "B1", "C2"),
            config_ports=(("A3", "in"),),
        )
        campaign.run(np.random.default_rng(seed))
        cluster.run(CAMPAIGN_HORIZON_US)
        return cluster, service

    return _snapshot_run(build_and_run)


# -- golden management ---------------------------------------------------------


def _all_cases() -> dict:
    cases = {}
    for scenario in CATALOGUE:
        cases[f"mechanism:{scenario.name}"] = lambda n=scenario.name: (
            run_mechanism(n)
        )
    for a, b in _pair_names():
        cases[f"pair:{a}+{b}"] = lambda a=a, b=b: run_pair(a, b)
    for seed in CAMPAIGN_SEEDS:
        cases[f"campaign:seed{seed}"] = lambda s=seed: run_campaign(s)
    return cases


def regenerate() -> None:
    """Rewrite the golden snapshots from the current implementation."""
    goldens = {
        "meta": {
            "mechanism_seed": MECHANISM_SEED,
            "mechanism_horizon_us": MECHANISM_HORIZON_US,
            "pair_seed": PAIR_SEED,
            "pair_horizon_us": PAIR_HORIZON_US,
            "campaign_seeds": list(CAMPAIGN_SEEDS),
            "campaign_horizon_us": CAMPAIGN_HORIZON_US,
        },
        "cases": {},
    }
    for case_id, run in sorted(_all_cases().items()):
        goldens["cases"][case_id] = run()
        print(f"recorded {case_id}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"regenerated {GOLDEN_PATH}: {len(goldens['cases'])} cases")


def _golden_cases() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


# -- the battery ---------------------------------------------------------------


@pytest.mark.parametrize("name", [s.name for s in CATALOGUE])
def test_mechanism_equivalence(name):
    """Each of the 19 catalogue mechanisms reproduces its golden digests."""
    golden = _golden_cases()[f"mechanism:{name}"]
    snapshot = run_mechanism(name)
    # Readable fields first, digests last as the exhaustive check.
    assert snapshot["events_processed"] == golden["events_processed"]
    assert snapshot["symptoms"] == golden["symptoms"]
    assert snapshot["verdicts"] == golden["verdicts"]
    assert snapshot["cluster_digest"] == golden["cluster_digest"]
    assert snapshot["obs_digest"] == golden["obs_digest"]


@pytest.mark.parametrize("pair", _pair_names(), ids=lambda p: f"{p[0]}+{p[1]}")
def test_pair_equivalence(pair):
    """Concurrent-fault pairs (A8) reproduce their golden digests."""
    golden = _golden_cases()[f"pair:{pair[0]}+{pair[1]}"]
    snapshot = run_pair(*pair)
    assert snapshot["events_processed"] == golden["events_processed"]
    assert snapshot["symptoms"] == golden["symptoms"]
    assert snapshot["verdicts"] == golden["verdicts"]
    assert snapshot["cluster_digest"] == golden["cluster_digest"]
    assert snapshot["obs_digest"] == golden["obs_digest"]


@pytest.mark.parametrize("seed", CAMPAIGN_SEEDS)
def test_campaign_equivalence(seed):
    """A10-style random campaigns reproduce their golden digests."""
    golden = _golden_cases()[f"campaign:seed{seed}"]
    snapshot = run_campaign(seed)
    assert snapshot["events_processed"] == golden["events_processed"]
    assert snapshot["symptoms"] == golden["symptoms"]
    assert snapshot["verdicts"] == golden["verdicts"]
    assert snapshot["cluster_digest"] == golden["cluster_digest"]
    assert snapshot["obs_digest"] == golden["obs_digest"]


def test_golden_covers_all_cases():
    """The golden file and the battery enumerate the same scenario set."""
    assert set(_golden_cases()) == set(_all_cases())
