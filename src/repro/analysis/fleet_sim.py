"""End-to-end fleet simulation: from on-board diagnosis to OEM analysis.

This closes the software-fault path of §V-C: every vehicle of a fleet runs
the full integrated diagnostic architecture; some vehicles carry a latent
Heisenbug in one of their non safety-critical jobs (which job follows the
20-80 distribution across the fleet); the on-board diagnoses produce
job-inherent-software verdicts that are "forwarded to the OEM"; the OEM
correlates them per job type and identifies the faulty modules.

Unlike :func:`repro.core.fleet.synthesize_fleet` (which draws failure
*counts* from the published distribution shape), every report here is the
outcome of an actual simulated vehicle with the full detection →
dissemination → assessment pipeline.

Every vehicle is one replica of the parallel runtime: its fault lottery,
job choice and cluster phase noise all derive from
``SeedSequence(root_seed, spawn_key=(vehicle,))``, so a fleet simulated
with ``workers=8`` is bit-identical to the same fleet simulated serially
(see ``docs/parallel_runtime.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault_model import FaultClass
from repro.core.fleet import FleetReport, pareto_rates
from repro.diagnosis.diag_das import DiagnosticService
from repro.errors import AnalysisError
from repro.faults.injector import FaultInjector
from repro.presets import figure10_cluster
from repro.runtime.metrics import RunMetrics
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask, RunOptions
from repro.units import ms, seconds

#: Non safety-critical jobs of the reference vehicle that can carry a
#: latent software design fault (§III-E assumes safety-critical jobs are
#: certified free of design faults).
CANDIDATE_JOBS: tuple[str, ...] = ("A1", "A2", "A3", "B1", "C2")


@dataclass(frozen=True, slots=True)
class VehicleSpec:
    """Per-vehicle simulation parameters (picklable, shared by all)."""

    fault_probability: float = 0.6
    manifest_prob: float = 0.04
    drive_duration_us: int = seconds(2)
    hot_fraction: float = 0.2
    hot_share: float = 0.8


@dataclass(frozen=True, slots=True)
class VehicleOutcome:
    """What one simulated vehicle reported (plain data, picklable)."""

    index: int
    counts: tuple[int, ...]  # field reports per candidate job
    with_fault: bool
    detected: bool
    events_simulated: int


@dataclass(frozen=True, slots=True)
class DiagnosedFleetResult:
    """Outcome of a simulated, diagnosed fleet."""

    report: FleetReport
    vehicles_simulated: int
    vehicles_with_fault: int
    vehicles_detected: int
    metrics: RunMetrics | None = None

    @property
    def detection_rate(self) -> float:
        if self.vehicles_with_fault == 0:
            return 0.0
        return self.vehicles_detected / self.vehicles_with_fault


def simulate_vehicle(replica: ReplicaTask) -> VehicleOutcome:
    """Simulate one vehicle end-to-end (runner task, spawn-picklable).

    The vehicle's private stream decides the fault lottery and the faulty
    job; the cluster's internal named streams are seeded from the same
    stream's state seed — no draw depends on any other vehicle.
    """
    spec: VehicleSpec = replica.spec
    rng = replica.rng()
    rates, _hot_mask = pareto_rates(
        len(CANDIDATE_JOBS), 1.0, spec.hot_fraction, spec.hot_share
    )
    probabilities = rates / rates.sum()
    faulty_job: str | None = None
    if rng.random() < spec.fault_probability:
        faulty_job = CANDIDATE_JOBS[
            int(rng.choice(len(CANDIDATE_JOBS), p=probabilities))
        ]
    parts = figure10_cluster(seed=replica.state_seed())
    service = DiagnosticService(parts.cluster, collector="comp5")
    if faulty_job is not None:
        FaultInjector(parts.cluster).inject_software_heisenbug(
            faulty_job, ms(100), manifest_prob=spec.manifest_prob
        )
    parts.cluster.run(spec.drive_duration_us)
    counts = [0] * len(CANDIDATE_JOBS)
    detected = False
    for verdict in service.verdicts():
        if verdict.fault_class is not FaultClass.JOB_INHERENT_SOFTWARE:
            continue
        job = verdict.fru.name
        if job in CANDIDATE_JOBS:
            counts[CANDIDATE_JOBS.index(job)] += 1
            if job == faulty_job:
                detected = True
    return VehicleOutcome(
        index=replica.index,
        counts=tuple(counts),
        with_fault=faulty_job is not None,
        detected=detected,
        events_simulated=parts.cluster.sim.events_processed,
    )


def reduce_fleet(
    values: list[VehicleOutcome], spec: VehicleSpec
) -> DiagnosedFleetResult:
    """Merge vehicle outcomes (already index-sorted) into a fleet result."""
    counts = np.asarray([v.counts for v in values], dtype=np.int64)
    _rates, hot_mask = pareto_rates(
        len(CANDIDATE_JOBS), 1.0, spec.hot_fraction, spec.hot_share
    )
    hot_types = frozenset(
        name for name, is_hot in zip(CANDIDATE_JOBS, hot_mask) if is_hot
    )
    report = FleetReport(
        job_types=CANDIDATE_JOBS, counts=counts, hot_types=hot_types
    )
    return DiagnosedFleetResult(
        report=report,
        vehicles_simulated=len(values),
        vehicles_with_fault=sum(v.with_fault for v in values),
        vehicles_detected=sum(v.detected for v in values),
    )


def simulate_diagnosed_fleet(
    n_vehicles: int,
    seed: int = 0,
    fault_probability: float = 0.6,
    manifest_prob: float = 0.04,
    drive_duration_us: int = seconds(2),
    hot_fraction: float = 0.2,
    hot_share: float = 0.8,
    *,
    options: RunOptions = RunOptions(),
) -> DiagnosedFleetResult:
    """Simulate ``n_vehicles`` full vehicles and collect OEM field data.

    Each vehicle, with probability ``fault_probability``, ships with a
    Heisenbug in one candidate job; which job is drawn from the 20-80
    distribution over job types.  The vehicle then drives
    ``drive_duration_us`` with the integrated diagnosis running; every
    job-inherent-software verdict becomes one field report.

    ``options.workers > 1`` fans the vehicles out over a spawn-safe
    process pool; the result is bit-identical to one worker for the same
    ``seed``.
    """
    if n_vehicles < 1:
        raise AnalysisError("need at least one vehicle")
    if not 0.0 <= fault_probability <= 1.0:
        raise AnalysisError("fault_probability must be in [0, 1]")
    # pareto_rates validates the fractions; fail fast before spawning.
    pareto_rates(len(CANDIDATE_JOBS), 1.0, hot_fraction, hot_share)
    spec = VehicleSpec(
        fault_probability=fault_probability,
        manifest_prob=manifest_prob,
        drive_duration_us=drive_duration_us,
        hot_fraction=hot_fraction,
        hot_share=hot_share,
    )
    runner = ParallelCampaignRunner(
        simulate_vehicle,
        lambda values: reduce_fleet(values, spec),
        options=options,
    )
    outcome = runner.run([spec] * n_vehicles, root_seed=seed)
    if not outcome.results:
        raise AnalysisError(
            "no vehicles completed: "
            f"{outcome.completeness()['failures']!r}"
        )
    result: DiagnosedFleetResult = outcome.value
    return DiagnosedFleetResult(
        report=result.report,
        vehicles_simulated=result.vehicles_simulated,
        vehicles_with_fault=result.vehicles_with_fault,
        vehicles_detected=result.vehicles_detected,
        metrics=outcome.metrics,
    )
