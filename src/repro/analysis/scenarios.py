"""Standard injection scenarios and campaign runners.

The benchmark harness and the examples share one catalogue of injection
scenarios on the Fig. 10 reference cluster, one per mechanism of the fault
model, so that the Fig. 4/5/6/11 artefacts are produced from the same
well-defined campaigns.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.metrics import (
    CampaignScore,
    ConfusionMatrix,
    removal_justified,
    score_campaign,
)
from repro.core.classification import Verdict
from repro.core.fault_model import FaultClass, FaultDescriptor
from repro.core.maintenance import (
    CostModel,
    MaintenanceAction,
    determine_action,
)
from repro.diagnosis.baseline_obd import ObdBaseline
from repro.diagnosis.diag_das import DiagnosticService
from repro.errors import AnalysisError
from repro.faults.injector import FaultInjector
from repro.presets import Figure10Parts, figure10_cluster
from repro.runtime.metrics import RunMetrics
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask, RunOptions
from repro.units import ms, seconds


@dataclass(frozen=True, slots=True)
class Scenario:
    """One named injection scenario on the Fig. 10 cluster."""

    name: str
    inject: Callable[[FaultInjector], FaultDescriptor]
    duration_us: int
    expected_class: FaultClass


def _scn(name, inject, duration_us, expected_class):
    return Scenario(name, inject, duration_us, expected_class)


#: The full catalogue: one scenario per fault mechanism of the model.
CATALOGUE: tuple[Scenario, ...] = (
    _scn(
        "permanent-silent",
        lambda inj: inj.inject_permanent_internal("comp2", ms(200)),
        seconds(2),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "permanent-corrupt",
        lambda inj: inj.inject_permanent_internal("comp2", ms(200), mode="corrupt"),
        seconds(2),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "permanent-timing",
        lambda inj: inj.inject_permanent_internal(
            "comp1", ms(200), mode="timing", timing_offset_us=60.0
        ),
        seconds(2),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "babbling-idiot",
        lambda inj: inj.inject_permanent_internal("comp4", ms(200), mode="babbling"),
        seconds(2),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "recurring-transients",
        lambda inj: inj.inject_recurring_transients(
            "comp1", ms(100), seconds(4), fit=1.5e12, min_occurrences=6
        ),
        seconds(4),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "wearout",
        # Accelerated-life trajectory: the transient rate rises 30x over
        # ten simulated seconds, so the rising-frequency signature is
        # unmistakable against Poisson noise.
        lambda inj: inj.inject_wearout(
            "comp3",
            onset_us=ms(500),
            full_us=seconds(9),
            horizon_us=seconds(10),
            base_fit=8e11,
            multiplier=30,
        ),
        seconds(10),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "quartz-degradation",
        lambda inj: inj.inject_quartz_degradation("comp1", ms(200)),
        seconds(4),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "power-brownout",
        lambda inj: inj.inject_power_brownout(
            "comp2", ms(200), duration_us=seconds(1)
        ),
        seconds(3),
        FaultClass.COMPONENT_INTERNAL,
    ),
    _scn(
        "emi-burst",
        lambda inj: inj.inject_emi_burst(ms(300), center=(0.5, 0.0), radius=1.0),
        seconds(2),
        FaultClass.COMPONENT_EXTERNAL,
    ),
    _scn(
        "seu",
        lambda inj: inj.inject_seu("comp3", ms(300)),
        seconds(2),
        FaultClass.COMPONENT_EXTERNAL,
    ),
    _scn(
        "connector",
        lambda inj: inj.inject_connector_fault(
            "comp3", 0, omission_prob=0.9, at_us=ms(100)
        ),
        seconds(2),
        FaultClass.COMPONENT_BORDERLINE,
    ),
    _scn(
        "loom-wiring",
        lambda inj: inj.inject_wiring_fault(1, omission_prob=0.5, at_us=ms(100)),
        seconds(2),
        FaultClass.COMPONENT_BORDERLINE,
    ),
    _scn(
        "bohrbug",
        lambda inj: inj.inject_software_bohrbug("A2", ms(200)),
        seconds(2),
        FaultClass.JOB_INHERENT_SOFTWARE,
    ),
    _scn(
        "heisenbug",
        lambda inj: inj.inject_software_heisenbug("A2", ms(100), manifest_prob=0.05),
        seconds(3),
        FaultClass.JOB_INHERENT_SOFTWARE,
    ),
    _scn(
        "job-crash",
        lambda inj: inj.inject_job_crash("B1", ms(200)),
        seconds(2),
        FaultClass.JOB_INHERENT_SOFTWARE,
    ),
    _scn(
        "sensor-stuck",
        lambda inj: inj.inject_sensor_fault(
            "C1", ms(200), mode="stuck", stuck_value=25.0
        ),
        seconds(2),
        FaultClass.JOB_INHERENT_TRANSDUCER,
    ),
    _scn(
        "sensor-drift",
        lambda inj: inj.inject_sensor_fault(
            "C1", ms(200), mode="drift", drift_per_s=30.0
        ),
        seconds(3),
        FaultClass.JOB_INHERENT_TRANSDUCER,
    ),
    _scn(
        "queue-config",
        lambda inj: inj.inject_queue_config_fault("A3", "in", capacity=1, at_us=ms(100)),
        seconds(2),
        FaultClass.JOB_BORDERLINE,
    ),
    _scn(
        "vn-budget-config",
        lambda inj: inj.inject_vn_budget_config_fault("vn-C", slot_budget=1, at_us=ms(100)),
        seconds(2),
        FaultClass.JOB_BORDERLINE,
    ),
)


def component_level_scenarios() -> tuple[Scenario, ...]:
    """Scenarios whose true class is a component-level class (Fig. 4)."""
    return tuple(s for s in CATALOGUE if s.expected_class.is_component_level)


def job_level_scenarios() -> tuple[Scenario, ...]:
    """Scenarios whose true class is a job-level class (Fig. 5)."""
    return tuple(s for s in CATALOGUE if s.expected_class.is_job_level)


def predicted_class_for(
    descriptor: FaultDescriptor,
    verdicts: list[Verdict],
    job_location: dict[str, str],
) -> FaultClass | None:
    """The diagnosis' attribution for one injected fault.

    Prefers a verdict on the fault's own FRU.  For job-level faults a
    *component-internal* verdict on the hosting component counts as the
    attribution (a job fault misdiagnosed as hardware is a confusion, not
    a miss); unrelated external/borderline verdicts on the host — e.g. an
    EMI burst hitting the same component — do not.
    """
    target = str(descriptor.fru)
    component_target = (
        f"component:{job_location.get(descriptor.fru.name, '?')}"
    )
    best: Verdict | None = None
    for verdict in verdicts:
        if str(verdict.fru) == target:
            return verdict.fault_class
        if (
            str(verdict.fru) == component_target
            and verdict.fault_class is FaultClass.COMPONENT_INTERNAL
            and best is None
        ):
            best = verdict
    if best is not None:
        return best.fault_class
    # External disturbances have no true internal FRU: the descriptor
    # carries one representative victim, but an external verdict on any
    # component covers the fault (the maintenance action — none — is
    # identical for every victim).
    if descriptor.fault_class is FaultClass.COMPONENT_EXTERNAL and any(
        v.fault_class is FaultClass.COMPONENT_EXTERNAL for v in verdicts
    ):
        return FaultClass.COMPONENT_EXTERNAL
    return None


@dataclass(slots=True)
class ScenarioRun:
    """Everything a single scenario execution produced."""

    scenario: Scenario
    seed: int
    parts: Figure10Parts
    service: DiagnosticService
    injector: FaultInjector
    obd: ObdBaseline | None
    descriptor: FaultDescriptor
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def predicted_class(self) -> FaultClass | None:
        return predicted_class_for(
            self.descriptor, self.verdicts, self.parts.cluster.job_location
        )


def run_scenario(
    scenario: Scenario, seed: int = 7, with_obd: bool = True
) -> ScenarioRun:
    """Execute one scenario end-to-end and collect the outputs.

    ``with_obd=False`` leaves the OBD baseline out (``run.obd`` is None):
    it only watches, so the diagnosis is the same without its per-slot
    cost.  The returned run holds the live cluster and services, so
    callers can inspect them; it is never closed here.
    """
    return _run_on(figure10_cluster(seed=seed), scenario, seed, with_obd)


def _run_on(
    parts: Figure10Parts, scenario: Scenario, seed: int, with_obd: bool = True
) -> ScenarioRun:
    """Execute ``scenario`` on the freshly built ``parts``."""
    cluster = parts.cluster
    # Window sized to cover the longest scenario entirely, so slow trends
    # (wearout) are measured over the full history.
    service = DiagnosticService(cluster, collector="comp5", window_points=12_000)
    service.add_tmr_monitor(parts.tmr_monitor)
    obd = ObdBaseline(cluster) if with_obd else None
    injector = FaultInjector(cluster)
    descriptor = scenario.inject(injector)
    cluster.run(scenario.duration_us)
    return ScenarioRun(
        scenario=scenario,
        seed=seed,
        parts=parts,
        service=service,
        injector=injector,
        obd=obd,
        descriptor=descriptor,
        verdicts=list(service.verdicts()),
    )


@dataclass(frozen=True, slots=True)
class CampaignResult:
    """Aggregate of a multi-scenario, multi-seed campaign."""

    runs: tuple[ScenarioRun, ...]
    score: CampaignScore
    integrated_cost: CostModel
    obd_cost: CostModel
    metrics: RunMetrics | None = None


@dataclass(frozen=True, slots=True)
class CatalogueCellOutcome:
    """Plain-data outcome of one (scenario, seed) campaign cell.

    Everything the campaign aggregate needs, picklable, so cells can be
    computed in worker processes and reduced deterministically.
    """

    index: int
    scenario: str
    seed: int
    truth: FaultClass
    predicted: FaultClass | None
    spurious: int
    integrated_actions: tuple[tuple[MaintenanceAction, bool], ...]
    obd_actions: tuple[tuple[MaintenanceAction, bool], ...]
    events_simulated: int


def _cell_from_run(run: ScenarioRun, index: int) -> CatalogueCellOutcome:
    """Distil one executed scenario into its campaign-cell outcome."""
    integrated = tuple(
        (rec.action, removal_justified(rec, [run.descriptor]))
        for rec in (determine_action(v) for v in run.verdicts)
    )
    obd = tuple(
        (rec.action, removal_justified(rec, [run.descriptor]))
        for rec in run.obd.recommendations()
    )
    score = score_campaign(
        [run.descriptor],
        run.verdicts,
        job_locations=run.parts.cluster.job_location,
    )
    return CatalogueCellOutcome(
        index=index,
        scenario=run.scenario.name,
        seed=run.seed,
        truth=run.descriptor.fault_class,
        predicted=run.predicted_class,
        spurious=score.spurious_verdicts,
        integrated_actions=integrated,
        obd_actions=obd,
        events_simulated=run.parts.cluster.sim.events_processed,
    )


def run_catalogue_cell(replica: ReplicaTask) -> CatalogueCellOutcome:
    """Runner task: execute one catalogue (scenario, seed) cell.

    The spec is ``(scenario_name, seed)``; the scenario is resolved from
    :data:`CATALOGUE` inside the worker (scenario objects carry lambdas
    and cannot cross a spawn boundary).  Unlike :func:`run_scenario`,
    the cell's cluster is closed once the cell is built.
    """
    scenario_name, seed = replica.spec
    by_name = {s.name: s for s in CATALOGUE}
    parts = figure10_cluster(seed=seed)
    try:
        run = _run_on(parts, by_name[scenario_name], seed)
        return _cell_from_run(run, replica.index)
    finally:
        parts.cluster.close()


def reduce_catalogue_cells(
    cells: list[CatalogueCellOutcome],
) -> CampaignResult:
    """Deterministic reduce: cells in index order -> campaign aggregate.

    Each run is an isolated cluster: score per cell, merge the matrices
    (pooling verdicts across runs would conflate FRUs of different
    clusters that happen to share a name).
    """
    matrix = ConfusionMatrix()
    matched = missed = spurious = 0
    integrated_cost = CostModel()
    obd_cost = CostModel()
    for cell in cells:
        for action, justified in cell.integrated_actions:
            integrated_cost.record(
                action, fault_present_in_removed_fru=justified
            )
        for action, justified in cell.obd_actions:
            obd_cost.record(action, fault_present_in_removed_fru=justified)
        matrix.add(cell.truth, cell.predicted)
        if cell.predicted is None:
            missed += 1
        else:
            matched += 1
        spurious += cell.spurious
    return CampaignResult(
        runs=(),
        score=CampaignScore(
            matrix=matrix,
            matched=matched,
            missed=missed,
            spurious_verdicts=spurious,
        ),
        integrated_cost=integrated_cost,
        obd_cost=obd_cost,
    )


def run_campaign(
    scenarios: tuple[Scenario, ...] = CATALOGUE,
    seeds: tuple[int, ...] = (7,),
    *,
    options: RunOptions = RunOptions(),
) -> CampaignResult:
    """Run every scenario on every seed; score classification and costs.

    Each scenario runs in its own fresh cluster (faults do not interact),
    which matches how the per-class figures of the paper are defined.

    With ``options.workers > 1`` the (scenario, seed) grid is fanned out
    over the parallel runtime; the aggregate is identical to a serial
    run, but ``runs`` is empty (full :class:`ScenarioRun` objects — live
    clusters and services — do not cross process boundaries).  Parallel
    execution requires every scenario to come from :data:`CATALOGUE`.
    So does a ``checkpoint``, ``store`` or ``live_log``, which route even
    a one-worker run through the runner.
    """
    specs = [
        (scenario.name, seed) for seed in seeds for scenario in scenarios
    ]
    if (
        options.workers > 1
        or options.checkpoint is not None
        or options.store is not None
        or options.live_log is not None
    ):
        # The serial fast path below keeps live ScenarioRun objects and
        # bypasses the runner; the process pool, the checkpoint's chunked
        # ledger, the columnar store's post-reduce write hook and live
        # telemetry's lifecycle events all need the runner.
        catalogue_names = {s.name for s in CATALOGUE}
        unknown = {name for name, _ in specs} - catalogue_names
        if unknown:
            raise AnalysisError(
                "parallel, checkpointed, stored or live-logged campaigns "
                "only support catalogue scenarios; unknown: "
                f"{sorted(unknown)!r}"
            )
        runner = ParallelCampaignRunner(
            run_catalogue_cell, reduce_catalogue_cells, options=options
        )
        outcome = runner.run(specs, root_seed=0)
        result = (
            outcome.value
            if outcome.results
            else reduce_catalogue_cells([])
        )
        return CampaignResult(
            runs=result.runs,
            score=result.score,
            integrated_cost=result.integrated_cost,
            obd_cost=result.obd_cost,
            metrics=outcome.metrics,
        )

    by_name = {s.name: s for s in scenarios}
    runs: list[ScenarioRun] = []
    cells: list[CatalogueCellOutcome] = []
    for index, (scenario_name, seed) in enumerate(specs):
        run = run_scenario(by_name[scenario_name], seed=seed)
        runs.append(run)
        cells.append(_cell_from_run(run, index))
    result = reduce_catalogue_cells(cells)
    return CampaignResult(
        runs=tuple(runs),
        score=result.score,
        integrated_cost=result.integrated_cost,
        obd_cost=result.obd_cost,
    )


def detection_latency_us(run: ScenarioRun) -> int | None:
    """Time from fault activation to the first *correct* attribution.

    Scans the diagnostic service's epoch results for the first epoch whose
    verdict set attributes the injected fault to the right FRU and class;
    returns the latency relative to the fault's activation instant, or
    None when the fault was never correctly attributed.
    """
    descriptor = run.descriptor
    expected = run.scenario.expected_class
    job_location = run.parts.cluster.job_location
    for epoch in run.service.epoch_results:
        predicted = predicted_class_for(
            descriptor, list(epoch.verdicts), job_location
        )
        if predicted is expected:
            return max(0, epoch.now_us - descriptor.activation_us)
    return None


def obd_detection_latency_us(run: ScenarioRun) -> int | None:
    """Time from fault activation to the OBD baseline's first DTC against
    the faulty component (None when OBD never records one, or the run had
    no baseline)."""
    if run.obd is None:
        return None
    descriptor = run.descriptor
    component = (
        descriptor.fru.name
        if descriptor.fru.kind.value == "component"
        else run.parts.cluster.job_location.get(descriptor.fru.name)
    )
    candidates = [
        dtc.recorded_us
        for dtc in run.obd.dtcs
        if dtc.component == component
    ]
    if not candidates:
        return None
    return max(0, min(candidates) - descriptor.activation_us)
