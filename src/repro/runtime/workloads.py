"""Spawn-picklable replica workloads for the parallel runner.

Each function here is a module-level ``task(replica: ReplicaTask)``
suitable for :class:`repro.runtime.runner.ParallelCampaignRunner`: it
receives the replica's private seed stream, builds its own fresh
cluster, runs the simulation and returns a plain-data outcome that
pickles cheaply back to the parent.

Heavier orchestration (the scenario catalogue, the diagnosed fleet)
lives next to its serial implementation in
:mod:`repro.analysis.scenarios` and :mod:`repro.analysis.fleet_sim`;
this module hosts the generic stochastic-campaign replica shared by the
CLI, the equivalence tests and the scaling benchmarks.
"""

from __future__ import annotations

from repro import obs as obs_api
from repro.faults.campaign import (
    CampaignReplicaOutcome,
    CampaignReplicaSpec,
    CampaignSummary,
    RandomCampaign,
    summarize_campaign,
)
from repro.faults.suppress import selectors_for_replica
from repro.runtime.runner import (
    ParallelCampaignRunner,
    ReplicaTask,
    RunOptions,
    RunOutcome,
)


def run_campaign_replica(replica: ReplicaTask) -> CampaignReplicaOutcome:
    """One Monte-Carlo campaign replica on a fresh Fig. 10 cluster.

    The cluster's internal named streams are seeded from the replica's
    state seed and the campaign sampling from the replica's generator —
    both derive from ``(root_seed, index)`` alone, so the outcome is
    reproducible independent of where or when the replica executes.
    """
    # The simulator is imported by the task, not by this module: a pooled
    # parent only schedules, stores and reduces, so it never loads it,
    # and a worker or a serial parent pays for it at its first replica.
    from repro.analysis.scenarios import predicted_class_for
    from repro.core.maintenance import determine_action
    from repro.core.ona import onas_without
    from repro.diagnosis.diag_das import DiagnosticService
    from repro.faults.injector import FaultInjector
    from repro.presets import figure10_cluster

    # Each replica needs a fresh *runtime* cluster — its named RNG streams
    # are seeded from replica.state_seed(), so a shared Cluster object
    # would entangle the replicas' draw sequences.  The expensive
    # seed-independent half of construction (the frozen spec graph of
    # jobs, partitions, components and VN link tables) IS shared: it is
    # built once and cached by repro.presets._figure10_static, so the
    # per-replica cost is only the seeded state instantiation.  The
    # cluster is closed once the outcome is built (or the replica
    # raised): the outcome is plain data, and closing frees the replica's
    # whole object graph by reference counting.
    spec = replica.spec if replica.spec is not None else CampaignReplicaSpec()
    provenance = getattr(spec, "obs_provenance", False)
    obs = (
        obs_api.Observability(trace=spec.obs_trace, provenance=provenance)
        if getattr(spec, "obs_enabled", False) or provenance
        else None
    )
    previous = obs_api.set_obs(obs) if obs is not None else None
    cluster = None
    try:
        try:
            parts = figure10_cluster(seed=replica.state_seed())
            cluster = parts.cluster
            # Counterfactual rewrites (repro whatif): ONA classes named by
            # the spec are left out of the battery, and fault selectors
            # scoped to this replica are handed to the sampler, which
            # discards matched events' effects while preserving every RNG
            # draw.
            disable_onas = getattr(spec, "disable_onas", ())
            service = DiagnosticService(
                cluster,
                collector="comp5",
                window_points=12_000,
                onas=onas_without(disable_onas) if disable_onas else None,
            )
            injector = FaultInjector(cluster)
            campaign = RandomCampaign(
                injector,
                expected_faults=spec.expected_faults,
                horizon_us=spec.horizon_us,
                sensor_jobs=spec.sensor_jobs,
                software_jobs=spec.software_jobs,
                config_ports=spec.config_ports,
                suppress=selectors_for_replica(
                    getattr(spec, "suppress_faults", ()), replica.index
                ),
            )
            plan = campaign.run(replica.rng())
            cluster.run(spec.horizon_us + spec.settle_us)
            verdicts = service.verdicts()
            if obs is not None and provenance:
                # Drive the Fig. 11 decision for every verdict so causal
                # chains terminate at the maintenance leaf.  Pure lookup —
                # the simulation and the attribution scoring are
                # untouched.
                for verdict in verdicts:
                    determine_action(verdict)
        finally:
            if obs is not None:
                obs_api.set_obs(previous)

        if obs is not None and provenance:
            # Fold the replica's causal DAG into its own registry *before*
            # the snapshot ships: stage-latency histograms then merge
            # through the index-ordered reduce exactly like every other
            # counter, so workers=N aggregates stay bit-identical to
            # workers=1.  The compact causal log feeds the fold, so record
            # retention is only paid when the spec also asks for the trace
            # itself; in fold-only runs the symptom/dissemination layers
            # come straight from the tracker's ledgers and are never
            # logged at all.
            obs_api.fold_stage_latencies(
                obs.tracer.causal_log,
                obs.counters,
                tracker=(
                    None if obs.tracer.keeps_records else obs.provenance
                ),
            )
        obs_counters = obs.snapshot() if obs is not None else None
        obs_trace: tuple[dict, ...] = ()
        if obs is not None and spec.obs_trace:
            obs_trace = tuple(
                {**record, "replica": replica.index}
                for record in obs.trace_dicts()
            )

        alpha_bank = service.assessment.classifier.alpha
        trust_bank = service.assessment.trust
        return CampaignReplicaOutcome(
            index=replica.index,
            plan_events=plan.events,
            attributed=tuple(
                [
                    predicted_class_for(d, verdicts, cluster.job_location)
                    is d.fault_class
                    for d in plan.descriptors
                ]
            ),
            verdicts_emitted=len(verdicts),
            events_simulated=cluster.sim.events_processed,
            obs_counters=obs_counters,
            obs_trace=obs_trace,
            alpha_state=tuple(
                (fru, float(v))
                for fru, v in sorted(alpha_bank.scores().items())
            ),
            trust_state=tuple(
                (fru, float(v))
                for fru, v in sorted(trust_bank.values().items())
            ),
        )
    finally:
        if cluster is not None:
            cluster.close()


def _reduce_campaign(values: list[CampaignReplicaOutcome]) -> CampaignSummary:
    return summarize_campaign(values)


def run_random_campaigns(
    replicas: int,
    root_seed: int = 0,
    spec: CampaignReplicaSpec | None = None,
    *,
    options: RunOptions = RunOptions(),
    preloaded: dict | None = None,
) -> RunOutcome:
    """Run ``replicas`` independent stochastic campaigns.

    Returns a :class:`~repro.runtime.runner.RunOutcome` whose ``value``
    is the deterministic :class:`CampaignSummary` aggregate — identical
    for every ``options.workers`` setting given the same ``root_seed``,
    and for an interrupted run resumed from its ``options.checkpoint``
    ledger.  ``replicas=0`` yields the runner's explicit empty outcome
    (value ``()``) instead of tripping the summary's empty-campaign
    check.

    ``preloaded`` splices already-known per-replica results (index →
    :class:`~repro.runtime.runner.ReplicaResult`) straight into the
    reduce without re-executing them — the counterfactual replay engine
    uses it to re-run only DAG-affected replicas.  The runner's metrics
    count only fresh work, so ``events_simulated``/``replicas_resumed``
    prove what was spliced.
    """
    if replicas < 0:
        raise ValueError(f"replicas must be >= 0, got {replicas}")
    runner = ParallelCampaignRunner(
        run_campaign_replica, _reduce_campaign, options=options
    )
    spec = spec if spec is not None else CampaignReplicaSpec()
    return runner.run(
        [spec] * replicas, root_seed=root_seed, preloaded=preloaded
    )
