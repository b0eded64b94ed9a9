"""Stochastic fault campaigns — field-like fault mixes.

Generates a random campaign over a cluster: fault mechanisms are drawn
from a mix calibrated to the relative frequencies the paper cites
(connector/wiring problems ~30 % of electrical failures [Swingler],
transients outnumbering permanents by ~1000:1 [Pauli & Meyna], the 20-80
software distribution [Fenton & Ohlsson]); activation times are uniform
over the horizon; targets are drawn without FRU collisions so every
injected fault keeps a well-defined ground truth.

The actual field rates (FIT) would produce one event per simulated year;
campaigns therefore specify an *expected fault count* over the horizon —
an explicit time-acceleration — while preserving the mechanism mix.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import AnalysisError, ConfigurationError, FaultInjectionError
from repro.faults.suppress import FaultSelector, event_suppressed
from repro.obs.counters import CounterRegistry
from repro.units import ms, seconds

# Both are annotations only: the spec, the outcome and the reduce load
# without the injector, which pulls in the whole simulator.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fault_model import FaultDescriptor
    from repro.faults.injector import FaultInjector

#: Default mechanism mix (relative weights, see module docstring).
DEFAULT_MIX: dict[str, float] = {
    "seu": 0.22,
    "emi-burst": 0.13,
    "connector": 0.18,
    "wiring": 0.05,
    "recurring-transient": 0.12,
    "permanent": 0.04,
    "software-heisenbug": 0.10,
    "software-bohrbug": 0.05,
    "sensor": 0.05,
    "queue-config": 0.06,
}


@dataclass(frozen=True, slots=True)
class CampaignPlan:
    """A sampled campaign: mechanisms, targets, activation times."""

    events: tuple[tuple[str, str, int], ...]  # (mechanism, target, at_us)
    descriptors: tuple[FaultDescriptor, ...]


@dataclass(slots=True)
class RandomCampaign:
    """Samples and injects a random fault campaign on one cluster.

    Parameters
    ----------
    injector:
        The target cluster's injector.
    expected_faults:
        Mean number of faults over the horizon (Poisson).
    horizon_us:
        Campaign horizon; activations are uniform over [0.05, 0.8] of it,
        leaving time for the diagnosis to accumulate evidence.
    mix:
        Mechanism weights; defaults to :data:`DEFAULT_MIX`.
    sensor_jobs / software_jobs / config_ports:
        Eligible targets for the job-level mechanisms.
    suppress:
        Counterfactual suppression selectors (already filtered to this
        replica, see :mod:`repro.faults.suppress`).  Matched events are
        sampled exactly as usual — consuming the same RNG draws, FRU
        collision slots and fault ids — but their effects are discarded,
        so the rest of the campaign stays bit-identical.
    """

    injector: FaultInjector
    expected_faults: float = 4.0
    horizon_us: int = seconds(10)
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    sensor_jobs: tuple[str, ...] = ()
    software_jobs: tuple[str, ...] = ()
    config_ports: tuple[tuple[str, str], ...] = ()  # (job, event port)
    suppress: tuple[FaultSelector, ...] = ()

    def run(self, rng: np.random.Generator) -> CampaignPlan:
        """Sample the campaign and schedule every non-suppressed fault."""
        cluster = self.injector.cluster
        injector = self.injector
        mechanisms = list(self.mix)
        weights = np.asarray([self.mix[m] for m in mechanisms], dtype=float)
        weights /= weights.sum()

        count = int(rng.poisson(self.expected_faults))
        components = list(cluster.components)
        used_components: set[str] = set()
        used_jobs: set[str] = set()
        events: list[tuple[str, str, int]] = []
        descriptors: list[FaultDescriptor] = []

        used_mechanisms: set[str] = set()
        attempts = 0
        # `sampled` counts successful injections *including suppressed
        # ones*, so suppression never extends the loop and every later
        # draw lands on the same RNG state as the baseline campaign.
        sampled = 0
        while sampled < count and attempts < 20 * max(count, 1):
            attempts += 1
            mechanism = mechanisms[int(rng.choice(len(mechanisms), p=weights))]
            at_us = int(
                rng.uniform(0.05 * self.horizon_us, 0.8 * self.horizon_us)
            )
            # Every injection runs in a deferred-effects section — one
            # uniform code path, so "no selector matched" is the baseline
            # by construction, not by a separate branch.
            injector.begin_deferred()
            try:
                descriptor = self._try_inject(
                    mechanism,
                    at_us,
                    rng,
                    components,
                    used_components,
                    used_jobs,
                    used_mechanisms,
                )
            except BaseException:
                # Immediate mode would have applied the effects scheduled
                # before the raise; replay them before propagating.
                injector.commit_deferred()
                raise
            if descriptor is None:
                # Failed attempts can still have pending effects (an EMI
                # burst schedules its zone before discovering it covers
                # no component) — commit to match immediate mode.
                injector.commit_deferred()
                continue
            sampled += 1
            target = str(descriptor.fru)
            if self.suppress and event_suppressed(
                self.suppress, mechanism, target, at_us
            ):
                injector.discard_deferred()
                continue
            injector.commit_deferred()
            events.append((mechanism, target, at_us))
            descriptors.append(descriptor)
        return CampaignPlan(tuple(events), tuple(descriptors))

    # -- internals ------------------------------------------------------------

    def _free_component(
        self, rng, components, used_components
    ) -> str | None:
        free = [c for c in components if c not in used_components]
        if not free:
            return None
        return free[int(rng.choice(len(free)))]

    def _try_inject(
        self,
        mechanism,
        at_us,
        rng,
        components,
        used_components,
        used_jobs,
        used_mechanisms,
    ) -> FaultDescriptor | None:
        injector = self.injector
        cluster = injector.cluster
        if mechanism == "seu":
            target = self._free_component(rng, components, used_components)
            if target is None:
                return None
            used_components.add(target)
            return injector.inject_seu(target, at_us)
        if mechanism == "emi-burst":
            # At most one EMI burst per campaign (it disturbs a whole
            # region, so several would blur every other ground truth).
            if "emi-burst" in used_mechanisms:
                return None
            positions = [cluster.components[c].position for c in components]
            center = positions[int(rng.choice(len(positions)))]
            try:
                descriptor = injector.inject_emi_burst(
                    at_us, center=center, radius=1.2
                )
            except FaultInjectionError:
                return None
            used_mechanisms.add("emi-burst")
            used_components.add(descriptor.fru.name)
            return descriptor
        if mechanism == "connector":
            target = self._free_component(rng, components, used_components)
            if target is None:
                return None
            used_components.add(target)
            return injector.inject_connector_fault(
                target,
                channel=int(rng.integers(cluster.bus.channels)),
                omission_prob=float(rng.uniform(0.5, 1.0)),
                at_us=at_us,
            )
        if mechanism == "wiring":
            if "wiring" in used_mechanisms:
                return None
            used_mechanisms.add("wiring")
            return injector.inject_wiring_fault(
                int(rng.integers(cluster.bus.channels)),
                omission_prob=float(rng.uniform(0.3, 0.7)),
                at_us=at_us,
            )
        if mechanism == "recurring-transient":
            target = self._free_component(rng, components, used_components)
            if target is None:
                return None
            used_components.add(target)
            return injector.inject_recurring_transients(
                target,
                at_us,
                self.horizon_us,
                fit=1.5e12,
                min_occurrences=6,
            )
        if mechanism == "permanent":
            target = self._free_component(rng, components, used_components)
            if target is None:
                return None
            used_components.add(target)
            mode = ("silent", "corrupt", "babbling")[int(rng.integers(3))]
            return injector.inject_permanent_internal(target, at_us, mode=mode)
        if mechanism in ("software-heisenbug", "software-bohrbug"):
            free = [
                j
                for j in self.software_jobs
                if j not in used_jobs
                and cluster.job_location[j] not in used_components
            ]
            if not free:
                return None
            job = free[int(rng.choice(len(free)))]
            used_jobs.add(job)
            if mechanism == "software-heisenbug":
                return injector.inject_software_heisenbug(
                    job, at_us, manifest_prob=float(rng.uniform(0.03, 0.1))
                )
            return injector.inject_software_bohrbug(job, at_us)
        if mechanism == "sensor":
            free = [
                j
                for j in self.sensor_jobs
                if j not in used_jobs
                and cluster.job_location[j] not in used_components
            ]
            if not free:
                return None
            job = free[int(rng.choice(len(free)))]
            used_jobs.add(job)
            mode = ("stuck", "drift")[int(rng.integers(2))]
            return injector.inject_sensor_fault(
                job, at_us, mode=mode, stuck_value=25.0, drift_per_s=30.0
            )
        if mechanism == "queue-config":
            free = [
                (j, p)
                for j, p in self.config_ports
                if j not in used_jobs
                and cluster.job_location[j] not in used_components
            ]
            if not free:
                return None
            job, port = free[int(rng.choice(len(free)))]
            used_jobs.add(job)
            return injector.inject_queue_config_fault(
                job, port, capacity=1, at_us=at_us
            )
        raise FaultInjectionError(f"unknown mechanism {mechanism!r}")


# -- Monte-Carlo replicas and their deterministic aggregate ----------------

#: Largest mean fault count a replica accepts.  The sampler's work and
#: the plan grow with the Poisson draw: 10 000 takes ~5 s per replica,
#: and 1e9 was still sampling after a minute.  The A10 campaign uses 4;
#: no test, benchmark or document uses more than 8.
MAX_EXPECTED_FAULTS = 1000.0


@dataclass(frozen=True, slots=True)
class CampaignReplicaSpec:
    """Parameters of one stochastic campaign replica (picklable).

    A replica builds a fresh Fig. 10 cluster, samples a
    :class:`RandomCampaign` from its private seed stream, runs the full
    integrated diagnosis and scores the per-fault attribution.  The spec
    carries only plain data so ``spawn`` workers can receive it.
    """

    expected_faults: float = 3.0
    horizon_us: int = seconds(2)
    settle_us: int = 0  # extra run time after the horizon
    sensor_jobs: tuple[str, ...] = ("C1",)
    software_jobs: tuple[str, ...] = ("A1", "A2", "B1", "C2")
    config_ports: tuple[tuple[str, str], ...] = (("A3", "in"),)
    # Observability: counters when enabled, trace records additionally
    # when obs_trace is set, causal lineage plus per-stage latency
    # aggregation when obs_provenance is set.  All derive purely from
    # simulated state, so enabling them must not perturb the summary.
    obs_enabled: bool = False
    obs_trace: bool = False
    obs_provenance: bool = False
    # Counterfactual rewrites (repro whatif).  `suppress_faults` carries
    # selector strings ([rN:]mechanism[@target[@at_us]], see
    # repro.faults.suppress); matched events are sampled but their
    # effects discarded.  `disable_onas` names ONA classes left out of
    # the diagnostic assessment.  Both default empty, so a baseline
    # spec's digest is a pure function of the campaign parameters.
    suppress_faults: tuple[str, ...] = ()
    disable_onas: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Refuse here what the sampler would fail on mid-run, so a bad
        # value (or a doctored ledger/store header) ends in a message.
        if not 0 <= self.expected_faults <= MAX_EXPECTED_FAULTS:  # NaN fails
            raise ConfigurationError(
                "expected_faults must be a number in "
                f"[0, {MAX_EXPECTED_FAULTS:g}], got {self.expected_faults!r}"
            )
        if self.horizon_us < 1:
            raise ConfigurationError(
                f"horizon_us must be >= 1, got {self.horizon_us!r}"
            )

    @classmethod
    def from_flags(cls, flags: Mapping[str, Any]) -> CampaignReplicaSpec:
        """The spec ``repro mc`` runs for a set of its flags.

        ``flags`` is the parsed CLI namespace (``vars(args)``) or the
        ``params`` recorded from it in a ledger or store part header,
        so ``repro mc`` and ``repro whatif`` build the spec — and its
        digest — through this one mapping.  ``--profile`` does not enter
        the spec: it profiles the CLI process, not the replicas.
        """
        want_trace = bool(flags.get("trace"))
        return cls(
            expected_faults=float(flags["expected_faults"]),
            horizon_us=ms(int(flags["horizon_ms"])),
            obs_enabled=want_trace,
            obs_trace=want_trace,
            obs_provenance=bool(flags.get("provenance")),
        )


@dataclass(frozen=True, slots=True)
class CampaignReplicaOutcome:
    """What one campaign replica produced (plain data, picklable)."""

    index: int
    #: The injected faults, one ``(mechanism, target, at_us)`` per event.
    plan_events: tuple[tuple[str, str, int], ...]
    #: Whether the diagnosis attributed each fault: one bool per entry
    #: of ``plan_events``.  Every fault count is a count over the two.
    attributed: tuple[bool, ...]
    verdicts_emitted: int
    events_simulated: int
    #: Counter-registry snapshot when the spec enabled observability.
    obs_counters: dict | None = None
    #: Schema-v2 trace line dicts (replica-tagged) when tracing was on.
    obs_trace: tuple[dict, ...] = ()
    #: Final per-FRU alpha-count scores, sorted by FRU name — the
    #: diagnostic state the store persists as verdict columns
    #: (:mod:`repro.storage`).
    alpha_state: tuple[tuple[str, float], ...] = ()
    #: Final per-FRU trust levels, sorted by FRU name.
    trust_state: tuple[tuple[str, float], ...] = ()

    @property
    def faults_injected(self) -> int:
        return len(self.plan_events)

    @property
    def faults_attributed(self) -> int:
        return sum(self.attributed)


@dataclass(frozen=True, slots=True)
class CampaignSummary:
    """Deterministic aggregate of a multi-replica stochastic campaign.

    Produced by :func:`summarize_campaign` from replica outcomes sorted
    by index, so the summary is a pure function of ``(root_seed,
    spec)`` — identical for any worker count.
    """

    replicas: int
    faults_injected: int
    faults_attributed: int
    injected_by_mechanism: tuple[tuple[str, int], ...]
    attributed_by_mechanism: tuple[tuple[str, int], ...]
    verdicts_emitted: int
    events_simulated: int
    plan_digest: str  # sha256 over every (replica, mechanism, target, time)
    #: Merged counter snapshot (index order) when replicas carried one.
    obs_counters: dict | None = None

    @property
    def attribution_accuracy(self) -> float:
        if self.faults_injected == 0:
            return 0.0
        return self.faults_attributed / self.faults_injected

    def mechanism_accuracy(self) -> dict[str, float]:
        """Per-mechanism attribution accuracy."""
        attributed = dict(self.attributed_by_mechanism)
        return {
            mechanism: attributed.get(mechanism, 0) / count
            for mechanism, count in self.injected_by_mechanism
            if count > 0
        }

    def to_dict(self) -> dict:
        """JSON-safe dict form (for BENCH_*.json and --metrics-json)."""
        out = {
            "replicas": self.replicas,
            "faults_injected": self.faults_injected,
            "faults_attributed": self.faults_attributed,
            "attribution_accuracy": round(self.attribution_accuracy, 4),
            "injected_by_mechanism": dict(self.injected_by_mechanism),
            "attributed_by_mechanism": dict(self.attributed_by_mechanism),
            "verdicts_emitted": self.verdicts_emitted,
            "events_simulated": self.events_simulated,
            "plan_digest": self.plan_digest,
        }
        if self.obs_counters is not None:
            out["obs_counters"] = self.obs_counters
        return out


def mechanism_counts(
    outcomes: Iterable[CampaignReplicaOutcome],
) -> tuple[dict[str, int], dict[str, int]]:
    """Injected and attributed faults per mechanism over ``outcomes``.

    Counted from the fault rows (``plan_events`` and ``attributed``); a
    mechanism is among the attributed counts only if it has a hit.
    """
    injected: dict[str, int] = {}
    attributed: dict[str, int] = {}
    for outcome in outcomes:
        for (mechanism, _target, _at_us), hit in zip(
            outcome.plan_events, outcome.attributed, strict=True
        ):
            injected[mechanism] = injected.get(mechanism, 0) + 1
            if hit:
                attributed[mechanism] = attributed.get(mechanism, 0) + 1
    return injected, attributed


def summarize_campaign(
    outcomes: Sequence[CampaignReplicaOutcome],
) -> CampaignSummary:
    """Merge replica outcomes into one :class:`CampaignSummary`.

    The merge is performed in replica-index order and is therefore
    deterministic regardless of the order ``outcomes`` arrived in.
    Indices must be unique but need not be dense: a salvaged partial
    campaign (runner gave up on some replicas after retry exhaustion)
    summarises the replicas that did complete, and the runner's
    completeness report states which are missing.
    """
    if not outcomes:
        raise AnalysisError("cannot summarize an empty campaign")
    ordered = sorted(outcomes, key=lambda o: o.index)
    indices = [o.index for o in ordered]
    if len(set(indices)) != len(indices) or indices[0] < 0:
        raise AnalysisError(
            f"replica outcomes are not a unique index set: {indices!r}"
        )
    injected, attributed = mechanism_counts(ordered)
    digest = hashlib.sha256()
    verdicts = events = 0
    for outcome in ordered:
        verdicts += outcome.verdicts_emitted
        events += outcome.events_simulated
        for mechanism, target, at_us in outcome.plan_events:
            digest.update(
                f"{outcome.index}|{mechanism}|{target}|{at_us}\n".encode()
            )
    snapshots = [o.obs_counters for o in ordered if o.obs_counters is not None]
    obs_counters = CounterRegistry.merged(snapshots) if snapshots else None
    return CampaignSummary(
        replicas=len(ordered),
        faults_injected=sum(injected.values()),
        faults_attributed=sum(attributed.values()),
        injected_by_mechanism=tuple(sorted(injected.items())),
        attributed_by_mechanism=tuple(sorted(attributed.items())),
        verdicts_emitted=verdicts,
        events_simulated=events,
        plan_digest=digest.hexdigest(),
        obs_counters=obs_counters,
    )
