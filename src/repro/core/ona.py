"""Out-of-Norm Assertions (ONAs) — predicates on the distributed state.

"We define an Out-of-Norm Assertion as a predicate on the distributed
system state that encodes a fault pattern in the value, time and space
domain.  ONAs are deterministically triggered whenever all symptoms of a
particular fault pattern are detected on the distributed state" (§V-A).

An ONA here is an object evaluated once per assessment epoch over the
recent (deduplicated) symptom window together with the cluster topology.
Each built-in ONA encodes one fault pattern; triggering yields
:class:`OnaTrigger` records that carry the indicated fault class, the
subject FRU and a confidence — the evidence stream consumed by the
classifier and the trust bank.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.fault_model import (
    FaultClass,
    FruRef,
    component_fru,
    job_fru,
)
from repro.core.patterns import (
    CONNECTOR_PATTERN,
    FaultPattern,
    MASSIVE_TRANSIENT_PATTERN,
    WEAROUT_PATTERN,
)
from repro.core.symptoms import Symptom, SymptomType
from repro.obs import state as _obs
from repro.tta.time_base import SparseTimeBase


@dataclass(frozen=True, slots=True)
class Topology:
    """Static cluster facts the ONAs reason over (space dimension).

    The facts are immutable, so derived queries (:meth:`jobs_on`,
    :meth:`distance`) memoise on first use — they sit inside the per-epoch
    ONA loops and would otherwise rescan the job map / recompute the
    hypotenuse thousands of times per run.
    """

    positions: dict[str, tuple[float, float]]
    component_of_job: dict[str, str]
    das_of_job: dict[str, str]
    channels: int
    _jobs_cache: dict[str, list[str]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _distance_cache: dict[tuple[str, str], float] = field(
        default_factory=dict, compare=False, repr=False
    )

    def jobs_on(self, component: str) -> list[str]:
        jobs = self._jobs_cache.get(component)
        if jobs is None:
            jobs = [
                j for j, c in self.component_of_job.items() if c == component
            ]
            self._jobs_cache[component] = jobs
        return jobs

    def distance(self, a: str, b: str) -> float:
        key = (a, b)
        d = self._distance_cache.get(key)
        if d is None:
            pa, pb = self.positions[a], self.positions[b]
            d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
            self._distance_cache[key] = d
        return d


@dataclass(slots=True)
class OnaContext:
    """Evaluation context for one assessment epoch.

    When built by :class:`repro.core.assessment.DiagnosticAssessment`, the
    context carries the assessment's *incremental* per-type window index
    (``index``: window-ordered ``(seq, symptom)`` lists per type, maintained
    by append/evict deltas) plus the change-token inputs (``appended``
    cumulative per-type intake counts and the ``prune_gen`` eviction
    generation).  :meth:`by_type` then answers from the index — no
    full-window rescan, no enum hashing — and memoises per type-tuple, so
    ONAs sharing a query share one materialisation per epoch.  Contexts
    constructed without an index (unit tests, ad-hoc callers) fall back to
    scanning ``window``; results are identical either way.
    """

    now_us: int
    time_base: SparseTimeBase
    window: list[Symptom]
    topology: Topology
    index: dict[SymptomType, list[tuple[int, Symptom]]] | None = None
    appended: Mapping[SymptomType, int] | None = None
    prune_gen: int = 0
    _type_cache: dict[tuple[SymptomType, ...], list[Symptom]] = field(
        default_factory=dict
    )

    def by_type(self, *types: SymptomType) -> list[Symptom]:
        got = self._type_cache.get(types)
        if got is not None:
            return got
        index = self.index
        if index is not None:
            lists = [lst for lst in (index.get(t) for t in types) if lst]
            if not lists:
                got = []
            elif len(lists) == 1:
                got = [s for _, s in lists[0]]
            else:
                # Unique global seqs merge the per-type lists back into
                # window order without ever comparing symptoms.
                got = [s for _, s in heapq.merge(*lists)]
        elif len(types) == 1:
            t0 = types[0]
            got = [s for s in self.window if s.type is t0]
        else:
            got = [s for s in self.window if s.type in types]
        self._type_cache[types] = got
        return got

    def change_token(self, types: tuple[SymptomType, ...]) -> tuple | None:
        """Opaque token that changes iff the watched slice may have changed.

        Equality of two epochs' tokens guarantees the window restricted to
        ``types`` is identical (same appends, no eviction in between) — the
        dirty-flag contract ONAs use to skip re-evaluation.  ``None`` when
        the context has no intake accounting (no skipping possible).
        """
        appended = self.appended
        if appended is None:
            return None
        return (self.prune_gen, tuple(appended.get(t, 0) for t in types))


@dataclass(frozen=True, slots=True)
class OnaTrigger:
    """One deterministic ONA firing."""

    ona: str
    fault_class: FaultClass
    subject: FruRef
    time_us: int
    confidence: float
    evidence: int
    pattern: FaultPattern | None = None
    detail: str = ""


class OutOfNormAssertion(ABC):
    """Base class: a named predicate evaluated per epoch.

    ONAs are *stateful across epochs*: the same piece of evidence fires a
    given ONA exactly once (triggers are deterministic, §V-A, and the
    classifier accumulates them — re-firing on an unchanged window would
    inflate evidence).  Subclasses guard each trigger with :meth:`_once`,
    keyed by a stable identity of the firing evidence; growing evidence
    (more episodes, more symptoms) yields new keys and hence new triggers.

    ``watch`` declares the symptom types an ONA's verdict depends on.  When
    the context's change token for those types matches the previous
    evaluation's, the watched window slice is unchanged — a re-run would
    regenerate exactly the keys already in ``_fired`` and return nothing —
    so evaluation is skipped outright (the dirty-flag short-circuit; see
    ``docs/performance.md``).  ONAs whose predicate also depends on the
    passage of time itself (e.g. a quiet-period wait) must leave ``watch``
    as ``None`` and run every epoch.
    """

    name: str = "ona"
    #: Symptom types the predicate reads; ``None`` disables skipping.
    watch: tuple[SymptomType, ...] | None = None

    def __init__(self) -> None:
        self._fired: set[tuple] = set()
        self._skip_token: tuple | None = None

    def _once(self, *key) -> bool:
        """True exactly once per distinct key."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def _bucket(self, count: int, unit: int) -> int:
        """Quantise an evidence count so triggers re-fire as it grows."""
        return count // max(1, unit)

    @abstractmethod
    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        """Return all *new* triggers for the current window."""

    def _evaluate_guarded(self, ctx: OnaContext) -> list[OnaTrigger]:
        """:meth:`evaluate` behind the watched-types dirty flag."""
        watch = self.watch
        if watch is None:
            return self.evaluate(ctx)
        token = ctx.change_token(watch)
        if token is None:
            return self.evaluate(ctx)
        if token == self._skip_token:
            return []
        triggers = self.evaluate(ctx)
        self._skip_token = token
        return triggers

    def run(self, ctx: OnaContext) -> list[OnaTrigger]:
        """:meth:`evaluate` under the active observability context.

        Wraps the evaluation in a per-ONA span and records one
        ``ona.triggers`` counter sample per firing, labelled with the ONA
        name and the indicated fault class — the per-class match counts
        the accuracy battery reads back as a confusion record.
        """
        obs = _obs.ACTIVE
        if not obs.enabled:
            return self._evaluate_guarded(ctx)
        with obs.tracer.span(
            f"ona.{self.name}", t_sim_us=ctx.now_us, window=len(ctx.window)
        ):
            triggers = self._evaluate_guarded(ctx)
        prov = obs.provenance
        for trigger in triggers:
            obs.counters.inc(
                "ona.triggers",
                ona=self.name,
                cls=trigger.fault_class.value,
            )
            if prov is None:
                obs.tracer.event(
                    "ona.trigger",
                    t_sim_us=trigger.time_us,
                    ona=trigger.ona,
                    cls=trigger.fault_class.value,
                    subject=str(trigger.subject),
                    confidence=trigger.confidence,
                    evidence=trigger.evidence,
                )
            else:
                cause_id = prov.new_id("ona")
                prov.add_evidence(str(trigger.subject), cause_id)
                obs.tracer.causal_event(
                    "ona.trigger",
                    trigger.time_us,
                    cause_id,
                    prov.trigger_parents(trigger, ctx.window),
                    ona=trigger.ona,
                    cls=trigger.fault_class.value,
                    subject=str(trigger.subject),
                    confidence=trigger.confidence,
                    evidence=trigger.evidence,
                )
        return triggers


class MassiveTransientOna(OutOfNormAssertion):
    """Fig. 8 'massive transient': corruption/omission symptoms on several
    components, approximately simultaneous, spatially close — indicates a
    component-external disturbance (EMI, radiation)."""

    name = "massive-transient"
    watch = (SymptomType.CRC_ERROR, SymptomType.OMISSION)

    def __init__(
        self,
        min_components: int = 2,
        delta_points: int = 1,
        radius: float = 5.0,
        coherence_points: int = 50,
    ) -> None:
        super().__init__()
        self.min_components = min_components
        self.delta_points = delta_points
        self.radius = radius
        self.coherence_points = coherence_points

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        candidates = ctx.by_type(SymptomType.CRC_ERROR, SymptomType.OMISSION)
        if not candidates:
            return []
        by_point: dict[int, set[str]] = defaultdict(set)
        span: dict[str, list[int]] = {}
        for s in candidates:
            if s.subject_job is None:
                by_point[s.lattice_point].add(s.subject_component)
                lo_hi = span.setdefault(
                    s.subject_component, [s.lattice_point, s.lattice_point]
                )
                lo_hi[0] = min(lo_hi[0], s.lattice_point)
                lo_hi[1] = max(lo_hi[1], s.lattice_point)
        triggers: list[OnaTrigger] = []
        delta = self.delta_points
        for p in sorted(by_point):
            # Probe only the points within delta of p, so the cost stays
            # linear in the window (docs/performance.md).
            components: set[str] = set()
            for q in range(p - delta, p + delta + 1):
                near = by_point.get(q)
                if near:
                    components |= near
            if len(components) < self.min_components:
                continue
            # Burst coherence: a correlated external disturbance hits all
            # victims over (nearly) the same interval.  A component that
            # fails on its own schedule — a dead node, a wearing-out unit —
            # has a failure span of its own; grouping it with a
            # coincidental victim would launder an internal fault into an
            # external attribution.
            comp_list = sorted(components)
            coherent = all(
                abs(span[a][0] - span[b][0]) <= self.coherence_points
                and abs(span[a][1] - span[b][1]) <= self.coherence_points
                for i, a in enumerate(comp_list)
                for b in comp_list[i + 1 :]
            )
            if not coherent:
                continue
            # Spatial proximity: all pairwise distances within radius.
            close = all(
                ctx.topology.distance(a, b) <= self.radius
                for i, a in enumerate(comp_list)
                for b in comp_list[i + 1 :]
            )
            if not close:
                continue
            for name in comp_list:
                if not self._once(p, name):
                    continue
                triggers.append(
                    OnaTrigger(
                        ona=self.name,
                        fault_class=FaultClass.COMPONENT_EXTERNAL,
                        subject=component_fru(name),
                        time_us=ctx.now_us,
                        confidence=min(1.0, len(comp_list) / 3.0),
                        evidence=len(comp_list),
                        pattern=MASSIVE_TRANSIENT_PATTERN,
                        detail=f"{len(comp_list)} components at point {p}",
                    )
                )
        return triggers


class ConnectorOna(OutOfNormAssertion):
    """Fig. 8 'connector fault': message omissions on one channel.

    Direction discrimination:

    * one *subject* across many observers  -> tx connector of the subject;
    * one *observer* across many subjects  -> rx connector of the observer;
    * many subjects and many observers     -> loom wiring of the channel.
    """

    name = "connector"
    watch = (SymptomType.CHANNEL_OMISSION,)

    def __init__(self, min_events: int = 3) -> None:
        super().__init__()
        self.min_events = min_events
        # Incremental per-channel tallies: [n, subjects, observers,
        # involvement], extended by the appended delta each dirty epoch
        # and rebuilt from scratch when the window evicted (generation
        # mismatch).  Incremental counting preserves Counter insertion
        # order — and hence ``most_common`` tie-breaking — exactly as a
        # fresh pass over the full list would.
        self._gen: int | None = None
        self._counted = 0
        self._channels: dict[int, list] = {}

    def _tally(self, ctx: OnaContext) -> dict[int, list]:
        symptoms = ctx.by_type(SymptomType.CHANNEL_OMISSION)
        if self._gen != ctx.prune_gen or self._counted > len(symptoms):
            self._gen = ctx.prune_gen
            self._counted = 0
            self._channels = {}
        channels = self._channels
        for s in symptoms[self._counted :]:
            if s.channel is None:
                continue
            data = channels.get(s.channel)
            if data is None:
                data = channels[s.channel] = [0, Counter(), Counter(), Counter()]
            data[0] += 1
            data[1][s.subject_component] += 1
            data[2][s.observer] += 1
            data[3][s.subject_component] += 1
            data[3][s.observer] += 1
        self._counted = len(symptoms)
        return channels

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        triggers: list[OnaTrigger] = []
        for channel, (n, subjects, observers, involvement) in self._tally(
            ctx
        ).items():
            if n < self.min_events:
                continue
            dominant_subject, subject_share = _dominant(subjects, n)
            dominant_observer, observer_share = _dominant(observers, n)
            # Hub test: one component involved (as sender or receiver) in
            # nearly every omission on this channel -> its connector; a
            # loom fault involves all pairings with no single hub.
            hub, hub_count = involvement.most_common(1)[0]
            runner_up = (
                involvement.most_common(2)[1][1]
                if len(involvement) > 1
                else 0
            )
            if subject_share >= 0.8 and len(observers) >= 2:
                culprit, role = dominant_subject, "tx"
            elif observer_share >= 0.8 and len(subjects) >= 2:
                culprit, role = dominant_observer, "rx"
            elif hub_count >= 0.95 * n and hub_count >= 2 * runner_up:
                culprit, role = hub, "tx+rx"
            elif len(subjects) >= 2 and len(observers) >= 2:
                culprit, role = f"loom-channel-{channel}", "wiring"
            else:
                # Single subject AND single observer: point-to-point pair —
                # attribute to the subject's connector (tx side).
                culprit, role = dominant_subject, "tx"
            if not self._once(
                channel, culprit, self._bucket(n, self.min_events)
            ):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_BORDERLINE,
                    subject=component_fru(culprit),
                    time_us=ctx.now_us,
                    confidence=min(1.0, n / (2.0 * self.min_events)),
                    evidence=n,
                    pattern=CONNECTOR_PATTERN,
                    detail=f"channel {channel}, {role} side",
                )
            )
        return triggers


class WearoutOna(OutOfNormAssertion):
    """Fig. 8 'wearout': transient-failure episodes of one component whose
    frequency rises as time progresses — the paper's wearout indicator."""

    name = "wearout"
    watch = (SymptomType.OMISSION,)

    def __init__(self, min_episodes: int = 6, trend_factor: float = 2.0) -> None:
        super().__init__()
        self.min_episodes = min_episodes
        self.trend_factor = trend_factor

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        per_component: dict[str, set[int]] = defaultdict(set)
        for s in ctx.by_type(SymptomType.OMISSION):
            if s.subject_job is None:
                per_component[s.subject_component].add(s.lattice_point)
        triggers: list[OnaTrigger] = []
        for name, points_set in per_component.items():
            episodes = _episodes(sorted(points_set))
            if len(episodes) < self.min_episodes:
                continue
            starts = [ep[0] for ep in episodes]
            lo, hi = starts[0], starts[-1]
            if hi <= lo:
                continue
            mid = (lo + hi) / 2.0
            early = sum(1 for t in starts if t <= mid)
            late = len(starts) - early
            trend = (late + 0.5) / (early + 0.5)
            if trend < self.trend_factor:
                continue
            if not self._once(name, len(episodes)):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_INTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=min(1.0, trend / (2.0 * self.trend_factor)),
                    evidence=len(episodes),
                    pattern=WEAROUT_PATTERN,
                    detail=f"{len(episodes)} episodes, trend x{trend:.1f}",
                )
            )
        return triggers


class CorrelatedJobFailureOna(OutOfNormAssertion):
    """Fig. 10 judgment: jobs of *different DASs* on the *same component*
    failing in the same lattice interval indicate a component-internal
    hardware fault (the shared physical resources broke through the
    partitioning), while failures confined to one DAS indicate a job-level
    fault."""

    name = "correlated-job-failure"
    watch = (
        SymptomType.VALUE_VIOLATION,
        SymptomType.OMISSION,
        SymptomType.REPLICA_DEVIATION,
    )

    def __init__(self, min_dases: int = 2, delta_points: int = 1) -> None:
        super().__init__()
        self.min_dases = min_dases
        self.delta_points = delta_points

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        job_symptoms = [
            s
            for s in ctx.by_type(
                SymptomType.VALUE_VIOLATION,
                SymptomType.OMISSION,
                SymptomType.REPLICA_DEVIATION,
            )
            if s.subject_job is not None
        ]
        if not job_symptoms:
            return []
        by_comp_point: dict[tuple[str, int], set[str]] = defaultdict(set)
        for s in job_symptoms:
            by_comp_point[(s.subject_component, s.lattice_point)].add(
                s.subject_job
            )
        triggers: list[OnaTrigger] = []
        fired = self._fired
        delta = self.delta_points
        for (component, point), jobs in sorted(by_comp_point.items()):
            if (component, point) in fired:
                continue  # fires at most once; ``_once`` would reject it
            # widen by delta: probe the neighbouring points of this component
            all_jobs = set(jobs)
            for p2 in range(point - delta, point + delta + 1):
                jobs2 = by_comp_point.get((component, p2))
                if jobs2:
                    all_jobs |= jobs2
            dases = {
                ctx.topology.das_of_job.get(j, "?") for j in all_jobs
            }
            if len(dases) < self.min_dases:
                continue
            if not self._once(component, point):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_INTERNAL,
                    subject=component_fru(component),
                    time_us=ctx.now_us,
                    confidence=min(1.0, len(dases) / 3.0),
                    evidence=len(all_jobs),
                    detail=(
                        f"jobs {sorted(all_jobs)} of DASs {sorted(dases)} "
                        f"failed together"
                    ),
                )
            )
        return triggers


class SingleJobOna(OutOfNormAssertion):
    """A job violating its port specification while every other job of the
    same component conforms: a job-level fault.  Job-internal information
    (model-based sensor plausibility checks, §IV-B.1) separates transducer
    from software faults; without it the fault is attributed to software —
    mirroring the paper's statement that interface observations alone
    cannot distinguish the two."""

    name = "single-job"
    watch = (
        SymptomType.VALUE_VIOLATION,
        SymptomType.OMISSION,
        SymptomType.REPLICA_DEVIATION,
        SymptomType.SENSOR_IMPLAUSIBLE,
        SymptomType.VN_BUDGET_OVERFLOW,
        SymptomType.CRC_ERROR,
        SymptomType.TIMING_VIOLATION,
    )

    def __init__(
        self,
        min_events: int = 2,
        delta_points: int = 1,
        hw_proximity_points: int = 20,
    ) -> None:
        super().__init__()
        self.min_events = min_events
        self.delta_points = delta_points
        self.hw_proximity_points = hw_proximity_points

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        value_symptoms = [
            s
            for s in ctx.by_type(
                SymptomType.VALUE_VIOLATION,
                SymptomType.OMISSION,
                SymptomType.REPLICA_DEVIATION,
                SymptomType.SENSOR_IMPLAUSIBLE,
            )
            if s.subject_job is not None
        ]
        if not value_symptoms:
            return []
        # Components whose VN transmit budget overflowed: job omissions
        # there have a configuration explanation (ConfigurationOna's case).
        budget_components = {
            s.subject_component
            for s in ctx.by_type(SymptomType.VN_BUDGET_OVERFLOW)
        }
        sensor_flags = {
            s.subject_job
            for s in ctx.by_type(SymptomType.SENSOR_IMPLAUSIBLE)
        }
        # Component-level failure evidence, per lattice point: a job
        # symptom raised while its host component itself was failing is a
        # job-*external* manifestation of the hardware fault, not a
        # job-level fault.  The suppression is time-proximate — a brief
        # disturbance must not veto job-level attribution for the rest of
        # the window.
        hw_failure_points: dict[str, set[int]] = defaultdict(set)
        for s in ctx.by_type(
            SymptomType.OMISSION,
            SymptomType.CRC_ERROR,
            SymptomType.TIMING_VIOLATION,
        ):
            if s.subject_job is None:
                hw_failure_points[s.subject_component].add(s.lattice_point)
        hw_sorted = {c: sorted(pts) for c, pts in hw_failure_points.items()}
        prox = self.hw_proximity_points

        def hw_explained(symptom: Symptom) -> bool:
            # Is any failure point of the host within prox of p?  The
            # nearest point >= p - prox decides.
            points = hw_sorted.get(symptom.subject_component)
            if not points:
                return False
            p = symptom.lattice_point
            i = bisect_left(points, p - prox)
            return i < len(points) and points[i] <= p + prox

        by_job: dict[str, list[Symptom]] = defaultdict(list)
        for s in value_symptoms:
            if hw_explained(s):
                continue
            by_job[s.subject_job].append(s)
        # Jobs per component with symptoms (to enforce "only this job").
        jobs_per_component: dict[str, set[str]] = defaultdict(set)
        for job in by_job:
            comp = ctx.topology.component_of_job.get(job)
            if comp is not None:
                jobs_per_component[comp].add(job)
        triggers: list[OnaTrigger] = []
        for job, symptoms in sorted(by_job.items()):
            if len(symptoms) < self.min_events:
                continue
            comp = ctx.topology.component_of_job.get(job)
            if comp is None:
                continue
            if comp in budget_components and all(
                s.type is SymptomType.OMISSION for s in symptoms
            ):
                continue  # message loss explained by the VN budget config
            if len(jobs_per_component[comp]) != 1:
                continue  # correlated failures: component-level ONA's case
            if not self._once(job, self._bucket(len(symptoms), self.min_events)):
                continue
            fault_class = (
                FaultClass.JOB_INHERENT_TRANSDUCER
                if job in sensor_flags
                else FaultClass.JOB_INHERENT_SOFTWARE
            )
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=fault_class,
                    subject=job_fru(job),
                    time_us=ctx.now_us,
                    confidence=min(1.0, len(symptoms) / (2.0 * self.min_events)),
                    evidence=len(symptoms),
                    detail=(
                        "sensor-implausibility corroborated"
                        if job in sensor_flags
                        else "interface evidence only"
                    ),
                )
            )
        return triggers


class IsolatedTransientOna(OutOfNormAssertion):
    """A single, non-recurring failure burst of one component: attributed
    to an external transient disturbance (SEU, sporadic EMI hit).

    Fires only when the component's failure evidence in the window is
    confined to one lattice point and a quiet period has passed since —
    i.e. the failure did *not* recur.  Recurring failures are the
    alpha-count's and the wearout ONA's case (§V-C: internal transients
    recur at the same location; isolated ones do not warrant maintenance).

    ``watch`` stays ``None``: the quiet-period predicate depends on the
    current lattice point, so the ONA can newly fire on an *unchanged*
    window and must run every epoch.
    """

    name = "isolated-transient"

    def __init__(self, quiet_points: int = 50) -> None:
        super().__init__()
        self.quiet_points = quiet_points

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        per_component: dict[str, set[int]] = defaultdict(set)
        for s in ctx.by_type(SymptomType.CRC_ERROR, SymptomType.OMISSION):
            if s.subject_job is None:
                per_component[s.subject_component].add(s.lattice_point)
        now_point = ctx.time_base.lattice_point(ctx.now_us)
        triggers: list[OnaTrigger] = []
        for name, points in sorted(per_component.items()):
            if len(points) > 2:
                continue  # recurring: not this ONA's case
            episodes = _episodes(sorted(points))
            if len(episodes) != 1:
                continue
            last = episodes[-1][1]
            if now_point - last < self.quiet_points:
                continue  # might still recur; wait
            if not self._once(name, last):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_EXTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=0.4,
                    evidence=len(points),
                    detail=(
                        f"single burst at point {episodes[0][0]}, quiet for "
                        f"{now_point - last} points"
                    ),
                )
            )
        return triggers


class ConfigurationOna(OutOfNormAssertion):
    """Job-borderline (configuration) faults: queue or bandwidth overflows
    while the producing jobs conform to their value specifications — 'a
    false configuration of the respective virtual network service is
    causing system malfunction' (§III-D)."""

    name = "configuration"
    watch = (
        SymptomType.QUEUE_OVERFLOW,
        SymptomType.VN_BUDGET_OVERFLOW,
        SymptomType.VALUE_VIOLATION,
    )

    def __init__(self, min_events: int = 2) -> None:
        super().__init__()
        self.min_events = min_events

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        overflows = ctx.by_type(
            SymptomType.QUEUE_OVERFLOW, SymptomType.VN_BUDGET_OVERFLOW
        )
        if not overflows:
            return []
        violating_jobs = {
            s.subject_job
            for s in ctx.by_type(SymptomType.VALUE_VIOLATION)
            if s.subject_job is not None
        }
        by_job: dict[str, list[Symptom]] = defaultdict(list)
        for s in overflows:
            if s.subject_job is not None:
                by_job[s.subject_job].append(s)
        triggers: list[OnaTrigger] = []
        for job, symptoms in sorted(by_job.items()):
            if len(symptoms) < self.min_events:
                continue
            if job in violating_jobs:
                continue  # not a pure configuration problem
            if not self._once(job, self._bucket(len(symptoms), self.min_events)):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.JOB_BORDERLINE,
                    subject=job_fru(job),
                    time_us=ctx.now_us,
                    confidence=min(1.0, len(symptoms) / (2.0 * self.min_events)),
                    evidence=len(symptoms),
                    detail=symptoms[0].detail,
                )
            )
        return triggers


class TimingOna(OutOfNormAssertion):
    """Persistent timing violations of one component's send instants: a
    component-internal fault of the timing source (quartz, §IV-A.1c)."""

    name = "timing"
    watch = (SymptomType.TIMING_VIOLATION, SymptomType.GUARDIAN_BLOCK)

    def __init__(self, min_events: int = 3) -> None:
        super().__init__()
        self.min_events = min_events

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        by_component: dict[str, list[Symptom]] = defaultdict(list)
        for s in ctx.by_type(
            SymptomType.TIMING_VIOLATION, SymptomType.GUARDIAN_BLOCK
        ):
            by_component[s.subject_component].append(s)
        triggers: list[OnaTrigger] = []
        for name, symptoms in sorted(by_component.items()):
            if len(symptoms) < self.min_events:
                continue
            if not self._once(name, self._bucket(len(symptoms), self.min_events)):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_INTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=min(1.0, len(symptoms) / (2.0 * self.min_events)),
                    evidence=len(symptoms),
                    detail="persistent send-instant deviation",
                )
            )
        return triggers


def default_onas() -> list[OutOfNormAssertion]:
    """The standard ONA battery deployed by the diagnostic DAS."""
    return [
        MassiveTransientOna(),
        ConnectorOna(),
        WearoutOna(),
        CorrelatedJobFailureOna(),
        SingleJobOna(),
        IsolatedTransientOna(),
        ConfigurationOna(),
        TimingOna(),
    ]


def ona_names() -> tuple[str, ...]:
    """Names of the standard ONA battery, in deployment order."""
    return tuple(ona.name for ona in default_onas())


def onas_without(disabled: Iterable[str]) -> list[OutOfNormAssertion]:
    """The standard battery minus the named assertions.

    The counterfactual replay engine uses this to answer "what would the
    verdicts have been without ONA class X" — the remaining assertions
    keep their deployment order.  Unknown names are a
    :class:`~repro.errors.ConfigurationError` (typos must not silently
    yield the full battery).
    """
    from repro.errors import ConfigurationError

    wanted = set(disabled)
    known = set(ona_names())
    unknown = sorted(wanted - known)
    if unknown:
        raise ConfigurationError(
            f"unknown ONA class(es) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [ona for ona in default_onas() if ona.name not in wanted]


# -- helpers -----------------------------------------------------------------


def _dominant(counter: Counter, total: int) -> tuple[str, float]:
    name, count = counter.most_common(1)[0]
    return name, count / total


def _episodes(points: list[int]) -> list[tuple[int, int]]:
    """Group sorted lattice points into maximal consecutive runs."""
    episodes: list[tuple[int, int]] = []
    if not points:
        return episodes
    start = prev = points[0]
    for p in points[1:]:
        if p == prev + 1:
            prev = p
            continue
        episodes.append((start, prev))
        start = prev = p
    episodes.append((start, prev))
    return episodes
