"""Differential property test: the delta-driven assessment against the
full-window original.

``DiagnosticAssessment`` keeps its window, per-type index and every ONA's
derived state up to date from the symptoms appended and evicted each
epoch, and re-judges only the keys whose evidence changed.  The reference
below keeps the previous window code (a list, filtered on eviction and on
repair) and the previous eight ``evaluate`` bodies verbatim, and
evaluates every ONA on the full window every epoch.  Hypothesis drives
both with the same random streams: every watched symptom type, job- and
component-level, lattice points out of order and duplicated, random epoch
boundaries, a window small enough that most examples evict, random
repairs, and random subsets of the battery or random ONA parameters.
Every epoch's result must be equal, trigger by trigger and field by
field, and so must the window, the fired keys and the final alpha-count
and trust states.

The scaling test pins the point of the change: with 20 000 symptoms in
the window, an epoch that appends one symptom and evicts one costs a
bounded amount, where rebuilding the index and re-running the battery
over the window cost tens of milliseconds.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from bisect import bisect_left
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.assessment import DiagnosticAssessment, EpochResult
from repro.core.fault_model import FaultClass, component_fru, job_fru
from repro.core.ona import (
    ConfigurationOna,
    ConnectorOna,
    CorrelatedJobFailureOna,
    IsolatedTransientOna,
    MassiveTransientOna,
    OnaContext,
    OnaTrigger,
    SingleJobOna,
    TimingOna,
    WearoutOna,
    ona_names,
    onas_without,
)
from repro.core.patterns import (
    CONNECTOR_PATTERN,
    MASSIVE_TRANSIENT_PATTERN,
    WEAROUT_PATTERN,
)
from repro.core.symptoms import Symptom, SymptomType

from tests.core.factory import TIME_BASE, sym, topology


# -- reference: the full-window ONAs -------------------------------------------


class ReferenceMassiveTransientOna(MassiveTransientOna):
    def evaluate(self, ctx):
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


class ReferenceConnectorOna(ConnectorOna):
    def _tally(self, ctx):
        # The parent's per-channel tallies, counted from zero: what its
        # incremental counting equalled after every epoch.
        channels = {}
        for s in ctx.by_type(SymptomType.CHANNEL_OMISSION):
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
        return channels

    def evaluate(self, ctx):
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


class ReferenceWearoutOna(WearoutOna):
    def evaluate(self, ctx):
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


class ReferenceCorrelatedJobFailureOna(CorrelatedJobFailureOna):
    def evaluate(self, ctx):
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


class ReferenceSingleJobOna(SingleJobOna):
    def evaluate(self, ctx):
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


class ReferenceIsolatedTransientOna(IsolatedTransientOna):
    def evaluate(self, ctx):
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


class ReferenceConfigurationOna(ConfigurationOna):
    def evaluate(self, ctx):
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


class ReferenceTimingOna(TimingOna):
    def evaluate(self, ctx):
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


REFERENCE = {
    cls.name: cls
    for cls in (
        ReferenceMassiveTransientOna,
        ReferenceConnectorOna,
        ReferenceWearoutOna,
        ReferenceCorrelatedJobFailureOna,
        ReferenceSingleJobOna,
        ReferenceIsolatedTransientOna,
        ReferenceConfigurationOna,
        ReferenceTimingOna,
    )
}


# -- reference: the full-window assessment -------------------------------------


class ReferenceAssessment(DiagnosticAssessment):
    """The previous window: a list, filtered on eviction and on repair.
    Every ONA is evaluated on the full window every epoch (a context
    without deltas), so no skipping and no derived state is involved."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._window = []

    def run_epoch(self, now_us: int) -> EpochResult:
        self.epochs_run += 1
        new_symptoms = self._pending
        self._pending = []
        self._window.extend(new_symptoms)
        self._prune_window(now_us)
        ctx = OnaContext(
            now_us=int(now_us),
            time_base=self.time_base,
            window=list(self._window),
            topology=self.topology,
        )
        triggers: list[OnaTrigger] = []
        for ona in self.onas:
            triggers.extend(ona.run(ctx))
        self.trigger_log.extend(triggers)
        self.classifier.ingest(triggers)
        self._feed_alpha_counts(new_symptoms, triggers, now_us)
        self._update_trust(new_symptoms, triggers, now_us)
        return EpochResult(
            now_us=int(now_us),
            new_symptoms=len(new_symptoms),
            triggers=tuple(triggers),
            verdicts=tuple(self.classifier.verdicts()),
        )

    def _prune_window(self, now_us: int) -> None:
        horizon = self.time_base.lattice_point(now_us) - self.window_points
        if horizon <= 0 or not self._window:
            return
        kept = [s for s in self._window if s.lattice_point >= horizon]
        if len(kept) != len(self._window):
            dropped = {
                s.key() for s in self._window if s.lattice_point < horizon
            }
            self._seen_keys -= dropped
            self._window = kept

    def acknowledge_repair(self, fru) -> None:
        self.classifier.clear(fru)
        self.trust.level(str(fru)).reset()
        self._first_seen_point.pop(fru.name, None)
        stale = [
            s
            for s in self._window
            if s.subject_component == fru.name or s.subject_job == fru.name
        ]
        if stale:
            keys = {s.key() for s in stale}
            self._seen_keys -= keys
            self._window = [s for s in self._window if s not in stale]


# -- random symptom streams ----------------------------------------------------

_TOPOLOGY = topology()
COMPONENTS = tuple(sorted(_TOPOLOGY.positions))
JOBS = tuple(sorted(_TOPOLOGY.component_of_job))
# Every type an ONA watches, plus two nobody watches (epochs in which no
# ONA but the isolated-transient one is entered).
TYPES = tuple(SymptomType)
TRAIN_TYPES = (
    SymptomType.OMISSION,
    SymptomType.CRC_ERROR,
    SymptomType.TIMING_VIOLATION,
)


@st.composite
def symptoms_near(draw, now_point: int) -> Symptom:
    type_ = draw(st.sampled_from(TYPES))
    comp = draw(st.sampled_from(COMPONENTS))
    pick = draw(st.integers(-3, 3))
    if pick < 0:
        job = None  # component-level
    elif pick == 3:
        # Possibly hosted elsewhere, or by no component at all.
        job = draw(st.sampled_from(JOBS + ("ghost",)))
    else:
        jobs = _TOPOLOGY.jobs_on(comp)
        job = jobs[pick % len(jobs)]
    return sym(
        type=type_,
        subject=comp,
        # Late arrivals and duplicates: up to 40 points behind "now".
        point=now_point - draw(st.integers(0, 40)),
        observer=draw(st.sampled_from(COMPONENTS)),
        job=job,
        # The channel is part of the deduplication key: with it, one
        # component can fail twice at one point.
        channel=draw(st.sampled_from((None, 0, 1))),
        detail=draw(st.sampled_from(("", "queue A3.in", "budget"))),
    )


@st.composite
def scenarios(draw):
    """A window length and a list of submit / epoch / repair steps."""
    window_points = draw(st.integers(3, 120))
    steps = []
    now_point = 0
    for _ in range(draw(st.integers(1, 40))):
        now_point += draw(st.integers(0, 20))
        batch = draw(st.lists(symptoms_near(now_point), max_size=10))
        if batch and draw(st.integers(0, 4)) == 0:
            # A burst: the same deviation on several components at once.
            first = batch[0]
            batch += [first._replace(subject_component=c) for c in COMPONENTS]
        if draw(st.integers(0, 3)) == 0:
            # A failure train of one component: runs of consecutive
            # points (episodes) with gaps, arriving in one batch.
            offsets = draw(st.sets(st.integers(0, 30), max_size=20))
            comp = draw(st.sampled_from(COMPONENTS))
            type_ = draw(st.sampled_from(TRAIN_TYPES))
            batch += [
                sym(type=type_, subject=comp, point=now_point - 30 + k)
                for k in sorted(offsets)
            ]
        if batch:
            steps.append(("submit", batch))
        if draw(st.integers(0, 11)) == 0:
            if draw(st.booleans()):
                fru = component_fru(draw(st.sampled_from(COMPONENTS)))
            else:
                fru = job_fru(draw(st.sampled_from(JOBS)))
            steps.append(("repair", fru))
        if draw(st.integers(0, 2)):
            steps.append(("epoch", now_point * 1000 + draw(st.integers(0, 999))))
    steps.append(("epoch", (now_point + 100) * 1000))
    return window_points, steps


@st.composite
def batteries(draw):
    """Random parameters for all eight ONAs, as (class name, kwargs)."""
    return [
        (
            "massive-transient",
            dict(
                min_components=draw(st.integers(1, 3)),
                delta_points=draw(st.integers(0, 3)),
                radius=draw(st.sampled_from((1.5, 5.0))),
                coherence_points=draw(st.integers(0, 60)),
            ),
        ),
        ("connector", dict(min_events=draw(st.integers(1, 4)))),
        (
            "wearout",
            dict(
                min_episodes=draw(st.integers(1, 6)),
                trend_factor=draw(st.sampled_from((0.5, 1.0, 2.0))),
            ),
        ),
        (
            "correlated-job-failure",
            dict(
                min_dases=draw(st.integers(1, 3)),
                delta_points=draw(st.integers(0, 3)),
            ),
        ),
        (
            "single-job",
            dict(
                min_events=draw(st.integers(1, 3)),
                hw_proximity_points=draw(st.sampled_from((0, 1, 5, 20))),
            ),
        ),
        ("isolated-transient", dict(quiet_points=draw(st.integers(0, 60)))),
        ("configuration", dict(min_events=draw(st.integers(1, 3)))),
        ("timing", dict(min_events=draw(st.integers(1, 4)))),
    ]


# -- the differential check ----------------------------------------------------


def assert_same_result(got: EpochResult, want: EpochResult, step: int) -> None:
    assert got.now_us == want.now_us, step
    assert got.new_symptoms == want.new_symptoms, step
    assert len(got.triggers) == len(want.triggers), (step, got, want)
    for g, w in zip(got.triggers, want.triggers):
        for f in dataclasses.fields(OnaTrigger):
            assert getattr(g, f.name) == getattr(w, f.name), (step, f.name, g, w)
    assert got.verdicts == want.verdicts, step


def run_both(window_points, steps, real_onas, reference_onas) -> list:
    """Feed both assessments the same steps; returns the epoch results."""
    results = []
    real = DiagnosticAssessment(
        topology(), TIME_BASE, onas=real_onas, window_points=window_points
    )
    ref = ReferenceAssessment(
        topology(), TIME_BASE, onas=reference_onas, window_points=window_points
    )
    for step, (kind, arg) in enumerate(steps):
        if kind == "submit":
            assert real.submit(arg) == ref.submit(arg)
        elif kind == "repair":
            real.acknowledge_repair(arg)
            ref.acknowledge_repair(arg)
        else:
            results.append(real.run_epoch(arg))
            assert_same_result(results[-1], ref.run_epoch(arg), step)
            assert list(real._window) == ref._window, step
            assert real._seen_keys == ref._seen_keys, step
    for mine, theirs in zip(real.onas, ref.onas):
        assert mine._fired == theirs._fired, mine.name
    alpha = real.classifier.alpha._counts
    assert alpha.keys() == ref.classifier.alpha._counts.keys()
    for name, count in alpha.items():
        assert count == ref.classifier.alpha._counts[name], name
    assert real.trust.values() == ref.trust.values()
    assert real.classifier.verdicts() == ref.classifier.verdicts()
    return results


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.sets(st.sampled_from(ona_names())))
def test_epochs_match_the_full_window_reference(scenario, disabled):
    window_points, steps = scenario
    reference = [REFERENCE[name]() for name in ona_names() if name not in disabled]
    run_both(window_points, steps, onas_without(disabled), reference)


@settings(max_examples=150, deadline=None)
@given(scenarios(), batteries())
def test_random_parameters_match_the_full_window_reference(scenario, battery):
    window_points, steps = scenario
    real_classes = {
        cls.name: cls
        for cls in (
            MassiveTransientOna,
            ConnectorOna,
            WearoutOna,
            CorrelatedJobFailureOna,
            SingleJobOna,
            IsolatedTransientOna,
            ConfigurationOna,
            TimingOna,
        )
    }
    run_both(
        window_points,
        steps,
        [real_classes[name](**kwargs) for name, kwargs in battery],
        [REFERENCE[name](**kwargs) for name, kwargs in battery],
    )


def test_trigger_order_follows_the_first_remaining_occurrence():
    """Connector channels and wearout components that fire in one epoch
    come out in the order of their first symptom still in the window: not
    sorted, and changed by an eviction."""
    omission = SymptomType.OMISSION
    lost = SymptomType.CHANNEL_OMISSION

    def on(channel, point):
        return sym(type=lost, subject="comp2", channel=channel, point=point)

    steps = [
        ("submit", [sym(type=omission, subject="comp3", point=1), on(1, 1)]),
        ("submit", [sym(type=omission, subject="comp1", point=2), on(0, 2)]),
        ("epoch", 3_000),
        ("submit", [sym(type=omission, subject="comp1", point=5), on(0, 5)]),
        ("submit", [sym(type=omission, subject="comp3", point=6), on(1, 6)]),
        ("epoch", 7_000),  # comp3 before comp1, channel 1 before channel 0
        ("submit", [sym(type=omission, subject="comp1", point=30), on(0, 30)]),
        ("submit", [sym(type=omission, subject="comp3", point=31), on(1, 31)]),
        ("submit", [sym(type=omission, subject="comp1", point=33), on(0, 33)]),
        ("submit", [sym(type=omission, subject="comp3", point=34), on(1, 34)]),
        ("epoch", 35_000),  # points 1 and 2 evicted: comp1 and channel 0 first
    ]
    battery = [
        ("connector", dict(min_events=1)),
        ("wearout", dict(min_episodes=2, trend_factor=0.5)),
    ]
    results = run_both(
        30,
        steps,
        [ConnectorOna(min_events=1), WearoutOna(min_episodes=2, trend_factor=0.5)],
        [REFERENCE[name](**kwargs) for name, kwargs in battery],
    )
    fired = [
        [(t.subject.name, t.detail.split(",")[0]) for t in r.triggers]
        for r in results
    ]
    assert [subject for subject, _ in fired[1]][-2:] == ["comp3", "comp1"]
    assert [detail for _, detail in fired[1]][:2] == ["channel 1", "channel 0"]
    assert [subject for subject, _ in fired[2]][-2:] == ["comp1", "comp3"]
    assert [detail for _, detail in fired[2]][:2] == ["channel 0", "channel 1"]


def test_context_without_deltas_rebuilds_after_an_assessment_stream():
    """An ONA fed by an assessment and then by a hand-built context judges
    the hand-built window alone, and re-joins the assessment by
    rebuilding from its window, not from the hand-built one."""

    def timing(subject, point):
        return sym(type=SymptomType.TIMING_VIOLATION, subject=subject, point=point)

    assessment = DiagnosticAssessment(
        topology(), TIME_BASE, onas=[TimingOna()], window_points=100
    )
    assessment.submit([timing("comp2", 1), timing("comp2", 2)])
    assert assessment.run_epoch(5_000).triggers == ()
    ona = assessment.onas[0]
    hand_built = OnaContext(
        9_000, TIME_BASE, [timing("comp4", p) for p in (1, 2, 3)], topology()
    )
    assert [t.subject.name for t in ona.evaluate(hand_built)] == ["comp4"]
    assessment.submit([timing("comp2", 3)])
    triggers = assessment.run_epoch(6_000).triggers
    assert [(t.subject.name, t.evidence) for t in triggers] == [("comp2", 3)]


# -- scaling ---------------------------------------------------------------------

N_WINDOW = 20_000


def _mixed(point: int) -> Symptom:
    """One symptom per lattice point, cycling through every watched type
    and every component, so that all eight ONAs hold thousands of rows."""
    comp = COMPONENTS[(point // 10) % len(COMPONENTS)]
    job = _TOPOLOGY.jobs_on(comp)[point % len(_TOPOLOGY.jobs_on(comp))]
    kind = point % 10
    if kind in (0, 1):
        return sym(
            type=SymptomType.CHANNEL_OMISSION,
            subject=comp,
            observer=COMPONENTS[(point // 10 + 1) % len(COMPONENTS)],
            channel=kind,
            point=point,
        )
    type_, level = {
        2: (SymptomType.VALUE_VIOLATION, "job"),
        3: (SymptomType.OMISSION, "component"),
        4: (SymptomType.CRC_ERROR, "component"),
        5: (SymptomType.QUEUE_OVERFLOW, "job"),
        6: (SymptomType.TIMING_VIOLATION, "component"),
        7: (SymptomType.REPLICA_DEVIATION, "job"),
        8: (SymptomType.SENSOR_IMPLAUSIBLE, "job"),
        9: (SymptomType.VN_BUDGET_OVERFLOW, "job"),
    }[kind]
    return sym(
        type=type_,
        subject=comp,
        job=job if level == "job" else None,
        point=point,
    )


def test_one_append_and_one_eviction_cost_what_changed():
    """20 000 symptoms in the window; each timed epoch appends one symptom
    and evicts one.  The window and all eight ONAs together must stay
    under 5 ms per epoch (median of 30)."""
    assessment = DiagnosticAssessment(
        topology(), TIME_BASE, window_points=N_WINDOW
    )
    assessment.submit([_mixed(p) for p in range(N_WINDOW)])
    assessment.run_epoch((N_WINDOW - 1) * 1000)  # builds the ONA state
    assessment.submit([_mixed(N_WINDOW)])
    assessment.run_epoch(N_WINDOW * 1000)  # first epoch that can evict
    size = len(assessment._window)
    assert size >= N_WINDOW
    elapsed = []
    for point in range(N_WINDOW + 1, N_WINDOW + 31):
        assessment.submit([_mixed(point)])
        start = time.perf_counter()
        assessment.run_epoch(point * 1000)
        elapsed.append(time.perf_counter() - start)
        assert len(assessment._window) == size  # one in, one out
    median = statistics.median(elapsed)
    assert median < 0.005, f"median epoch {median * 1e3:.2f} ms"
