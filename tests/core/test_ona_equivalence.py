"""Differential tests: the neighbourhood-lookup ONAs against the all-pairs
originals.

``MassiveTransientOna``, ``CorrelatedJobFailureOna`` and ``SingleJobOna``
answer their proximity questions with dict probes bounded by
``delta_points`` and with ``bisect`` instead of comparing every window key
with every other key.  The reference subclasses below keep the all-pairs
``evaluate`` bodies verbatim; Hypothesis checks that both produce the same
trigger lists, field by field, on random windows — including a growing
window evaluated epoch after epoch on one instance, so that the fired-key
memory carries over exactly as in an assessment run.

The scaling tests pin the point of the change: a 20 000-key window must be
evaluated in well under a second, where the all-pairs code needs ~4x10^8
comparisons.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.fault_model import FaultClass, component_fru, job_fru
from repro.core.ona import (
    CorrelatedJobFailureOna,
    MassiveTransientOna,
    OnaTrigger,
    SingleJobOna,
)
from repro.core.patterns import MASSIVE_TRANSIENT_PATTERN
from repro.core.symptoms import Symptom, SymptomType

from tests.core.factory import ctx, sym, topology


# -- reference implementations (all-pairs, as before the change) ---------------


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
        points = sorted(by_point)
        for p in points:
            components: set[str] = set()
            for q in points:
                if abs(q - p) <= self.delta_points:
                    components |= by_point[q]
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
        for (component, point), jobs in sorted(by_comp_point.items()):
            # widen by delta
            all_jobs = set(jobs)
            for (c2, p2), jobs2 in by_comp_point.items():
                if c2 == component and abs(p2 - point) <= self.delta_points:
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

        def hw_explained(symptom: Symptom) -> bool:
            points = hw_failure_points.get(symptom.subject_component)
            if not points:
                return False
            p = symptom.lattice_point
            return any(
                abs(p - q) <= self.hw_proximity_points for q in points
            )
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


# -- random windows -------------------------------------------------------------

TYPES = (
    SymptomType.OMISSION,
    SymptomType.CRC_ERROR,
    SymptomType.VALUE_VIOLATION,
    SymptomType.REPLICA_DEVIATION,
    SymptomType.SENSOR_IMPLAUSIBLE,
    SymptomType.VN_BUDGET_OVERFLOW,
    SymptomType.TIMING_VIOLATION,
)
# comp1..comp3 each host jobs of several DASs; comp4 hosts one job.
COMPONENTS = ("comp1", "comp2", "comp3", "comp4")
_TOPOLOGY = topology()


@st.composite
def windows(draw, max_size=400):
    """0..max_size symptoms over 1..4 components on a narrow lattice range
    (negative points and duplicates included), job-level or not."""
    comps = COMPONENTS[: draw(st.integers(1, len(COMPONENTS)))]
    lo = draw(st.integers(-60, 0))
    span = draw(st.integers(0, 120))
    # Draw the size first: Hypothesis' own list sizes rarely come near 400.
    size = draw(st.integers(0, max_size))
    items = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TYPES),
                st.sampled_from(comps),
                st.integers(lo, lo + span),
                st.integers(-1, 3),
            ),
            min_size=size,
            max_size=size,
        )
    )
    window = []
    for type_, comp, point, job_pick in items:
        jobs = _TOPOLOGY.jobs_on(comp)
        job = None if job_pick < 0 else jobs[job_pick % len(jobs)]
        window.append(sym(type=type_, subject=comp, point=point, job=job))
    return window


def assert_same_triggers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(OnaTrigger):
            assert getattr(g, f.name) == getattr(w, f.name), f.name


def assert_equivalent_over_epochs(new, ref, window, cuts):
    """Evaluate growing prefixes of ``window`` on the same two instances."""
    for end in sorted(cuts) + [len(window)]:
        prefix = window[:end]
        assert_same_triggers(new.evaluate(ctx(prefix)), ref.evaluate(ctx(prefix)))
    assert new._fired == ref._fired


DELTAS = st.sampled_from((0, 1, 3))
CUTS = st.lists(st.integers(0, 400), max_size=4)


@settings(max_examples=100, deadline=None)
@given(windows(), DELTAS, CUTS, st.sampled_from((1.5, 5.0)))
def test_massive_transient_matches_all_pairs(window, delta, cuts, radius):
    kwargs = dict(delta_points=delta, radius=radius)
    assert_equivalent_over_epochs(
        MassiveTransientOna(**kwargs),
        ReferenceMassiveTransientOna(**kwargs),
        window,
        cuts,
    )


@settings(max_examples=100, deadline=None)
@given(windows(), DELTAS, CUTS, st.integers(1, 3))
def test_correlated_job_failure_matches_all_pairs(window, delta, cuts, dases):
    kwargs = dict(delta_points=delta, min_dases=dases)
    assert_equivalent_over_epochs(
        CorrelatedJobFailureOna(**kwargs),
        ReferenceCorrelatedJobFailureOna(**kwargs),
        window,
        cuts,
    )


@settings(max_examples=100, deadline=None)
@given(windows(), DELTAS, st.sampled_from((0, 1, 20)), CUTS)
def test_single_job_matches_all_pairs(window, delta, prox, cuts):
    kwargs = dict(delta_points=delta, hw_proximity_points=prox)
    assert_equivalent_over_epochs(
        SingleJobOna(**kwargs), ReferenceSingleJobOna(**kwargs), window, cuts
    )


# -- scaling --------------------------------------------------------------------

N_KEYS = 20_000


def _timed_evaluate(ona, window):
    context = ctx(window)
    start = time.perf_counter()
    triggers = ona.evaluate(context)
    return triggers, time.perf_counter() - start


def test_job_onas_scale_linearly_in_the_window():
    """20 000 distinct (component, point) job keys, each isolated."""
    window = [
        sym(
            type=SymptomType.VALUE_VIOLATION,
            subject=COMPONENTS[i % 3],
            point=10 * (i // 3),
            job=_TOPOLOGY.jobs_on(COMPONENTS[i % 3])[0],
        )
        for i in range(N_KEYS)
    ]
    # Component-level failures near every job key keep SingleJobOna's
    # suppression query busy without emptying its output.
    window += [
        sym(type=SymptomType.OMISSION, subject="comp3", point=10 * k)
        for k in range(N_KEYS // 3)
    ]
    for ona in (CorrelatedJobFailureOna(), SingleJobOna()):
        _, elapsed = _timed_evaluate(ona, window)
        assert elapsed < 1.0, f"{type(ona).__name__}: {elapsed:.2f} s"


def test_massive_transient_scales_linearly_in_the_window():
    """20 000 distinct component-level CRC points, none close to another
    component's."""
    window = [
        sym(type=SymptomType.CRC_ERROR, subject=COMPONENTS[i % 2], point=5 * i)
        for i in range(N_KEYS)
    ]
    triggers, elapsed = _timed_evaluate(MassiveTransientOna(), window)
    assert triggers == []
    assert elapsed < 1.0, f"{elapsed:.2f} s"
