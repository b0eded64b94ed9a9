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

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from collections import deque
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

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

    ``window`` holds the symptom window in window order: accepted symptoms
    in acceptance order, minus the evicted ones.  Provenance walks it, the
    obs span reports its size, and :meth:`by_type` filters it.

    A context built by :class:`repro.core.assessment.DiagnosticAssessment`
    also carries what changed (the delta contract, docs/performance.md):

    * ``by_seq`` — the same window keyed by ``seq``, the number the
      assessment gave each accepted symptom (so seqs order symptoms
      across types);
    * ``appended`` — per type, the ``(seq, symptom)`` entries appended this
      epoch, in window order;
    * ``evicted`` — per type, the entries evicted since the previous
      epoch (pruning and repairs), in window order.  An entry appended and
      evicted in one epoch is in both;
    * ``stream`` — identifies the assessment these deltas belong to.

    Types without changes are absent from ``appended`` and ``evicted``.  A
    context without deltas (unit tests, ad-hoc callers) stands for a window
    that is all new: every ONA rebuilds from it and judges everything.
    """

    now_us: int
    time_base: SparseTimeBase
    window: Collection[Symptom]
    topology: Topology
    by_seq: Mapping[int, Symptom] | None = None
    appended: Mapping[SymptomType, list[tuple[int, Symptom]]] | None = None
    evicted: Mapping[SymptomType, list[tuple[int, Symptom]]] | None = None
    stream: object = None
    _type_cache: dict[tuple[SymptomType, ...], list[Symptom]] = field(
        default_factory=dict
    )

    def by_type(self, *types: SymptomType) -> list[Symptom]:
        """The window's symptoms of ``types``, in window order (memoised
        per type tuple, so ONAs sharing a query share one list)."""
        got = self._type_cache.get(types)
        if got is None:
            got = self._type_cache[types] = [
                s for s in self.window if s.type in types
            ]
        return got

    def entries(
        self, types: tuple[SymptomType, ...]
    ) -> list[tuple[int, Symptom]]:
        """The window's ``(seq, symptom)`` entries of ``types``, in window
        order.  Without ``by_seq``, ``seq`` is the window position."""
        if self.by_seq is None:
            return [(i, s) for i, s in enumerate(self.window) if s.type in types]
        return [(seq, s) for seq, s in self.by_seq.items() if s.type in types]


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

    The built-in ONAs also keep *derived state* (counts, point sets,
    episodes) that :meth:`_deltas` keeps in step with the window, and
    re-judge only the keys whose evidence changed — the delta contract of
    ``docs/performance.md``.  A key whose evidence did not change cannot
    fire: it was judged when its evidence last changed, and either fired
    then or failed on the same evidence.

    ``watch`` declares the symptom types an ONA's verdict depends on.  In
    an epoch where none of them had an append or an eviction, a full
    re-evaluation would regenerate exactly the keys already in ``_fired``,
    so :meth:`run` skips the ONA outright.  ONAs whose predicate also
    depends on the passage of time itself (e.g. a quiet-period wait) must
    leave ``watch`` as ``None`` and run every epoch.  An ONA whose
    :meth:`evaluate` reads the whole window (``ctx.by_type``) instead of
    calling :meth:`_deltas` is never skipped.
    """

    name: str = "ona"
    #: Symptom types the predicate reads; ``None`` disables skipping.
    watch: tuple[SymptomType, ...] | None = None

    def __init__(self) -> None:
        self._fired: set[tuple] = set()
        # The assessment delta stream the derived state was built from;
        # None after a context without deltas.
        self._stream: object = None

    def _once(self, *key) -> bool:
        """True exactly once per distinct key."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def _bucket(self, count: int, unit: int) -> int:
        """Quantise an evidence count so triggers re-fire as it grows."""
        return count // max(1, unit)

    def _deltas(
        self, ctx: OnaContext, types: tuple[SymptomType, ...]
    ) -> tuple[bool, list[tuple[int, Symptom]], list[tuple[int, Symptom]]]:
        """What changed in the window slice of ``types`` since this ONA
        last ran: ``(rebuild, appended, evicted)``, entries in window order.

        ``rebuild`` is True when the derived state must be reset first —
        the context carries no deltas, or deltas of a stream the state was
        not built from (the first epoch).  ``appended`` then holds the
        whole slice and ``evicted`` is empty.  An ONA is only skipped in
        epochs where its watched types did not change, so the deltas of
        the epochs it missed are empty.  Call once per evaluation, with
        every type the ONA reads.
        """
        stream = ctx.stream
        if ctx.appended is None or stream is None or stream is not self._stream:
            self._stream = stream if ctx.appended is not None else None
            return True, ctx.entries(types), []
        delta = []
        for changes in (ctx.appended, ctx.evicted or {}):
            parts = [changes[t] for t in types if t in changes]
            if len(parts) > 1:
                # Seqs are unique: sorting never compares symptoms.
                delta.append(sorted(chain.from_iterable(parts)))
            else:  # most epochs change one watched type or none
                delta.append(parts[0] if parts else [])
        return False, delta[0], delta[1]

    @abstractmethod
    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        """Return all *new* triggers for the current window."""

    def _evaluate_guarded(self, ctx: OnaContext) -> list[OnaTrigger]:
        """:meth:`evaluate`, skipped when the watched types did not change."""
        watch = self.watch
        appended = ctx.appended
        if watch is None or appended is None or ctx.stream is not self._stream:
            return self.evaluate(ctx)
        evicted = ctx.evicted or ()
        for t in watch:
            if t in appended or t in evicted:
                return self.evaluate(ctx)
        return []

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
        self._reset()

    def _reset(self) -> None:
        # Component-level CRC/omission evidence: the components failing at
        # each lattice point, and each component's failure points (its
        # span is their first and last).
        self._at: dict[int, list[str]] = {}
        self._points: dict[str, _PointBag] = {}
        # Points that failed only the coherence test, grouped by their
        # component set: only a span change of a member can let them fire.
        self._waiting: dict[tuple[str, ...], set[int]] = {}
        self._group_of: dict[int, tuple[str, ...]] = {}

    def _leave_group(self, p: int) -> None:
        group = self._group_of.pop(p, None)
        if group is not None:
            members = self._waiting[group]
            members.discard(p)
            if not members:
                del self._waiting[group]

    def _coherent(self, comp_list) -> bool:
        # Burst coherence: a correlated external disturbance hits all
        # victims over (nearly) the same interval.  A component that
        # fails on its own schedule — a dead node, a wearing-out unit —
        # has a failure span of its own; grouping it with a
        # coincidental victim would launder an internal fault into an
        # external attribution.
        points = self._points
        spans = [(points[c].points[0], points[c].points[-1]) for c in comp_list]
        limit = self.coherence_points
        return all(
            abs(a[0] - b[0]) <= limit and abs(a[1] - b[1]) <= limit
            for i, a in enumerate(spans)
            for b in spans[i + 1 :]
        )

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._reset()
        at, points = self._at, self._points
        moved: set[int] = set()  # points whose component set changed
        respanned: set[str] = set()  # components whose span changed
        for _, s in appended:
            if s.subject_job is not None:
                continue
            c, p = s.subject_component, s.lattice_point
            bag = points.get(c)
            if bag is None:
                bag = points[c] = _PointBag()
            if bag.add(p):
                at.setdefault(p, []).append(c)
                moved.add(p)
                if p == bag.points[0] or p == bag.points[-1]:
                    respanned.add(c)
        for _, s in evicted:
            if s.subject_job is not None:
                continue
            c, p = s.subject_component, s.lattice_point
            bag = points[c]
            if bag.remove(p):
                here = at[p]
                here.remove(c)
                if not here:
                    del at[p]
                moved.add(p)
                if not bag.points:
                    del points[c]
                elif p < bag.points[0] or p > bag.points[-1]:
                    respanned.add(c)
        if not moved:
            return []
        # A point's verdict reads the components within delta of it and
        # their spans.  Re-judge the points near a moved point, and the
        # waiting points whose group has a respanned member and is now
        # coherent; every other point would repeat its last verdict.
        delta = self.delta_points
        touched: set[int] = set()
        for q in moved:
            touched.update(range(q - delta, q + delta + 1))
        for p in touched:  # first, so every waiting group left is intact
            self._leave_group(p)
        dirty = {p for p in touched if p in at}
        for group, members in self._waiting.items():
            if not respanned.isdisjoint(group) and self._coherent(group):
                dirty |= members
        triggers: list[OnaTrigger] = []
        for p in sorted(dirty):
            self._leave_group(p)
            # Probe only the points within delta of p, so the cost stays
            # linear in the change (docs/performance.md).
            components: set[str] = set()
            for q in range(p - delta, p + delta + 1):
                near = at.get(q)
                if near:
                    components.update(near)
            if len(components) < self.min_components:
                continue
            comp_list = sorted(components)
            # Spatial proximity: all pairwise distances within radius.
            close = all(
                ctx.topology.distance(a, b) <= self.radius
                for i, a in enumerate(comp_list)
                for b in comp_list[i + 1 :]
            )
            if not close:
                continue
            if not self._coherent(comp_list):
                group = tuple(comp_list)
                self._group_of[p] = group
                self._waiting.setdefault(group, set()).add(p)
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


class _ChannelTally:
    """One channel's omissions: their seqs in window order, and how often
    each component appears as subject and as observer."""

    __slots__ = ("seqs", "subjects", "observers")

    def __init__(self) -> None:
        self.seqs: deque[int] = deque()
        self.subjects: dict[str, int] = {}
        self.observers: dict[str, int] = {}


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
        self._channels: dict[int, _ChannelTally] = {}

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._channels = {}
        channels = self._channels
        dirty: set[int] = set()
        for seq, s in appended:
            if s.channel is None:
                continue
            tally = channels.get(s.channel)
            if tally is None:
                tally = channels[s.channel] = _ChannelTally()
            tally.seqs.append(seq)
            subjects, observers = tally.subjects, tally.observers
            subjects[s.subject_component] = (
                subjects.get(s.subject_component, 0) + 1
            )
            observers[s.observer] = observers.get(s.observer, 0) + 1
            dirty.add(s.channel)
        for seq, s in evicted:
            if s.channel is None:
                continue
            tally = channels[s.channel]
            _discard(tally.seqs, seq)
            if not tally.seqs:
                del channels[s.channel]
                continue
            for counts, name in (
                (tally.subjects, s.subject_component),
                (tally.observers, s.observer),
            ):
                n = counts[name] - 1
                if n:
                    counts[name] = n
                else:
                    del counts[name]
            dirty.add(s.channel)
        # A fresh pass meets the channels in the order of their first
        # remaining omission; the triggers keep that order.
        order = sorted(
            (channels[channel].seqs[0], channel)
            for channel in dirty
            if channel in channels
        )
        triggers: list[OnaTrigger] = []
        for _, channel in order:
            tally = channels[channel]
            n = len(tally.seqs)
            if n < self.min_events:
                continue
            subjects, observers = tally.subjects, tally.observers
            # Ties for the top count never decide a culprit: a tied
            # dominant subject or observer has a share of at most 1/2
            # (< 0.8), and a tied hub fails the 2x-runner-up test.  The
            # ``single subject AND single observer`` case has one subject.
            # So counts alone decide, whatever the order of first
            # occurrence.
            dominant_subject, subject_count = max(
                subjects.items(), key=itemgetter(1)
            )
            subject_share = subject_count / n
            dominant_observer, observer_count = max(
                observers.items(), key=itemgetter(1)
            )
            observer_share = observer_count / n
            # Hub test: one component involved (as sender or receiver) in
            # nearly every omission on this channel -> its connector; a
            # loom fault involves all pairings with no single hub.
            involvement = dict(subjects)
            for name, count in observers.items():
                involvement[name] = involvement.get(name, 0) + count
            hub, hub_count = max(involvement.items(), key=itemgetter(1))
            counts = sorted(involvement.values(), reverse=True)
            runner_up = counts[1] if len(counts) > 1 else 0
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


class _Episodes:
    """One component's omission points grouped into episodes (maximal runs
    of consecutive points), kept up to date point by point."""

    __slots__ = ("seqs", "count", "starts", "end_of")

    def __init__(self) -> None:
        self.seqs: deque[int] = deque()  # its symptoms' seqs, in window order
        self.count: dict[int, int] = {}  # symptoms per point
        self.starts: list[int] = []  # episode starts, sorted
        self.end_of: dict[int, int] = {}  # episode start -> end

    def add(self, seq: int, p: int) -> None:
        self.seqs.append(seq)
        n = self.count.get(p, 0)
        self.count[p] = n + 1
        if n:
            return
        starts, end_of = self.starts, self.end_of
        left, right = p - 1 in self.count, p + 1 in self.count
        if left:
            start = starts[bisect_right(starts, p) - 1]
            if right:  # p joins two episodes
                end_of[start] = end_of.pop(p + 1)
                del starts[bisect_left(starts, p + 1)]
            else:
                end_of[start] = p
        elif right:  # p starts the episode that started at p + 1
            end_of[p] = end_of.pop(p + 1)
            starts[bisect_left(starts, p + 1)] = p
        else:
            insort(starts, p)
            end_of[p] = p

    def remove(self, seq: int, p: int) -> None:
        _discard(self.seqs, seq)
        n = self.count[p]
        if n > 1:
            self.count[p] = n - 1
            return
        del self.count[p]
        starts, end_of = self.starts, self.end_of
        i = bisect_right(starts, p) - 1
        start = starts[i]
        end = end_of[start]
        if start == end:
            del starts[i]
            del end_of[start]
        elif p == start:
            del end_of[start]
            starts[i] = p + 1
            end_of[p + 1] = end
        elif p == end:
            end_of[start] = p - 1
        else:  # p splits its episode
            end_of[start] = p - 1
            starts.insert(i + 1, p + 1)
            end_of[p + 1] = end


class WearoutOna(OutOfNormAssertion):
    """Fig. 8 'wearout': transient-failure episodes of one component whose
    frequency rises as time progresses — the paper's wearout indicator."""

    name = "wearout"
    watch = (SymptomType.OMISSION,)

    def __init__(self, min_episodes: int = 6, trend_factor: float = 2.0) -> None:
        super().__init__()
        self.min_episodes = min_episodes
        self.trend_factor = trend_factor
        self._components: dict[str, _Episodes] = {}

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._components = {}
        components = self._components
        dirty: set[str] = set()
        for seq, s in appended:
            if s.subject_job is None:
                state = components.get(s.subject_component)
                if state is None:
                    state = components[s.subject_component] = _Episodes()
                state.add(seq, s.lattice_point)
                dirty.add(s.subject_component)
        for seq, s in evicted:
            if s.subject_job is None:
                state = components[s.subject_component]
                state.remove(seq, s.lattice_point)
                if not state.seqs:
                    del components[s.subject_component]
                dirty.add(s.subject_component)
        # A fresh pass meets the components in the order of their first
        # remaining omission; the triggers keep that order.
        order = sorted(
            (components[name].seqs[0], name)
            for name in dirty
            if name in components
        )
        triggers: list[OnaTrigger] = []
        for _, name in order:
            starts = components[name].starts
            episodes = len(starts)
            if episodes < self.min_episodes:
                continue
            lo, hi = starts[0], starts[-1]
            if hi <= lo:
                continue
            mid = (lo + hi) / 2.0
            early = bisect_right(starts, mid)  # starts at or before mid
            late = episodes - early
            trend = (late + 0.5) / (early + 0.5)
            if trend < self.trend_factor:
                continue
            if not self._once(name, episodes):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_INTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=min(1.0, trend / (2.0 * self.trend_factor)),
                    evidence=episodes,
                    pattern=WEAROUT_PATTERN,
                    detail=f"{episodes} episodes, trend x{trend:.1f}",
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
        # component -> lattice point -> the failed job of each job symptom
        # there (a job repeats once per symptom, so an eviction can take
        # it away exactly).
        self._jobs: dict[str, dict[int, list[str]]] = {}

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._jobs = {}
        by_component = self._jobs
        moved: set[tuple[str, int]] = set()  # (component, point) job sets changed
        for _, s in appended:
            job = s.subject_job
            if job is None:
                continue
            at = by_component.get(s.subject_component)
            if at is None:
                at = by_component[s.subject_component] = {}
            jobs = at.get(s.lattice_point)
            if jobs is None:
                at[s.lattice_point] = [job]
                moved.add((s.subject_component, s.lattice_point))
            else:
                if job not in jobs:
                    moved.add((s.subject_component, s.lattice_point))
                jobs.append(job)
        for _, s in evicted:
            job = s.subject_job
            if job is None:
                continue
            at = by_component[s.subject_component]
            jobs = at[s.lattice_point]
            jobs.remove(job)
            if job not in jobs:
                moved.add((s.subject_component, s.lattice_point))
                if not jobs:
                    del at[s.lattice_point]
                    if not at:
                        del by_component[s.subject_component]
        # A key fires at most once (``_once`` would reject it again), and
        # its verdict reads the jobs within delta of its point: re-judge
        # the unfired keys near a changed one.
        fired = self._fired
        delta = self.delta_points
        dirty: set[tuple[str, int]] = set()
        for component, q in moved:
            at = by_component.get(component)
            if at is None:
                continue
            for point in range(q - delta, q + delta + 1):
                if point in at and (component, point) not in fired:
                    dirty.add((component, point))
        triggers: list[OnaTrigger] = []
        for component, point in sorted(dirty):
            at = by_component[component]
            all_jobs: set[str] = set()
            for p2 in range(point - delta, point + delta + 1):
                jobs2 = at.get(p2)
                if jobs2:
                    all_jobs.update(jobs2)
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


_JOB_VALUE_TYPES = (
    SymptomType.VALUE_VIOLATION,
    SymptomType.OMISSION,
    SymptomType.REPLICA_DEVIATION,
    SymptomType.SENSOR_IMPLAUSIBLE,
)
_COMPONENT_FAILURE_TYPES = (
    SymptomType.OMISSION,
    SymptomType.CRC_ERROR,
    SymptomType.TIMING_VIOLATION,
)


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
        self._reset()

    def _reset(self) -> None:
        # Component-level failure points per component.  A job symptom
        # raised while its host component itself was failing is a
        # job-*external* manifestation of the hardware fault, not a
        # job-level fault.  The suppression is time-proximate — a brief
        # disturbance must not veto job-level attribution for the rest of
        # the window.
        self._failures: dict[str, _PointBag] = {}
        # Job-level value symptoms per component and lattice point, the
        # sorted points, and the points a failure point explains.
        self._values: dict[str, dict[int, list[Symptom]]] = {}
        self._value_points: dict[str, list[int]] = {}
        self._explained: dict[str, set[int]] = {}
        # Per job: [unexplained symptoms, unexplained non-omissions].
        self._unexplained: dict[str, list[int]] = {}
        # Per component: the jobs with unexplained symptoms (to enforce
        # "only this job").
        self._jobs_on: dict[str, set[str]] = {}
        # VN budget overflows per component: job omissions there have a
        # configuration explanation (ConfigurationOna's case).
        self._budget: dict[str, int] = {}
        self._sensor: dict[str, int] = {}  # sensor flags per job

    def _count(self, s: Symptom, sign: int, changed: set[str]) -> None:
        job = s.subject_job
        counts = self._unexplained.get(job)
        if counts is None:
            counts = self._unexplained[job] = [0, 0]
        counts[0] += sign
        if s.type is not SymptomType.OMISSION:
            counts[1] += sign
        if not counts[0]:
            del self._unexplained[job]
        changed.add(job)

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._reset()
        failures, values = self._failures, self._values
        value_points, explained = self._value_points, self._explained
        changed_jobs: set[str] = set()
        changed_components: set[str] = set()
        recheck: set[tuple[str, int]] = set()  # value points to re-explain
        moved: list[tuple[str, int]] = []  # failure points added or gone
        for _, s in appended:
            t, job, c = s.type, s.subject_job, s.subject_component
            if t is SymptomType.VN_BUDGET_OVERFLOW:
                n = self._budget.get(c, 0)
                self._budget[c] = n + 1
                if not n:
                    changed_components.add(c)
            elif job is None:
                if t in _COMPONENT_FAILURE_TYPES:
                    bag = failures.get(c)
                    if bag is None:
                        bag = failures[c] = _PointBag()
                    if bag.add(s.lattice_point):
                        moved.append((c, s.lattice_point))
            elif t in _JOB_VALUE_TYPES:
                p = s.lattice_point
                at = values.get(c)
                if at is None:
                    at = values[c] = {}
                    value_points[c] = []
                    explained[c] = set()
                here = at.get(p)
                if here is None:
                    at[p] = [s]
                    insort(value_points[c], p)
                    recheck.add((c, p))
                else:
                    here.append(s)
                if p not in explained[c]:
                    self._count(s, 1, changed_jobs)
                if t is SymptomType.SENSOR_IMPLAUSIBLE:
                    self._sensor[job] = self._sensor.get(job, 0) + 1
        for _, s in evicted:
            t, job, c = s.type, s.subject_job, s.subject_component
            if t is SymptomType.VN_BUDGET_OVERFLOW:
                n = self._budget[c] - 1
                if n:
                    self._budget[c] = n
                else:
                    del self._budget[c]
                    changed_components.add(c)
            elif job is None:
                if t in _COMPONENT_FAILURE_TYPES:
                    bag = failures[c]
                    if bag.remove(s.lattice_point):
                        moved.append((c, s.lattice_point))
                        if not bag.points:
                            del failures[c]
            elif t in _JOB_VALUE_TYPES:
                p = s.lattice_point
                at = values[c]
                here = at[p]
                here.remove(s)
                if p not in explained[c]:
                    self._count(s, -1, changed_jobs)
                if not here:
                    del at[p]
                    points = value_points[c]
                    del points[bisect_left(points, p)]
                    explained[c].discard(p)
                    if not at:
                        del values[c], value_points[c], explained[c]
                if t is SymptomType.SENSOR_IMPLAUSIBLE:
                    n = self._sensor[job] - 1
                    if n:
                        self._sensor[job] = n
                    else:
                        del self._sensor[job]
        # A failure point at q can explain the value points within prox.
        prox = self.hw_proximity_points
        for c, q in moved:
            points = value_points.get(c)
            if points:
                i = bisect_left(points, q - prox)
                j = bisect_right(points, q + prox)
                recheck.update((c, p) for p in points[i:j])
        for c, p in recheck:
            here = values.get(c, {}).get(p)
            if here is None:
                continue
            bag = failures.get(c)
            now_explained = bag is not None and bag.near(p, prox)
            was_explained = p in explained[c]
            if now_explained == was_explained:
                continue
            if now_explained:
                explained[c].add(p)
            else:
                explained[c].discard(p)
            for s in here:
                self._count(s, -1 if now_explained else 1, changed_jobs)
        # A job's verdict reads its own counts, the set of jobs with
        # unexplained symptoms on its component, and that component's
        # budget overflows.  Sensor flags only choose the class of a
        # trigger that fires anyway.
        component_of_job = ctx.topology.component_of_job
        unexplained, jobs_on = self._unexplained, self._jobs_on
        dirty: set[str] = set()
        for job in changed_jobs:
            comp = component_of_job.get(job)
            if comp is None:
                continue  # never attributed: no host component
            on = jobs_on.get(comp)
            if on is None:
                on = jobs_on[comp] = set()
            if (job in unexplained) != (job in on):
                if job in on:
                    on.discard(job)
                else:
                    on.add(job)
                changed_components.add(comp)
            dirty.add(job)
        for comp in changed_components:
            dirty.update(jobs_on.get(comp, ()))
        triggers: list[OnaTrigger] = []
        for job in sorted(dirty):
            counts = unexplained.get(job)
            if counts is None:
                continue
            n, non_omissions = counts
            if n < self.min_events:
                continue
            comp = component_of_job[job]  # dirty jobs have a host
            if comp in self._budget and not non_omissions:
                continue  # message loss explained by the VN budget config
            if len(jobs_on[comp]) != 1:
                continue  # correlated failures: component-level ONA's case
            if not self._once(job, self._bucket(n, self.min_events)):
                continue
            sensor = job in self._sensor
            fault_class = (
                FaultClass.JOB_INHERENT_TRANSDUCER
                if sensor
                else FaultClass.JOB_INHERENT_SOFTWARE
            )
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=fault_class,
                    subject=job_fru(job),
                    time_us=ctx.now_us,
                    confidence=min(1.0, n / (2.0 * self.min_events)),
                    evidence=n,
                    detail=(
                        "sensor-implausibility corroborated"
                        if sensor
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
    window and must run every epoch.  Each epoch costs the changed
    components plus the candidates still waiting for their quiet period.
    """

    name = "isolated-transient"
    _TYPES = (SymptomType.CRC_ERROR, SymptomType.OMISSION)

    def __init__(self, quiet_points: int = 50) -> None:
        super().__init__()
        self.quiet_points = quiet_points
        self._points: dict[str, _PointBag] = {}
        # Components whose failure points form one episode of at most two
        # points and that have not passed their quiet period since.
        self._candidates: set[str] = set()

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self._TYPES)
        if rebuild:
            self._points = {}
            self._candidates = set()
        points, candidates = self._points, self._candidates
        changed: set[str] = set()
        for _, s in appended:
            if s.subject_job is None:
                bag = points.get(s.subject_component)
                if bag is None:
                    bag = points[s.subject_component] = _PointBag()
                if bag.add(s.lattice_point):
                    changed.add(s.subject_component)
        for _, s in evicted:
            if s.subject_job is None:
                bag = points[s.subject_component]
                if bag.remove(s.lattice_point):
                    changed.add(s.subject_component)
                    if not bag.points:
                        del points[s.subject_component]
        for name in changed:
            bag = points.get(name)
            # More than two points recur: not this ONA's case.
            if bag is not None and (
                len(bag.points) == 1
                or (len(bag.points) == 2 and bag.points[1] == bag.points[0] + 1)
            ):
                candidates.add(name)
            else:
                candidates.discard(name)
        now_point = ctx.time_base.lattice_point(ctx.now_us)
        triggers: list[OnaTrigger] = []
        for name in sorted(candidates):
            burst = points[name].points
            first, last = burst[0], burst[-1]
            if now_point - last < self.quiet_points:
                continue  # might still recur; wait
            # Judged on this evidence: ``_once`` would reject it from now
            # on, until the component's points change.
            candidates.discard(name)
            if not self._once(name, last):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_EXTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=0.4,
                    evidence=len(burst),
                    detail=(
                        f"single burst at point {first}, quiet for "
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
        # Per job: its overflow entries in window order (the first one's
        # detail goes into the trigger), and its value violations.
        self._overflows: dict[str, deque[tuple[int, Symptom]]] = {}
        self._violations: dict[str, int] = {}

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._overflows = {}
            self._violations = {}
        overflows, violations = self._overflows, self._violations
        dirty: set[str] = set()
        for entry in appended:
            job = entry[1].subject_job
            if job is None:
                continue
            if entry[1].type is SymptomType.VALUE_VIOLATION:
                violations[job] = violations.get(job, 0) + 1
            else:
                got = overflows.get(job)
                if got is None:
                    overflows[job] = deque((entry,))
                else:
                    got.append(entry)
            dirty.add(job)
        for seq, s in evicted:
            job = s.subject_job
            if job is None:
                continue
            if s.type is SymptomType.VALUE_VIOLATION:
                n = violations[job] - 1
                if n:
                    violations[job] = n
                else:
                    del violations[job]
            else:
                got = overflows[job]
                _discard(got, (seq, s))
                if not got:
                    del overflows[job]
            dirty.add(job)
        triggers: list[OnaTrigger] = []
        for job in sorted(dirty):
            entries = overflows.get(job)
            if entries is None or len(entries) < self.min_events:
                continue
            if job in violations:
                continue  # not a pure configuration problem
            n = len(entries)
            if not self._once(job, self._bucket(n, self.min_events)):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.JOB_BORDERLINE,
                    subject=job_fru(job),
                    time_us=ctx.now_us,
                    confidence=min(1.0, n / (2.0 * self.min_events)),
                    evidence=n,
                    detail=entries[0][1].detail,
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
        self._counts: dict[str, int] = {}

    def evaluate(self, ctx: OnaContext) -> list[OnaTrigger]:
        rebuild, appended, evicted = self._deltas(ctx, self.watch)
        if rebuild:
            self._counts = {}
        counts = self._counts
        dirty: set[str] = set()
        for _, s in appended:
            counts[s.subject_component] = counts.get(s.subject_component, 0) + 1
            dirty.add(s.subject_component)
        for _, s in evicted:
            n = counts[s.subject_component] - 1
            if n:
                counts[s.subject_component] = n
            else:
                del counts[s.subject_component]
            dirty.add(s.subject_component)
        triggers: list[OnaTrigger] = []
        for name in sorted(dirty):
            n = counts.get(name, 0)
            if n < self.min_events:
                continue
            if not self._once(name, self._bucket(n, self.min_events)):
                continue
            triggers.append(
                OnaTrigger(
                    ona=self.name,
                    fault_class=FaultClass.COMPONENT_INTERNAL,
                    subject=component_fru(name),
                    time_us=ctx.now_us,
                    confidence=min(1.0, n / (2.0 * self.min_events)),
                    evidence=n,
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


def _discard(entries: deque, item) -> None:
    """Remove ``item`` from a window-ordered deque.  Evictions take the
    oldest entries almost always, so this is O(1) but for late arrivals."""
    if entries[0] == item:
        entries.popleft()
    else:
        entries.remove(item)


class _PointBag:
    """A multiset of lattice points; ``points`` holds the distinct ones in
    ascending order."""

    __slots__ = ("count", "points")

    def __init__(self) -> None:
        self.count: dict[int, int] = {}
        self.points: list[int] = []

    def add(self, p: int) -> bool:
        """Add one occurrence; True when ``p`` is a new distinct point."""
        n = self.count.get(p, 0)
        self.count[p] = n + 1
        if n:
            return False
        points = self.points
        if not points or p > points[-1]:
            points.append(p)
        else:
            insort(points, p)
        return True

    def remove(self, p: int) -> bool:
        """Remove one occurrence; True when ``p`` is gone."""
        n = self.count[p]
        if n > 1:
            self.count[p] = n - 1
            return False
        del self.count[p]
        del self.points[bisect_left(self.points, p)]
        return True

    def near(self, p: int, reach: int) -> bool:
        """Whether a point lies within ``reach`` of ``p``."""
        points = self.points
        i = bisect_left(points, p - reach)
        return i < len(points) and points[i] <= p + reach
