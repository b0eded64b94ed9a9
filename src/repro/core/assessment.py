"""The diagnostic assessment pipeline (§V, Figs. 9-11).

:class:`DiagnosticAssessment` is the algorithmic heart of the diagnostic
DAS.  It operates on the distributed state: symptom messages arriving over
the virtual diagnostic network are deduplicated (several components observe
the same deviation), windowed on the sparse time base, and evaluated per
*assessment epoch*:

1. all deployed ONAs are evaluated over the window (deterministic
   triggers, §V-A);
2. per-component health observations feed the alpha-count bank (transient
   rate / persistency discrimination, §V-C);
3. ONA triggers feed the classifier's evidence ledger;
4. trust levels are updated — evidence against an FRU lowers its trust,
   conforming epochs let it recover (the Fig. 9 trajectories);
5. verdicts plus Fig. 11 maintenance recommendations are produced as
   :class:`FruHealthReport` records.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.classification import Classifier, Verdict
from repro.core.fault_model import FaultClass, FruRef, component_fru
from repro.core.maintenance import (
    MaintenanceRecommendation,
    determine_action,
)
from repro.core.ona import (
    OnaContext,
    OnaTrigger,
    OutOfNormAssertion,
    Topology,
    default_onas,
)
from repro.core.symptoms import Symptom, SymptomType
from repro.core.trust import TrustBank
from repro.obs import state as _obs
from repro.tta.time_base import SparseTimeBase


@dataclass(frozen=True, slots=True)
class EpochResult:
    """Outcome of one assessment epoch."""

    now_us: int
    new_symptoms: int
    triggers: tuple[OnaTrigger, ...]
    verdicts: tuple[Verdict, ...]


@dataclass(frozen=True, slots=True)
class FruHealthReport:
    """The diagnostic DAS output for one FRU (§II-D)."""

    fru: FruRef
    trust: float
    verdict: Verdict | None
    recommendation: MaintenanceRecommendation | None


class DiagnosticAssessment:
    """Epoch-driven assessment over the distributed symptom state.

    An epoch costs what changed in the window, not what it holds: the
    window evicts without scanning or rebuilding, and each ONA receives
    the symptoms appended and evicted since it last ran (the delta
    contract, ``docs/performance.md``).  The window's contents and order
    are acceptance order minus evicted symptoms, whatever the arrival
    order of lattice points.

    Parameters
    ----------
    topology:
        Static cluster facts for the ONAs' space dimension.
    time_base:
        The sparse time base used for lattice indexing and windows.
    onas:
        ONA battery; defaults to :func:`repro.core.ona.default_onas`.
    window_points:
        Length of the sliding symptom window in lattice points.  Must be
        long enough for the slow patterns (wearout trend) to accumulate.
    classifier / trust:
        Injectable for parameter studies; sensible defaults otherwise.
    """

    def __init__(
        self,
        topology: Topology,
        time_base: SparseTimeBase,
        onas: list[OutOfNormAssertion] | None = None,
        window_points: int = 5_000,
        classifier: Classifier | None = None,
        trust: TrustBank | None = None,
    ) -> None:
        self.topology = topology
        self.time_base = time_base
        self.onas = onas if onas is not None else default_onas()
        self.window_points = int(window_points)
        self.classifier = classifier if classifier is not None else Classifier()
        self.trust = trust if trust is not None else TrustBank()
        # The window: accepted symptoms keyed by a per-assessment sequence
        # number, in acceptance order; ``_window`` is a live view of the
        # symptoms alone.  Eviction finds its victims without scanning:
        # ``_in_order`` holds, oldest first, the seqs whose lattice point
        # was at least every earlier one (so its points never decrease),
        # ``_late`` is a heap of (point, seq) for the rest.  Seqs a repair
        # removed stay in either until they surface.  ``_evicted``
        # collects the removals since the last epoch for the ONAs (the
        # delta contract: see docs/performance.md).
        self._entries: dict[int, Symptom] = {}
        self._window = self._entries.values()
        self._seq = 0
        self._in_order: deque[int] = deque()
        self._late: list[tuple[int, int]] = []
        self._max_point: int | None = None
        self._evicted: dict[SymptomType, list[tuple[int, Symptom]]] = {}
        # Identifies this assessment's delta stream to the ONAs: an ONA
        # whose derived state was not built from it rebuilds from the
        # window.
        self._stream = object()
        self._seen_keys: set[tuple] = set()
        self._pending: list[Symptom] = []
        self.symptoms_total = 0
        self.symptoms_deduplicated = 0
        self.epochs_run = 0
        self.trigger_log: list[OnaTrigger] = []
        # First lattice point each subject showed a symptom — the anchor
        # for the diagnosis-latency histogram (trigger point minus first
        # evidence point, in lattice points).
        self._first_seen_point: dict[str, int] = {}

    # -- intake ------------------------------------------------------------

    def submit(self, symptoms: Iterable[Symptom]) -> int:
        """Queue incoming symptom messages; returns the accepted count.

        Duplicates (the same deviation reported by several observers) are
        merged via :meth:`Symptom.key`.
        """
        obs = _obs.ACTIVE
        obs_on = obs.enabled
        accepted = 0
        for symptom in symptoms:
            self.symptoms_total += 1
            if obs_on:
                obs.counters.inc("assessment.symptoms_submitted")
            key = symptom.key()
            if key in self._seen_keys:
                self.symptoms_deduplicated += 1
                if obs_on:
                    obs.counters.inc("assessment.symptoms_deduplicated")
                continue
            self._seen_keys.add(key)
            self._pending.append(symptom)
            accepted += 1
            for subject in (symptom.subject_component, symptom.subject_job):
                if subject is not None and subject not in self._first_seen_point:
                    self._first_seen_point[subject] = symptom.lattice_point
        return accepted

    # -- epoch processing -----------------------------------------------------

    def run_epoch(self, now_us: int) -> EpochResult:
        """Evaluate one assessment epoch at time ``now_us``."""
        self.epochs_run += 1
        obs = _obs.ACTIVE
        obs_on = obs.enabled
        span = (
            obs.tracer.span(
                "assessment.epoch",
                t_sim_us=int(now_us),
                pending=len(self._pending),
            )
            if obs_on
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            new_symptoms = self._pending
            self._pending = []
            appended = self._extend_window(new_symptoms)
            self._prune_window(now_us)
            evicted = self._evicted
            self._evicted = {}
            for removed in evicted.values():
                removed.sort()  # window order: seqs are unique

            # The window and the deltas are shared by reference: ONAs only
            # read them, and nothing mutates them until the next epoch.
            ctx = OnaContext(
                now_us=int(now_us),
                time_base=self.time_base,
                window=self._window,
                topology=self.topology,
                by_seq=self._entries,
                appended=appended,
                evicted=evicted,
                stream=self._stream,
            )
            triggers: list[OnaTrigger] = []
            for ona in self.onas:
                triggers.extend(ona.run(ctx))
            self.trigger_log.extend(triggers)
            self.classifier.ingest(triggers)

            self._feed_alpha_counts(new_symptoms, triggers, now_us)
            self._update_trust(new_symptoms, triggers, now_us)

            verdicts = tuple(self.classifier.verdicts())
            if obs_on:
                obs.counters.inc("assessment.epochs")
                now_point = self.time_base.lattice_point(int(now_us))
                for trigger in triggers:
                    first = self._first_seen_point.get(trigger.subject.name)
                    if first is not None:
                        obs.counters.observe(
                            "diagnosis.latency_points",
                            max(0, now_point - first),
                        )
            return EpochResult(
                now_us=int(now_us),
                new_symptoms=len(new_symptoms),
                triggers=tuple(triggers),
                verdicts=verdicts,
            )
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _extend_window(
        self, new_symptoms: list[Symptom]
    ) -> dict[SymptomType, list[tuple[int, Symptom]]]:
        """Append accepted symptoms; returns the appended entries per type."""
        appended: dict[SymptomType, list[tuple[int, Symptom]]] = {}
        entries = self._entries
        in_order = self._in_order
        max_point = self._max_point
        seq = self._seq
        for s in new_symptoms:
            seq += 1
            entries[seq] = s
            entry = (seq, s)
            got = appended.get(s.type)
            if got is None:
                appended[s.type] = [entry]
            else:
                got.append(entry)
            p = s.lattice_point
            if max_point is None or p >= max_point:
                max_point = p
                in_order.append(seq)
            else:
                heapq.heappush(self._late, (p, seq))
        self._seq = seq
        self._max_point = max_point
        return appended

    def _evict(self, seq: int) -> None:
        """Remove one window entry and record it for the ONAs."""
        s = self._entries.pop(seq)
        self._seen_keys.discard(s.key())
        got = self._evicted.get(s.type)
        if got is None:
            self._evicted[s.type] = [(seq, s)]
        else:
            got.append((seq, s))

    def _prune_window(self, now_us: int) -> None:
        """Evict every symptom older than the window.  The cost is what is
        evicted (plus the repaired seqs that surface), not the window."""
        horizon = self.time_base.lattice_point(now_us) - self.window_points
        if horizon <= 0:
            return
        entries = self._entries
        in_order = self._in_order
        while in_order:
            s = entries.get(in_order[0])
            if s is not None and s.lattice_point >= horizon:
                break  # every later in-order point is at least this one
            seq = in_order.popleft()
            if s is not None:  # None: a repair already removed it
                self._evict(seq)
        late = self._late
        while late and late[0][0] < horizon:
            seq = heapq.heappop(late)[1]
            if seq in entries:
                self._evict(seq)

    def _feed_alpha_counts(
        self,
        new_symptoms: list[Symptom],
        triggers: list[OnaTrigger],
        now_us: int,
    ) -> None:
        obs = _obs.ACTIVE
        prov = obs.provenance if obs.enabled else None
        failed: set[str] = set()
        for s in new_symptoms:
            if s.subject_job is None and s.type in (
                SymptomType.OMISSION,
                SymptomType.CRC_ERROR,
                SymptomType.TIMING_VIOLATION,
            ):
                failed.add(s.subject_component)
                if prov is not None:
                    # The symptoms that mark this component failed are the
                    # alpha-count's causal inputs this epoch.
                    symptom_id = prov.symptom_id(s.key())
                    if symptom_id is not None:
                        prov.add_alpha_evidence(
                            f"component:{s.subject_component}", symptom_id
                        )
        externally_explained = {
            t.subject.name
            for t in triggers
            if t.fault_class is FaultClass.COMPONENT_EXTERNAL
        }
        for component in self.topology.positions:
            self.classifier.observe_component_epoch(
                component,
                failed=component in failed,
                now_us=now_us,
                external_evidence=component in externally_explained,
            )

    def _update_trust(
        self,
        new_symptoms: list[Symptom],
        triggers: list[OnaTrigger],
        now_us: int,
    ) -> None:
        weights: dict[FruRef, float] = defaultdict(float)
        externally_explained = {
            t.subject.name
            for t in triggers
            if t.fault_class is FaultClass.COMPONENT_EXTERNAL
        }
        for trig in triggers:
            if trig.fault_class is FaultClass.COMPONENT_EXTERNAL:
                # External disturbances are not the FRU's fault: no demerit.
                continue
            weights[trig.subject] += trig.confidence
        for s in new_symptoms:
            if (
                s.subject_job is None
                and s.type in (SymptomType.OMISSION, SymptomType.CRC_ERROR)
                and s.subject_component not in externally_explained
            ):
                weights[component_fru(s.subject_component)] += 0.25
        # Every known FRU gets an epoch update; zero weight means recovery.
        for component in self.topology.positions:
            fru = component_fru(component)
            self.trust.update(str(fru), weights.pop(fru, 0.0), now_us)
        for fru, weight in weights.items():
            self.trust.update(str(fru), weight, now_us)

    def acknowledge_repair(self, fru: FruRef) -> None:
        """Reset the diagnostic state of a repaired FRU.

        The replaced/repaired unit starts with a clean record: evidence
        ledger, alpha-count and trust are cleared, and stale window
        symptoms about the old unit are purged so they cannot re-trigger
        ONAs against the new one.
        """
        self.classifier.clear(fru)
        self.trust.level(str(fru)).reset()
        self._first_seen_point.pop(fru.name, None)
        # One pass over the window finds the stale symptoms (a repair is
        # rare, an epoch is not); removing them costs what they number.
        name = fru.name
        entries = self._entries
        stale = [
            seq
            for seq, s in entries.items()
            if s.subject_component == name or s.subject_job == name
        ]
        for seq in stale:
            self._evict(seq)

    # -- outputs --------------------------------------------------------------

    def health_reports(
        self,
        software_updates_available: frozenset[str] = frozenset(),
        min_confidence: float = 0.3,
    ) -> list[FruHealthReport]:
        """Per-FRU health reports with Fig. 11 recommendations.

        ``software_updates_available`` names jobs for which the OEM has
        released a corrected version (switches FORWARD_TO_OEM to
        UPDATE_SOFTWARE).
        """
        reports: list[FruHealthReport] = []
        verdicts = {v.fru: v for v in self.classifier.verdicts(min_confidence)}
        trust_values = self.trust.values()
        frus = set(verdicts) | {
            component_fru(c) for c in self.topology.positions
        }
        for fru in sorted(frus, key=str):
            verdict = verdicts.get(fru)
            recommendation = None
            if verdict is not None:
                recommendation = determine_action(
                    verdict,
                    software_update_available=fru.name
                    in software_updates_available,
                )
            reports.append(
                FruHealthReport(
                    fru=fru,
                    trust=trust_values.get(str(fru), 1.0),
                    verdict=verdict,
                    recommendation=recommendation,
                )
            )
        return reports
