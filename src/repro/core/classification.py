"""Fault classification — reversing the fault-error-failure chain (§III-B).

The classifier consumes the evidence streams of the diagnostic DAS —
deterministic ONA triggers plus the alpha-count scores — and produces, per
FRU, a verdict: the maintenance-oriented fault class the experienced
failures are attributed to, with a confidence.  This is the executable
counterpart of "it must be possible for the diagnostic subsystem to
determine whether a change of a FRU can eliminate the experienced problem,
or if a replacement will prove to be ineffective".

Discrimination rules implemented (§V-C):

* ONA triggers accumulate class weight on their subject FRU.
* The alpha-count bank separates *recurring* component failures from
  sporadic ones: a triggered alpha-count adds component-internal weight —
  **unless** the failure epochs were dominated by external co-evidence
  (massive-transient triggers covering the same epochs), in which case the
  external attribution stands ("transient component internal faults tend
  to occur at a higher rate ... and occur repeatedly at the same
  location").
* A permanent-failure heuristic (all recent epochs failed) upgrades the
  persistence estimate, which the maintenance layer reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.alpha_count import AlphaCountBank
from repro.core.fault_model import (
    FaultClass,
    FruKind,
    FruRef,
    Persistence,
    component_fru,
)
from repro.core.ona import OnaTrigger


@dataclass(frozen=True, slots=True)
class Verdict:
    """The classifier's attribution for one FRU."""

    fru: FruRef
    fault_class: FaultClass
    confidence: float
    evidence: int
    persistence: Persistence
    detail: str = ""


@dataclass(slots=True)
class _FruEvidence:
    weights: dict[FaultClass, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    counts: dict[FaultClass, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    last_trigger_us: int = 0
    failed_epochs: int = 0
    epochs: int = 0
    recent_epoch_failures: list[bool] = field(default_factory=list)
    external_covered_failures: int = 0


class Classifier:
    """Accumulates evidence and issues per-FRU verdicts.

    Parameters
    ----------
    alpha_decay / alpha_threshold:
        Parameters of the alpha-count bank fed with per-epoch component
        failure observations.
    permanence_window:
        Number of most recent epochs inspected for the permanent-failure
        heuristic.
    """

    def __init__(
        self,
        alpha_decay: float = 0.995,
        alpha_threshold: float = 3.0,
        permanence_window: int = 8,
    ) -> None:
        self.alpha = AlphaCountBank(alpha_decay, alpha_threshold)
        self.permanence_window = permanence_window
        self._evidence: dict[FruRef, _FruEvidence] = {}

    # -- evidence intake ----------------------------------------------------

    def _fru(self, fru: FruRef) -> _FruEvidence:
        ev = self._evidence.get(fru)
        if ev is None:
            ev = _FruEvidence()
            self._evidence[fru] = ev
        return ev

    def ingest(self, triggers: list[OnaTrigger]) -> None:
        """Fold a batch of ONA triggers into the ledger."""
        for trig in triggers:
            ev = self._fru(trig.subject)
            ev.weights[trig.fault_class] += trig.confidence
            ev.counts[trig.fault_class] += 1
            ev.last_trigger_us = max(ev.last_trigger_us, trig.time_us)

    def observe_component_epoch(
        self,
        component: str,
        failed: bool,
        now_us: int,
        external_evidence: bool = False,
    ) -> None:
        """Per-epoch health observation of one component.

        ``failed`` means the component violated its specification during
        the epoch (missed frames / corrupted frames / timing).
        ``external_evidence`` marks epochs whose failure coincided with a
        cluster-wide external explanation (massive-transient trigger).
        """
        fru = component_fru(component)
        ev = self._fru(fru)
        ev.epochs += 1
        if failed:
            ev.failed_epochs += 1
            if external_evidence:
                ev.external_covered_failures += 1
        ev.recent_epoch_failures.append(failed)
        if len(ev.recent_epoch_failures) > self.permanence_window:
            ev.recent_epoch_failures.pop(0)
        # The alpha-count only accumulates on failures lacking an external
        # explanation; externally explained epochs count as correct.
        self.alpha.observe(str(fru), failed and not external_evidence, now_us)

    # -- verdicts -------------------------------------------------------------

    def verdicts(self, min_confidence: float = 0.3) -> list[Verdict]:
        """Current per-FRU attributions, strongest first."""
        out: list[Verdict] = []
        for fru, ev in self._evidence.items():
            weights = dict(ev.weights)
            # alpha-count contribution (component FRUs only).
            if fru.kind is FruKind.COMPONENT:
                ac = self.alpha.count(str(fru))
                if ac.has_triggered:
                    unexplained = ev.failed_epochs - ev.external_covered_failures
                    if unexplained > ev.external_covered_failures:
                        weights[FaultClass.COMPONENT_INTERNAL] = (
                            weights.get(FaultClass.COMPONENT_INTERNAL, 0.0)
                            + min(2.0, ac.peak_score / ac.threshold)
                        )
            if not weights:
                continue
            ranked = sorted(weights.items(), key=lambda item: -item[1])
            top_class, top_weight = ranked[0]
            if min(1.0, top_weight) < min_confidence:
                continue
            # Primary verdict plus strong independent secondaries: a
            # component can carry two faults at once (say, a degraded
            # connector *and* an EMI hit); a secondary class is reported
            # when its own evidence is strong in absolute terms.
            emitted = [top_class]
            for fault_class, weight in ranked[1:]:
                if weight >= 1.0 and weight >= 0.5 * top_weight:
                    emitted.append(fault_class)
            for fault_class in emitted:
                evidence = ev.counts.get(fault_class, 0) or ev.failed_epochs
                out.append(
                    Verdict(
                        fru=fru,
                        fault_class=fault_class,
                        confidence=min(1.0, weights[fault_class]),
                        evidence=evidence,
                        persistence=self._persistence(ev, fault_class),
                        detail=self._detail(ev, weights),
                    )
                )
        out.sort(key=lambda v: -v.confidence)
        return out

    def clear(self, fru: FruRef) -> None:
        """Forget all evidence about one FRU (after its repair)."""
        self._evidence.pop(fru, None)
        self.alpha.reset(str(fru))

    # -- internals ------------------------------------------------------------

    def _persistence(
        self, ev: _FruEvidence, fault_class: FaultClass
    ) -> Persistence:
        recent = ev.recent_epoch_failures
        if (
            len(recent) >= self.permanence_window
            and all(recent[-self.permanence_window :])
        ):
            return Persistence.PERMANENT
        if ev.failed_epochs >= 3 or ev.counts.get(fault_class, 0) >= 3:
            return Persistence.INTERMITTENT
        return Persistence.TRANSIENT

    @staticmethod
    def _detail(ev: _FruEvidence, weights: dict[FaultClass, float]) -> str:
        ranked = sorted(weights.items(), key=lambda item: -item[1])
        return ", ".join(f"{fc.value}={w:.2f}" for fc, w in ranked[:3])
