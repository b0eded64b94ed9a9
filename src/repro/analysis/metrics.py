"""Scoring: confusion matrices, campaign accuracy, NFF economics.

Because every injected fault carries a ground-truth
:class:`~repro.core.fault_model.FaultDescriptor`, the quality of the
diagnostic architecture is measured exactly:

* :class:`ConfusionMatrix` — injected class vs diagnosed class;
* :func:`score_campaign` — matches verdicts to the injected faults' FRUs;
* :func:`evaluate_recommendations` — feeds a
  :class:`~repro.core.maintenance.CostModel` with the justified/NFF
  outcome of each maintenance action.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.classification import Verdict
from repro.core.fault_model import (
    FaultClass,
    FaultDescriptor,
    FruKind,
    FruRef,
    component_fru,
)
from repro.core.maintenance import (
    CostModel,
    MaintenanceAction,
    MaintenanceRecommendation,
)
from repro.errors import AnalysisError

MISSED = "missed"


class ConfusionMatrix:
    """Counts of (true class, predicted class-or-missed) pairs."""

    def __init__(self) -> None:
        self._counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.total = 0

    def add(self, truth: FaultClass, predicted: FaultClass | None) -> None:
        pred_label = predicted.value if predicted is not None else MISSED
        self._counts[truth.value][pred_label] += 1
        self.total += 1

    def count(self, truth: FaultClass, predicted: FaultClass | None) -> int:
        pred_label = predicted.value if predicted is not None else MISSED
        return self._counts[truth.value][pred_label]

    @property
    def correct(self) -> int:
        return sum(
            preds[truth_label]
            for truth_label, preds in self._counts.items()
        )

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def recall(self, truth: FaultClass) -> float:
        row = self._counts[truth.value]
        total = sum(row.values())
        return row[truth.value] / total if total else 0.0

    def precision(self, predicted: FaultClass) -> float:
        hits = self._counts[predicted.value][predicted.value]
        claimed = sum(
            preds[predicted.value] for preds in self._counts.values()
        )
        return hits / claimed if claimed else 0.0

    def labels(self) -> list[str]:
        labels = set(self._counts)
        for preds in self._counts.values():
            labels |= set(preds)
        order = [fc.value for fc in FaultClass] + [MISSED]
        return [l for l in order if l in labels]

    def rows(self) -> list[list]:
        """Matrix as rows for table rendering: truth x predicted."""
        labels = self.labels()
        out: list[list] = []
        for truth_label in labels:
            if truth_label == MISSED:
                continue
            row = [truth_label]
            for pred_label in labels:
                row.append(self._counts[truth_label][pred_label])
            out.append(row)
        return out


@dataclass(frozen=True, slots=True)
class CampaignScore:
    """Result of scoring one injection campaign."""

    matrix: ConfusionMatrix
    matched: int
    missed: int
    spurious_verdicts: int

    @property
    def accuracy(self) -> float:
        return self.matrix.accuracy


def _verdict_fru_for(descriptor: FaultDescriptor) -> FruRef:
    """The FRU a correct diagnosis would attribute this fault to."""
    if descriptor.fault_class.fru_kind is FruKind.COMPONENT:
        if descriptor.fru.kind is FruKind.COMPONENT:
            return descriptor.fru
        return component_fru(descriptor.fru.name)
    return descriptor.fru


def score_campaign(
    ground_truth: list[FaultDescriptor],
    verdicts: list[Verdict],
    *,
    job_locations: dict[str, str] | None = None,
) -> CampaignScore:
    """Score verdicts against the injection ledger.

    Each injected fault is matched to the verdict on its FRU (if any).
    For job-level faults, a component-level verdict on the hosting
    component counts as the prediction when no job verdict exists and
    ``job_locations`` is provided — this is how a misclassification of a
    software fault as a hardware fault is surfaced.
    Verdicts on FRUs with no injected fault count as spurious.
    """
    if not ground_truth:
        raise AnalysisError("campaign has no injected faults to score")
    by_fru: dict[FruRef, Verdict] = {}
    for verdict in verdicts:
        existing = by_fru.get(verdict.fru)
        if existing is None or verdict.confidence > existing.confidence:
            by_fru[verdict.fru] = verdict

    matrix = ConfusionMatrix()
    matched = 0
    missed = 0
    used_frus: set[FruRef] = set()
    for descriptor in ground_truth:
        target = _verdict_fru_for(descriptor)
        verdict = by_fru.get(target)
        if (
            verdict is None
            and target.kind is FruKind.JOB
            and job_locations is not None
        ):
            host = job_locations.get(target.name)
            if host is not None:
                verdict = by_fru.get(component_fru(host))
                if verdict is not None:
                    used_frus.add(component_fru(host))
        if verdict is None:
            matrix.add(descriptor.fault_class, None)
            missed += 1
        else:
            used_frus.add(verdict.fru)
            matrix.add(descriptor.fault_class, verdict.fault_class)
            matched += 1
    spurious = sum(1 for fru in by_fru if fru not in used_frus)
    return CampaignScore(
        matrix=matrix, matched=matched, missed=missed, spurious_verdicts=spurious
    )


def removal_justified(
    recommendation: MaintenanceRecommendation,
    ground_truth: list[FaultDescriptor],
) -> bool:
    """Ground-truth check: does the recommended removal target an FRU that
    actually contains a fault eliminable by that action?

    * REPLACE_COMPONENT is justified iff a component-internal fault (or a
      permanent hardware defect) truly resides in that component.
    * INSPECT_CONNECTOR is justified iff the component really has a
      borderline (connector/wiring) fault.
    * INSPECT_TRANSDUCER is justified iff the job really has a transducer
      fault.
    * Non-removal actions are vacuously justified.
    """
    action = recommendation.action
    fru = recommendation.fru
    if action is MaintenanceAction.REPLACE_COMPONENT:
        for d in ground_truth:
            if d.fault_class is FaultClass.COMPONENT_INTERNAL and (
                d.fru.name == fru.name
            ):
                return True
        return False
    if action is MaintenanceAction.INSPECT_CONNECTOR:
        return any(
            d.fault_class is FaultClass.COMPONENT_BORDERLINE
            and d.fru.name == fru.name
            for d in ground_truth
        )
    if action is MaintenanceAction.INSPECT_TRANSDUCER:
        return any(
            d.fault_class is FaultClass.JOB_INHERENT_TRANSDUCER
            and d.fru.name == fru.name
            for d in ground_truth
        )
    return True


def evaluate_recommendations(
    recommendations: list[MaintenanceRecommendation],
    ground_truth: list[FaultDescriptor],
    cost_model: CostModel | None = None,
) -> CostModel:
    """Feed a cost model with the justified/NFF outcome of each action."""
    model = cost_model if cost_model is not None else CostModel()
    for recommendation in recommendations:
        model.record(
            recommendation.action,
            fault_present_in_removed_fru=removal_justified(
                recommendation, ground_truth
            ),
        )
    return model
