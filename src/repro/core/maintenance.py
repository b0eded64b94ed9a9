"""Maintenance-action determination (§V-C, Fig. 11) and NFF economics.

Fig. 11 maps each fault class to a maintenance action:

* component external      -> no action (transient persistence assumed)
* component borderline    -> closer inspection; replace/reseat connector
* component internal      -> replace the component (ECU / LRM)
* job external            -> replace the hosting component
* job borderline          -> update the VN-service configuration data
* job inherent transducer -> inspect; replace transducer or worn part
* job inherent software   -> update job software if a corrected version
                             exists; otherwise forward field data to the
                             OEM for fleet analysis

The :class:`CostModel` quantifies the economic claim of §I: every avoided
unjustified LRU removal saves ~800 $, and replacements driven by external
faults only raise the fault-not-found ratio (the unit retests OK at the
bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.classification import Verdict
from repro.core.fault_model import FaultClass, FruRef
from repro.faults.rates import LRU_REMOVAL_COST_USD
from repro.obs import state as _obs


class MaintenanceAction(Enum):
    """Actions available to the service technician (Fig. 11)."""

    NO_ACTION = "no action (external transient)"
    INSPECT_CONNECTOR = "inspect / reseat / replace connector"
    REPLACE_COMPONENT = "replace component (ECU / LRM)"
    UPDATE_CONFIGURATION = "update virtual-network configuration data"
    INSPECT_TRANSDUCER = "inspect transducer; replace sensor/actuator or worn part"
    UPDATE_SOFTWARE = "update job software (corrected version available)"
    FORWARD_TO_OEM = "forward field data to OEM (fleet analysis feedback)"


#: The Fig. 11 decision table.  For software faults the action depends on
#: whether the OEM has already released a corrected job version.
ACTION_FOR_CLASS: dict[FaultClass, MaintenanceAction] = {
    FaultClass.COMPONENT_EXTERNAL: MaintenanceAction.NO_ACTION,
    FaultClass.COMPONENT_BORDERLINE: MaintenanceAction.INSPECT_CONNECTOR,
    FaultClass.COMPONENT_INTERNAL: MaintenanceAction.REPLACE_COMPONENT,
    FaultClass.JOB_EXTERNAL: MaintenanceAction.REPLACE_COMPONENT,
    FaultClass.JOB_BORDERLINE: MaintenanceAction.UPDATE_CONFIGURATION,
    FaultClass.JOB_INHERENT_TRANSDUCER: MaintenanceAction.INSPECT_TRANSDUCER,
    # JOB_INHERENT_SOFTWARE is resolved dynamically; see determine_action.
}


@dataclass(frozen=True, slots=True)
class MaintenanceRecommendation:
    """The diagnostic subsystem's advice for one FRU."""

    fru: FruRef
    fault_class: FaultClass
    action: MaintenanceAction
    confidence: float
    removes_fru: bool
    rationale: str = ""


def determine_action(
    verdict: Verdict,
    software_update_available: bool = False,
) -> MaintenanceRecommendation:
    """Map a classifier verdict to the Fig. 11 maintenance action."""
    fault_class = verdict.fault_class
    if fault_class is FaultClass.JOB_INHERENT_SOFTWARE:
        action = (
            MaintenanceAction.UPDATE_SOFTWARE
            if software_update_available
            else MaintenanceAction.FORWARD_TO_OEM
        )
    else:
        action = ACTION_FOR_CLASS[fault_class]
    removes = action in (
        MaintenanceAction.REPLACE_COMPONENT,
        MaintenanceAction.INSPECT_TRANSDUCER,
    )
    obs = _obs.ACTIVE
    if obs.enabled:
        obs.counters.inc("maintenance.actions", action=action.name)
        prov = obs.provenance
        if prov is None:
            obs.tracer.event(
                "maintenance.recommendation",
                fru=str(verdict.fru),
                cls=fault_class.value,
                action=action.name,
                confidence=verdict.confidence,
            )
        else:
            obs.tracer.causal_event(
                "maintenance.recommendation",
                None,
                prov.new_id("maint"),
                prov.evidence(str(verdict.fru)),
                fru=str(verdict.fru),
                cls=fault_class.value,
                action=action.name,
                confidence=verdict.confidence,
            )
    return MaintenanceRecommendation(
        fru=verdict.fru,
        fault_class=fault_class,
        action=action,
        confidence=verdict.confidence,
        removes_fru=removes,
        rationale=verdict.detail,
    )


@dataclass(slots=True)
class CostModel:
    """NFF economics: removals, no-fault-found removals, and cost.

    A removal is *justified* when the removed FRU actually carried the
    fault (replacement eliminates the problem); a removal triggered by an
    external or misattributed fault is an NFF removal — the unit retests
    OK at the bench and the cost is wasted.
    """

    removal_cost_usd: float = LRU_REMOVAL_COST_USD
    removals: int = 0
    nff_removals: int = 0
    actions: list[tuple[MaintenanceAction, bool]] = field(default_factory=list)

    def record(
        self, action: MaintenanceAction, *, fault_present_in_removed_fru: bool
    ) -> None:
        """Account one executed maintenance action.

        ``fault_present_in_removed_fru`` is the ground truth: True when the
        removed/serviced FRU really contained the fault.
        """
        removed = action in (
            MaintenanceAction.REPLACE_COMPONENT,
            MaintenanceAction.INSPECT_TRANSDUCER,
            MaintenanceAction.INSPECT_CONNECTOR,
        )
        self.actions.append((action, fault_present_in_removed_fru))
        if removed:
            self.removals += 1
            if not fault_present_in_removed_fru:
                self.nff_removals += 1

    @property
    def nff_ratio(self) -> float:
        """Fraction of removals that will retest OK at the bench."""
        return self.nff_removals / self.removals if self.removals else 0.0

    @property
    def wasted_cost_usd(self) -> float:
        return self.nff_removals * self.removal_cost_usd

    def savings_vs(self, baseline: "CostModel") -> float:
        """Wasted cost avoided relative to a baseline strategy."""
        return baseline.wasted_cost_usd - self.wasted_cost_usd
