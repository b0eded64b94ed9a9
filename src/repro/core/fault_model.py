"""The maintenance-oriented fault model (paper §III, Figs. 3-6).

This module is the executable form of the paper's contribution: a fault
classification whose classes are chosen such that each class maps to one
maintenance action on one Field Replaceable Unit (FRU).

Two FRU kinds exist (§III-A):

* the **component** (complete node computer) for hardware faults, and
* the **job** for software design faults,

coinciding with the Fault Containment Regions of the fault hypothesis.

The classes (Figs. 4 and 5) refine Laprie's system-boundary dichotomy with
a *borderline* class (connectors: §III-C) and refine component-internal
faults at job granularity (§III-D), which is only meaningful in an
integrated architecture where one component hosts jobs of several DASs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ReproError


class FruKind(Enum):
    """Kinds of field replaceable units (§III-A)."""

    COMPONENT = "component"  # hardware FRU: the complete node computer
    JOB = "job"  # software FRU: the job


@dataclass(frozen=True, slots=True)
class FruRef:
    """Reference to one FRU instance."""

    kind: FruKind
    name: str

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


def component_fru(name: str) -> FruRef:
    return FruRef(FruKind.COMPONENT, name)


def job_fru(name: str) -> FruRef:
    return FruRef(FruKind.JOB, name)


class LaprieBoundary(Enum):
    """Laprie's boundary attribute, extended by the paper's borderline
    class (§III-C)."""

    INTERNAL = "internal"
    EXTERNAL = "external"
    BORDERLINE = "borderline"  # paper's extension


class Persistence(Enum):
    """Temporal persistence of a fault."""

    TRANSIENT = "transient"
    INTERMITTENT = "intermittent"
    PERMANENT = "permanent"


class OriginPhase(Enum):
    """Phase of creation of a fault (§IV-A: design / manufacturing /
    operational)."""

    DESIGN = "design"
    MANUFACTURING = "manufacturing"
    OPERATIONAL = "operational"


class FaultClass(Enum):
    """The maintenance-oriented fault classes (Fig. 6).

    Component-level classes partition faults against the component (node
    computer) boundary; job-level classes refine component-internal
    effects against the job boundary.  ``JOB_EXTERNAL`` *is* a component
    internal hardware fault observed at job granularity (§IV-B.3), so the
    two names denote the same physical situation at two levels.
    """

    COMPONENT_EXTERNAL = "component-external"
    COMPONENT_BORDERLINE = "component-borderline"
    COMPONENT_INTERNAL = "component-internal"
    JOB_EXTERNAL = "job-external"
    JOB_BORDERLINE = "job-borderline"
    JOB_INHERENT_SOFTWARE = "job-inherent-software"
    JOB_INHERENT_TRANSDUCER = "job-inherent-transducer"

    # -- structural attributes -------------------------------------------

    @property
    def fru_kind(self) -> FruKind:
        """The FRU kind this class attributes the fault to."""
        if self in (
            FaultClass.COMPONENT_EXTERNAL,
            FaultClass.COMPONENT_BORDERLINE,
            FaultClass.COMPONENT_INTERNAL,
            FaultClass.JOB_EXTERNAL,
        ):
            return FruKind.COMPONENT
        return FruKind.JOB

    @property
    def boundary(self) -> LaprieBoundary:
        """Boundary attribute with respect to the class's own FRU kind."""
        if self in (FaultClass.COMPONENT_EXTERNAL, FaultClass.JOB_EXTERNAL):
            return LaprieBoundary.EXTERNAL
        if self in (FaultClass.COMPONENT_BORDERLINE, FaultClass.JOB_BORDERLINE):
            return LaprieBoundary.BORDERLINE
        return LaprieBoundary.INTERNAL

    @property
    def is_component_level(self) -> bool:
        return self in (
            FaultClass.COMPONENT_EXTERNAL,
            FaultClass.COMPONENT_BORDERLINE,
            FaultClass.COMPONENT_INTERNAL,
        )

    @property
    def is_job_level(self) -> bool:
        return not self.is_component_level

    def component_level_view(self) -> "FaultClass":
        """Project a job-level class onto the component fault model.

        Job-external faults *are* component-internal hardware faults; the
        other job classes originate inside the component (its software /
        configuration / transducers), hence map to component-internal as
        well — except that component-level classes map to themselves.
        """
        if self.is_component_level:
            return self
        if self is FaultClass.JOB_EXTERNAL:
            return FaultClass.COMPONENT_INTERNAL
        return FaultClass.COMPONENT_INTERNAL


# Structured replacement-target mapping used by repro.core.maintenance:
REPLACEMENT_TARGET: dict[FaultClass, FruKind | None] = {
    FaultClass.COMPONENT_EXTERNAL: None,  # a swap only raises the NFF ratio
    FaultClass.COMPONENT_BORDERLINE: FruKind.COMPONENT,  # connector service
    FaultClass.COMPONENT_INTERNAL: FruKind.COMPONENT,
    FaultClass.JOB_EXTERNAL: FruKind.COMPONENT,
    FaultClass.JOB_BORDERLINE: None,  # config update, no FRU is replaced
    FaultClass.JOB_INHERENT_SOFTWARE: FruKind.JOB,
    FaultClass.JOB_INHERENT_TRANSDUCER: FruKind.JOB,
}


@dataclass(frozen=True, slots=True)
class FaultDescriptor:
    """Ground-truth description of one injected fault.

    Every fault created by :mod:`repro.faults` carries one of these, so
    classification results can be scored exactly.
    """

    fault_id: str
    fault_class: FaultClass
    persistence: Persistence
    origin: OriginPhase
    fru: FruRef
    mechanism: str  # e.g. "pcb-crack", "emi-burst", "heisenbug"
    activation_us: int = 0

    def __post_init__(self) -> None:
        if self.fault_class.fru_kind is not self.fru.kind and not (
            # JOB_EXTERNAL is attributed to a component but *observed* at a
            # job; allow either reference.
            self.fault_class is FaultClass.JOB_EXTERNAL
        ):
            raise ReproError(
                f"fault class {self.fault_class.value} expects a "
                f"{self.fault_class.fru_kind.value} FRU, got {self.fru}"
            )


# ---------------------------------------------------------------------------
# The fault-error-failure chain (Fig. 3)
# ---------------------------------------------------------------------------


class ChainStage(Enum):
    FAULT = "fault"
    ERROR = "error"
    FAILURE = "failure"


@dataclass(frozen=True, slots=True)
class ChainLink:
    """One causal link of the fault-error-failure chain.

    A fault causes an error (unintended internal state) inside an FRU; an
    error may propagate to the FRU's service interface and become a
    failure; the failure may act as an (external) fault for the next FRU.
    """

    stage: ChainStage
    fru: FruRef
    time_us: int
    description: str = ""


@dataclass(slots=True)
class FaultErrorFailureChain:
    """A recorded chain, built forward during simulation, reversed by the
    diagnosis (§III-B: "by reversing the fault-error-failure chain ... it
    must be possible to determine whether a change of a FRU can eliminate
    the experienced problem")."""

    root: FaultDescriptor
    links: list[ChainLink] = field(default_factory=list)

    def extend(self, link: ChainLink) -> None:
        if self.links and link.time_us < self.links[-1].time_us:
            raise ReproError("chain links must be appended in time order")
        self.links.append(link)

    def failures(self) -> list[ChainLink]:
        return [l for l in self.links if l.stage is ChainStage.FAILURE]

    def affected_frus(self) -> list[FruRef]:
        """Distinct FRUs touched by the chain, in first-touch order."""
        seen: dict[FruRef, None] = {}
        for link in self.links:
            seen.setdefault(link.fru)
        return list(seen)

    def reversed_trace(self) -> list[ChainLink]:
        """The chain in diagnostic (effect-to-cause) order."""
        return list(reversed(self.links))

    def stops_at(self) -> FruRef:
        """The FRU where the recursion stops — the unit of replacement.

        "We stop the recursion at Field Replaceable Unit level" (§III-B):
        the root fault's FRU is where the maintenance action applies.
        """
        return self.root.fru


#: Human-readable overview rows relating our classes to the concepts of
#: Laprie / Avizienis (Fig. 6) — consumed by the Fig. 6 bench and docs.
OVERVIEW_ROWS: tuple[dict[str, str], ...] = tuple(
    {
        "class": fc.value,
        "fru": fc.fru_kind.value,
        "boundary": fc.boundary.value,
        "component_level_view": fc.component_level_view().value,
        "replacement_target": (
            REPLACEMENT_TARGET[fc].value if REPLACEMENT_TARGET[fc] else "none"
        ),
    }
    for fc in FaultClass
)
