"""Distributed Application Subsystems (DASs).

A DAS is a nearly-independent subsystem providing part of the overall
functionality (§II-A).  DASs of the same criticality are grouped; the
architecture guarantees error containment *between* DASs through the
encapsulated virtual networks and partitioning, which is precisely what
lets the diagnostic judgment of Fig. 10 conclude: a fault whose effects
stay inside one DAS is job-level, a fault whose effects cross DAS borders
on one component is component-level hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.components.job import JobSpec


class Criticality(Enum):
    """Criticality classes of DECOS subsystems (Fig. 1)."""

    SAFETY_CRITICAL = "safety-critical"
    NON_SAFETY_CRITICAL = "non-safety-critical"


@dataclass(frozen=True, slots=True)
class DasSpec:
    """Static description of one DAS and its jobs.

    Attributes
    ----------
    name:
        DAS identifier (e.g. ``"A"``, ``"steer-by-wire"``).
    criticality:
        Determines the component subsystem the jobs are placed into and the
        software-fault assumptions (§III-E: safety-critical jobs are
        assumed free of design faults after certification).
    jobs:
        The job specifications belonging to this DAS.
    """

    name: str
    criticality: Criticality
    jobs: tuple[JobSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [j.name for j in self.jobs]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate job names in DAS {self.name!r}")
        for job in self.jobs:
            if job.das != self.name:
                raise ConfigurationError(
                    f"job {job.name!r} declares das={job.das!r}, expected "
                    f"{self.name!r}"
                )
            if job.safety_critical != (
                self.criticality is Criticality.SAFETY_CRITICAL
            ):
                raise ConfigurationError(
                    f"job {job.name!r} safety_critical flag contradicts DAS "
                    f"criticality {self.criticality.value!r}"
                )

    @property
    def is_safety_critical(self) -> bool:
        return self.criticality is Criticality.SAFETY_CRITICAL

    def job(self, name: str) -> JobSpec:
        for spec in self.jobs:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"DAS {self.name!r} has no job {name!r}")

    def job_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.jobs)
