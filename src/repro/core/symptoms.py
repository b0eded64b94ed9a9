"""Symptoms — conditions on interface state variables (§V-A).

"A symptom is a condition on a set of interface state variables of a
particular component that is monitored to detect deviations from the
Linking Interface (LIF) specification."  Symptoms are *local* observations
made by the detection mechanisms of the diagnostic services; Out-of-Norm
Assertions combine symptoms from several components into cluster-level
fault patterns.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class SymptomType(Enum):
    """LIF deviations observable by the detection mechanisms.

    The time/value classification follows the fault hypothesis (§II-E):
    a timing failure is a wrong send instant, a value failure a message
    content that does not conform to its specification.  Syntactic value
    failures (CRC) and omissions are observable at the core network;
    semantic value failures and queue overflows at the port layer.
    """

    OMISSION = "omission"  # expected frame entirely missing
    CRC_ERROR = "crc-error"  # frame received but corrupted
    TIMING_VIOLATION = "timing"  # send instant off by more than precision
    CHANNEL_OMISSION = "channel-omission"  # missing on one channel only
    VALUE_VIOLATION = "value-violation"  # semantic: out of value spec
    VALUE_MARGINAL = "value-marginal"  # in spec but at the verge (wearout)
    QUEUE_OVERFLOW = "queue-overflow"  # event-port queue overflow
    VN_BUDGET_OVERFLOW = "vn-budget-overflow"  # tx bandwidth budget hit
    MEMBERSHIP_LOSS = "membership-loss"  # consistent-diagnosis exclusion
    REPLICA_DEVIATION = "replica-deviation"  # TMR voter disagreement
    GUARDIAN_BLOCK = "guardian-block"  # untimely send cut off
    SENSOR_IMPLAUSIBLE = "sensor-implausible"  # job-internal model-based check

    # Members compare by identity, so they may hash by identity too.
    # Enum's own __hash__ is Python-level (hash of the name) and runs on
    # every symptom key and window-index lookup.
    __hash__ = object.__hash__

    @property
    def domain(self) -> str:
        """The failure domain the symptom belongs to (time/value/both)."""
        if self in (
            SymptomType.TIMING_VIOLATION,
            SymptomType.OMISSION,
            SymptomType.CHANNEL_OMISSION,
            SymptomType.GUARDIAN_BLOCK,
            SymptomType.MEMBERSHIP_LOSS,
        ):
            return "time"
        if self in (
            SymptomType.CRC_ERROR,
            SymptomType.VALUE_VIOLATION,
            SymptomType.VALUE_MARGINAL,
            SymptomType.REPLICA_DEVIATION,
            SymptomType.SENSOR_IMPLAUSIBLE,
        ):
            return "value"
        return "time+value"


class Symptom(NamedTuple):
    """One local LIF observation.

    Immutable: a NamedTuple, like the per-slot values (see
    docs/performance.md, "Slot pipeline cost").

    Attributes
    ----------
    type:
        The deviation kind.
    observer:
        Component that made the observation.
    subject_component:
        Component whose interface state deviated.
    time_us / lattice_point:
        When the deviation was observed, both as raw time and as the
        action-lattice index the sparse time base assigns to it (the unit
        of the ONA time dimension).
    subject_job:
        The job whose port deviated, when attributable (value symptoms,
        overflows, replica deviations); None for component-level symptoms.
    channel:
        Physical channel index for channel-resolved symptoms.
    magnitude:
        Deviation size in domain units (timing error in microseconds,
        normalised value deviation, bit flips, ...), when meaningful.
    detail:
        Free-form short annotation.
    """

    type: SymptomType
    observer: str
    subject_component: str
    time_us: int
    lattice_point: int
    subject_job: str | None = None
    channel: int | None = None
    magnitude: float = 0.0
    detail: str = ""

    def key(self) -> tuple:
        """Deduplication key: same deviation seen by different observers.

        Channel omissions keep the observer in the key: *who* misses a
        channel is exactly the information that separates a transmit-side
        connector fault from a receive-side one.
        """
        observer = (
            self.observer if self.type is SymptomType.CHANNEL_OMISSION else None
        )
        return (
            self.type,
            self.subject_component,
            self.subject_job,
            self.channel,
            self.lattice_point,
            observer,
        )
