"""Baseline: federated on-board diagnosis (OBD) with trouble codes.

The paper's problem statement (§I, §III-E): today's on-board diagnostic
systems record a Diagnostic Trouble Code (DTC) per ECU when a failure
persists longer than ~500 ms, offer no cross-component correlation, and
therefore cannot tell external transients, connector problems and internal
faults apart — the service technician replaces the unit named by the DTC
and the no-fault-found ratio climbs.

:class:`ObdBaseline` implements exactly that policy on the same symptom
surface as the integrated diagnosis:

* per-component failure episodes (missing/corrupted frames) are tracked
  locally; an episode persisting past ``record_threshold_us`` becomes a
  DTC against that component;
* value violations of a job raise a DTC against the hosting component
  (federated OBD sees the ECU, not the job);
* shorter transients are not recorded at all;
* the recommended action for any component with a DTC is replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.cluster import Cluster
from repro.core.fault_model import FaultClass
from repro.core.maintenance import MaintenanceAction, MaintenanceRecommendation
from repro.core.fault_model import component_fru
from repro.errors import ConfigurationError
from repro.faults.rates import OBD_RECORD_THRESHOLD_US
from repro.tta.frames import Frame
from repro.tta.network import Delivery, DeliveryStatus
from repro.tta.tdma import SlotPosition


@dataclass(frozen=True, slots=True)
class TroubleCode:
    """One recorded DTC."""

    component: str
    recorded_us: int
    onset_us: int
    kind: str  # "communication" or "value"

    @property
    def persisted_us(self) -> int:
        return self.recorded_us - self.onset_us


@dataclass(slots=True)
class _EpisodeTrack:
    failing_since_us: int | None = None
    recorded_current: bool = False


class ObdBaseline:
    """Per-ECU trouble-code diagnosis without correlation."""

    def __init__(
        self,
        cluster: Cluster,
        record_threshold_us: int = OBD_RECORD_THRESHOLD_US,
    ) -> None:
        self.cluster = cluster
        self.record_threshold_us = int(record_threshold_us)
        self.dtcs: list[TroubleCode] = []
        self._tracks: dict[str, _EpisodeTrack] = {
            name: _EpisodeTrack() for name in cluster.components
        }
        self._value_recorded: set[str] = set()
        cluster.frame_observers.append(self._on_slot)

    # -- observation -----------------------------------------------------------

    def _on_slot(
        self,
        slot: SlotPosition,
        frame: Frame | None,
        deliveries: dict[str, Delivery],
        now_us: int,
    ) -> None:
        sender = slot.sender
        track = self._tracks[sender]
        failing = frame is None or any(
            d.status is not DeliveryStatus.RECEIVED for d in deliveries.values()
        )
        if failing:
            if track.failing_since_us is None:
                track.failing_since_us = now_us
                track.recorded_current = False
            persisted = now_us - track.failing_since_us
            if (
                persisted >= self.record_threshold_us
                and not track.recorded_current
            ):
                track.recorded_current = True
                self.dtcs.append(
                    TroubleCode(
                        component=sender,
                        recorded_us=now_us,
                        onset_us=track.failing_since_us,
                        kind="communication",
                    )
                )
        else:
            track.failing_since_us = None
            track.recorded_current = False
            if frame is not None:
                self._check_values(slot, frame, now_us)

    def _check_values(self, slot: SlotPosition, frame: Frame, now_us: int) -> None:
        cluster = self.cluster
        for vn_name, messages in frame.payload.items():
            vn = cluster.vns.get(vn_name)
            if vn is None:
                continue
            for message in messages:
                try:
                    job = cluster.job(message.source_job)
                except ConfigurationError:
                    continue  # no component hosts the source job
                spec = job.spec.port(message.port).value_spec
                if spec.conforms(message.value):
                    continue
                if slot.sender in self._value_recorded:
                    continue
                self._value_recorded.add(slot.sender)
                self.dtcs.append(
                    TroubleCode(
                        component=slot.sender,
                        recorded_us=now_us,
                        onset_us=now_us,
                        kind="value",
                    )
                )

    # -- outputs --------------------------------------------------------------

    def components_with_dtc(self) -> list[str]:
        return sorted({dtc.component for dtc in self.dtcs})

    def recommendations(self) -> list[MaintenanceRecommendation]:
        """The federated policy: replace every ECU holding a DTC."""
        out: list[MaintenanceRecommendation] = []
        for component in self.components_with_dtc():
            out.append(
                MaintenanceRecommendation(
                    fru=component_fru(component),
                    fault_class=FaultClass.COMPONENT_INTERNAL,  # implied
                    action=MaintenanceAction.REPLACE_COMPONENT,
                    confidence=1.0,
                    removes_fru=True,
                    rationale="DTC recorded; no correlation available",
                )
            )
        return out
