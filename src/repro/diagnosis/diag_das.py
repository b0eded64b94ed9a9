"""The diagnostic DAS — wiring detection, dissemination and assessment.

:class:`DiagnosticService` is the one-call façade: attach it to a cluster
and it installs the detection service, the virtual diagnostic network and
the encapsulated diagnostic DAS (the assessment pipeline running on a
collector component), scheduling assessment epochs on the simulator.

Two transports are offered:

* ``"vn"`` (default) — symptoms travel over the virtual diagnostic
  network with realistic latency and loss (a dead reporter loses its
  outbox);
* ``"direct"`` — symptoms reach the assessment instantly (an oracle
  transport for unit tests and for isolating assessment behaviour from
  dissemination effects).
"""

from __future__ import annotations

from repro.components.cluster import Cluster
from repro.core.assessment import (
    DiagnosticAssessment,
    EpochResult,
    FruHealthReport,
)
from repro.core.classification import Classifier
from repro.core.ona import OutOfNormAssertion, Topology
from repro.core.symptoms import Symptom
from repro.core.trust import TrustBank
from repro.diagnosis.detector import DetectionService, TmrMonitor
from repro.diagnosis.dissemination import DiagnosticNetwork
from repro.errors import ConfigurationError
from repro.sim.engine import PRIORITY_MONITOR


def build_topology(cluster: Cluster) -> Topology:
    """Extract the static facts the ONAs need from a cluster."""
    das_of_job: dict[str, str] = {}
    for component in cluster.components.values():
        for job in component.jobs():
            das_of_job[job.name] = job.das
    return Topology(
        positions={
            name: comp.position for name, comp in cluster.components.items()
        },
        component_of_job=dict(cluster.job_location),
        das_of_job=das_of_job,
        channels=cluster.bus.channels,
    )


class DiagnosticService:
    """Full integrated diagnostic architecture on one cluster.

    Parameters
    ----------
    cluster:
        The cluster to diagnose.
    collector:
        Component hosting the diagnostic DAS (defaults to the first
        component of the schedule).
    epoch_rounds:
        Assessment epoch length in TDMA rounds.
    transport:
        ``"vn"`` or ``"direct"`` (see module docstring).
    onas / classifier / trust / window_points:
        Forwarded to :class:`DiagnosticAssessment` for parameter studies.
    """

    def __init__(
        self,
        cluster: Cluster,
        collector: str | None = None,
        epoch_rounds: int = 4,
        transport: str = "vn",
        onas: list[OutOfNormAssertion] | None = None,
        classifier: Classifier | None = None,
        trust: TrustBank | None = None,
        window_points: int = 5_000,
        diagnostic_slot_budget: int = 8,
    ) -> None:
        if transport not in ("vn", "direct"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        if epoch_rounds < 1:
            raise ConfigurationError("epoch_rounds must be >= 1")
        self.cluster = cluster
        self.collector = (
            collector
            if collector is not None
            else cluster.schedule.participants()[0]
        )
        if self.collector not in cluster.components:
            raise ConfigurationError(f"unknown collector {self.collector!r}")
        self.transport = transport
        self.assessment = DiagnosticAssessment(
            topology=build_topology(cluster),
            time_base=cluster.time_base,
            onas=onas,
            classifier=classifier,
            trust=trust,
            window_points=window_points,
        )
        self.epoch_results: list[EpochResult] = []

        # The symptom paths capture the assessment, never ``self``: the
        # network and the detector are owned by this service, so a
        # closure over ``self`` would make the service a reference cycle.
        assessment = self.assessment
        if transport == "vn":
            self.network: DiagnosticNetwork | None = DiagnosticNetwork(
                cluster,
                collectors=(self.collector,),
                slot_budget=diagnostic_slot_budget,
            )
            self.network.add_consumer(
                lambda _collector, symptom: assessment.submit([symptom])
            )
            sink = self.network.deposit
        else:
            self.network = None

            def sink(observer: str, symptom: Symptom) -> None:
                assessment.submit([symptom])

        self.detection = DetectionService(cluster, sink)

        epoch_us = epoch_rounds * cluster.schedule.round_length_us
        cluster.sim.schedule_periodic(
            epoch_us, self._on_epoch, priority=PRIORITY_MONITOR
        )

    # -- epoch driver ---------------------------------------------------------

    def _on_epoch(self, sim) -> None:
        result = self.assessment.run_epoch(sim.now)
        self.epoch_results.append(result)
        if result.triggers:
            self.cluster.trace.record(
                sim.now,
                "diagnosis.triggers",
                self.collector,
                count=len(result.triggers),
                onas=sorted({t.ona for t in result.triggers}),
            )

    # -- convenience passthroughs ----------------------------------------------

    def add_tmr_monitor(self, monitor: TmrMonitor) -> None:
        self.detection.add_tmr_monitor(monitor)

    def acknowledge_repair(self, fru) -> None:
        self.assessment.acknowledge_repair(fru)

    def health_reports(self, **kwargs) -> list[FruHealthReport]:
        return self.assessment.health_reports(**kwargs)

    def verdicts(self, min_confidence: float = 0.3):
        return self.assessment.classifier.verdicts(min_confidence)

    def trust_trajectory(self, fru: str):
        return self.assessment.trust.trajectory(fru)
