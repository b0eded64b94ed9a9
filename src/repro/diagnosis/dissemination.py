"""The virtual diagnostic network (§II-D).

"Once a failure or anomaly is detected by the detection mechanisms of the
diagnostic services, a corresponding message is disseminated via a
dedicated virtual diagnostic network" — an encapsulated overlay on the
time-triggered core.  Encapsulation means the diagnostic traffic rides in
a bandwidth budget of its own and can never perturb application virtual
networks (no probe effect; exercised by the A4 bench).

Implementation: every component keeps an outbox of locally detected
symptoms.  When the component's TDMA slot comes up, up to ``slot_budget``
symptom messages are piggybacked onto the outgoing frame under the
reserved VN name ``"vn-diagnostic"``.  Components hosting the diagnostic
DAS consume these messages from every received frame.  Consequences worth
noting (and tested):

* dissemination latency is bounded by one TDMA round (plus queueing when
  the outbox exceeds the budget);
* a component in outage neither observes nor forwards — its own failure
  is still diagnosed because *other* components observe and report it;
* symptom messages from a corrupted/omitted frame are lost and retried
  never (the next epoch's fresh observations supersede them), mirroring a
  real best-effort diagnostic overlay.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import NamedTuple

from repro.components.cluster import Cluster
from repro.core.symptoms import Symptom
from repro.errors import ConfigurationError
from repro.obs import state as _obs
from repro.tta.frames import Frame
from repro.tta.tdma import SlotPosition

DIAGNOSTIC_VN = "vn-diagnostic"

SymptomConsumer = Callable[[str, Symptom], None]


class SymptomMessage(NamedTuple):
    """One symptom in transit on the diagnostic VN (an immutable value)."""

    symptom: Symptom
    reporter: str
    enqueued_us: int


class DiagnosticNetwork:
    """Outboxes + piggybacking + collection for the diagnostic VN.

    Parameters
    ----------
    cluster:
        The cluster to attach to.
    collectors:
        Components hosting the diagnostic DAS; they consume symptom
        messages from received frames (and their own local symptoms
        directly, without a network hop).
    slot_budget:
        Maximum symptom messages per component per slot (the diagnostic
        VN's bandwidth allocation).
    max_outbox:
        Outbox capacity; older symptoms are dropped first when exceeded
        (freshness beats completeness for diagnosis).
    """

    def __init__(
        self,
        cluster: Cluster,
        collectors: tuple[str, ...],
        slot_budget: int = 8,
        max_outbox: int = 256,
    ) -> None:
        if not collectors:
            raise ConfigurationError("need at least one collector component")
        for name in collectors:
            if name not in cluster.components:
                raise ConfigurationError(f"unknown collector {name!r}")
        if slot_budget < 1:
            raise ConfigurationError("slot_budget must be >= 1")
        self.cluster = cluster
        self.collectors = tuple(collectors)
        self.slot_budget = slot_budget
        self.max_outbox = max_outbox
        self._outbox: dict[str, deque[SymptomMessage]] = {
            name: deque() for name in cluster.components
        }
        self._consumers: list[SymptomConsumer] = []
        self.deposited = 0
        self.transmitted = 0
        self.delivered = 0
        self.dropped_outbox = 0
        cluster.payload_contributors.append(self._contribute)
        cluster.payload_consumers.append(self._consume)

    # -- wiring -------------------------------------------------------------

    def add_consumer(self, consumer: SymptomConsumer) -> None:
        """Register a callback fed with (collector, symptom) pairs."""
        self._consumers.append(consumer)

    # -- detector side -------------------------------------------------------

    def deposit(self, observer: str, symptom: Symptom) -> None:
        """Sink for the detection service: queue a local observation.

        Observations made *by a collector itself* skip the network (the
        diagnostic DAS reads its local detectors directly).
        """
        self.deposited += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.counters.inc("dissemination.deposited")
        if observer in self.collectors:
            self.delivered += 1
            if obs.enabled:
                obs.counters.inc("dissemination.delivered")
                obs.counters.observe("dissemination.latency_slots", 0)
                prov = obs.provenance
                if prov is not None:
                    self._deliver_event(obs, prov, symptom, self.cluster.now, 0)
            for consumer in self._consumers:
                consumer(observer, symptom)
            return
        outbox = self._outbox[observer]
        if len(outbox) >= self.max_outbox:
            outbox.popleft()
            self.dropped_outbox += 1
            if obs.enabled:
                obs.counters.inc("dissemination.dropped_outbox")
                obs.tracer.event(
                    "dissemination.drop",
                    t_sim_us=self.cluster.now,
                    observer=observer,
                )
        outbox.append(SymptomMessage(symptom, observer, self.cluster.sim.now))

    @staticmethod
    def _deliver_event(obs, prov, symptom: Symptom, now_us: int, slots: int) -> None:
        """Record the causal ``dissemination.deliver`` lineage node.

        One node per symptom, at its first delivery — re-deliveries of
        the same deviation are counted (``dissemination.delivered``) but
        add no lineage (see ``ProvenanceTracker.deliver_node``).  In
        fold-only mode (no record retention) only the first-delivery
        time is noted; the stage fold synthesises the node from it.
        """
        tracer = obs.tracer
        if not tracer.keeps_records:
            prov.record_delivery(symptom.key(), now_us)
            return
        node = prov.deliver_node(symptom.key())
        if node is None:
            return
        cause_id, parents = node
        tracer.causal_event(
            "dissemination.deliver",
            now_us,
            cause_id,
            parents,
            subject=symptom.subject_component,
            type=symptom.type.name,
            latency_slots=slots,
        )

    # -- cluster hooks ---------------------------------------------------------

    def _contribute(
        self, sender: str, slot: SlotPosition, now_us: int
    ) -> dict[str, tuple[SymptomMessage, ...]]:
        outbox = self._outbox[sender]
        if not outbox:
            return {}
        batch: list[SymptomMessage] = []
        while outbox and len(batch) < self.slot_budget:
            batch.append(outbox.popleft())
        self.transmitted += len(batch)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.counters.inc("dissemination.transmitted", len(batch))
        return {DIAGNOSTIC_VN: tuple(batch)}

    def _consume(self, receiver: str, frame: Frame, now_us: int) -> None:
        if receiver not in self.collectors:
            return
        messages = frame.payload.get(DIAGNOSTIC_VN, ())
        obs = _obs.ACTIVE
        slot_us = self.cluster.schedule.slot_length_us
        for message in messages:
            self.delivered += 1
            if obs.enabled:
                slots = max(0, now_us - message.enqueued_us) // slot_us
                obs.counters.inc("dissemination.delivered")
                obs.counters.observe("dissemination.latency_slots", slots)
                prov = obs.provenance
                if prov is not None:
                    self._deliver_event(
                        obs, prov, message.symptom, now_us, slots
                    )
            for consumer in self._consumers:
                consumer(receiver, message.symptom)

    # -- introspection ------------------------------------------------------

    def backlog(self) -> dict[str, int]:
        """Current outbox depth per component."""
        return {name: len(box) for name, box in self._outbox.items()}
