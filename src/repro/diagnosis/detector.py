"""Detection mechanisms — local symptom generation at the LIF (§II-D).

The :class:`DetectionService` hooks into the cluster runtime and turns slot
outcomes into :class:`~repro.core.symptoms.Symptom` records:

* frame omissions, CRC errors and per-channel omissions (core network);
* send-instant (timing) violations beyond the cluster precision;
* job-level message omissions (a hosted job stayed silent although its
  component's frame arrived);
* semantic value violations / marginal values against the source port's
  value specification;
* receive-queue overflows and VN transmit-budget overflows;
* membership losses;
* TMR replica deviations (via registered :class:`TmrMonitor` instances);
* job-internal plausibility checks (model-based diagnosis, §IV-B.1).

Symptoms are handed to a sink callback — normally the virtual diagnostic
network's per-component outboxes (:mod:`repro.diagnosis.dissemination`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.components.cluster import Cluster
from repro.components.job import Job
from repro.components.ports import CONFORMING, VIOLATING, PortKind
from repro.components.redundancy import TmrVoter
from repro.core.symptoms import Symptom, SymptomType
from repro.errors import ConfigurationError
from repro.obs import state as _obs
from repro.tta.frames import Frame
from repro.tta.network import Delivery, DeliveryStatus
from repro.tta.tdma import SlotPosition

SymptomSink = Callable[[str, Symptom], None]


class TmrMonitor:
    """Observes a TMR replica set at its voter's input ports.

    The replica jobs' output port must be routed (via their DAS VN) to the
    given IN state ports of the voter job; after each round the monitor
    votes over the freshest values and reports deviating/missing replicas
    as REPLICA_DEVIATION symptoms on the replica's host component.
    """

    def __init__(
        self,
        voter_job: str,
        replica_ports: dict[str, str],
        tolerance: float = 1e-6,
    ) -> None:
        if len(replica_ports) < 3:
            raise ConfigurationError("TMR monitor needs >= 3 replica ports")
        self.voter_job = voter_job
        self.replica_ports = dict(replica_ports)  # replica job -> IN port
        self.voter = TmrVoter(tuple(replica_ports), tolerance)
        self._last_seq: dict[str, int] = {}

    def poll(self, cluster: Cluster, now_us: int) -> list[Symptom]:
        voter = cluster.job(self.voter_job)
        observer = cluster.component_of_job(self.voter_job)
        values: dict[str, float] = {}
        for replica, port_name in self.replica_ports.items():
            port = voter.port(port_name)
            msg = port.read_state()
            if msg is None:
                continue
            # Only count a value as "delivered this round" if fresh.
            if self._last_seq.get(replica) == msg.seq:
                continue
            self._last_seq[replica] = msg.seq
            try:
                values[replica] = float(msg.value)
            except (TypeError, ValueError):
                values[replica] = float("nan")
        if not values:
            return []  # nothing arrived at all (component-level problem)
        result = self.voter.vote(values)
        symptoms: list[Symptom] = []
        lattice = cluster.time_base.lattice_point(now_us)
        for replica in (*result.deviating, *result.missing):
            symptoms.append(
                Symptom(
                    type=SymptomType.REPLICA_DEVIATION,
                    observer=observer,
                    subject_component=cluster.component_of_job(replica),
                    time_us=now_us,
                    lattice_point=lattice,
                    subject_job=replica,
                    magnitude=1.0,
                    detail=f"TMR {self.voter_job}",
                )
            )
        return symptoms


class DetectionService:
    """Installs LIF monitors on a cluster and emits symptoms to a sink."""

    def __init__(
        self,
        cluster: Cluster,
        sink: SymptomSink,
        timing_threshold_us: float | None = None,
    ) -> None:
        self.cluster = cluster
        self.sink = sink
        self.timing_threshold_us = (
            timing_threshold_us
            if timing_threshold_us is not None
            else max(4.0 * cluster.time_base.precision_us, 10.0)
        )
        self.tmr_monitors: list[TmrMonitor] = []
        self._queue_overflow_seen: dict[tuple[str, str], int] = {}
        self._vn_overflow_seen: dict[str, int] = {}
        self._membership_transitions_seen: dict[str, int] = {}
        self._guardian_blocks_seen: dict[str, int] = {}
        self.symptoms_emitted = 0
        # Hot-path caches over facts that are static for the cluster's
        # lifetime (component set, port directions/kinds, job placement) or
        # keyed to an explicit version (VN routing tables) — see
        # docs/performance.md for the invalidation contract.
        self._peers: dict[str, tuple[tuple[str, object], ...]] = {}
        self._value_specs: dict[tuple[str, str], object] = {}
        self._expected_generation: int | None = None
        self._expected_sources: dict[str, tuple[tuple[str, str], ...]] = {}
        self._event_ports: list | None = None
        # Fixed per cluster: the lattice the symptoms are stamped on and
        # the slot index that closes a round.
        self._granularity_us = cluster.time_base.granularity_us
        self._last_slot_index = cluster.schedule.slots_per_round - 1
        cluster.frame_observers.append(self._on_slot)

    # -- configuration ------------------------------------------------------

    def add_tmr_monitor(self, monitor: TmrMonitor) -> None:
        self.tmr_monitors.append(monitor)

    # -- emission -----------------------------------------------------------

    def _emit(self, symptom: Symptom) -> None:
        self.symptoms_emitted += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.counters.inc("detector.symptoms")
            obs.counters.inc("detector.symptoms.by_type", type=symptom.type.name)
            prov = obs.provenance
            if prov is None:
                obs.tracer.event(
                    "detector.symptom",
                    t_sim_us=symptom.time_us,
                    type=symptom.type.name,
                    observer=symptom.observer,
                    subject=symptom.subject_component,
                    job=symptom.subject_job,
                    lattice_point=symptom.lattice_point,
                )
            else:
                cause_id, parents = prov.symptom_node(symptom)
                tracer = obs.tracer
                if tracer.keeps_records:
                    tracer.causal_event(
                        "detector.symptom",
                        symptom.time_us,
                        cause_id,
                        parents,
                        type=symptom.type.name,
                        observer=symptom.observer,
                        subject=symptom.subject_component,
                        job=symptom.subject_job,
                        lattice_point=symptom.lattice_point,
                    )
                # Fold-only mode logs nothing: symptom_node above already
                # registered the node in the tracker ledger the stage
                # fold reads (see fold_stage_latencies' tracker path).
        self.sink(symptom.observer, symptom)

    # -- the per-slot observer ------------------------------------------------

    def _on_slot(
        self,
        slot: SlotPosition,
        frame: Frame | None,
        deliveries: dict[str, Delivery],
        now_us: int,
    ) -> None:
        """Judge one slot outcome at every operational peer of its sender.

        One pass over the peers, in component order: a peer's up-state is
        checked where it is judged (no emission changes hardware state),
        and the first operational peer is the nominal observer of the
        payload checks that follow.
        """
        lattice = now_us // self._granularity_us
        sender = slot.sender
        peers = self._peers.get(sender)
        if peers is None:
            peers = tuple(
                (name, comp)
                for name, comp in self.cluster.components.items()
                if name != sender
            )
            self._peers[sender] = peers

        if frame is None:
            for name, comp in peers:
                if comp.hardware.operational(now_us):
                    self._emit(
                        Symptom(
                            type=SymptomType.OMISSION,
                            observer=name,
                            subject_component=sender,
                            time_us=now_us,
                            lattice_point=lattice,
                        )
                    )
        else:
            timing_error = frame.timing_error_us
            late = abs(timing_error) > self.timing_threshold_us
            # The common case, received on every channel and on time,
            # costs one ``if`` and no call; ``clean`` matches no status
            # when the frame is late.
            clean = None if late else DeliveryStatus.RECEIVED
            get_delivery = deliveries.get
            observer = None
            for name, comp in peers:
                hardware = comp.hardware
                # HardwareState.operational, inlined: this runs for every
                # peer of every slot.
                if (
                    hardware.permanently_failed
                    or now_us < hardware.transient_outage_until_us
                ):
                    continue
                if observer is None:
                    observer = name
                delivery = get_delivery(name)
                if (
                    delivery is not None
                    and delivery.status is clean
                    and False not in delivery.channels_ok
                ):
                    continue
                self._observe_reception(
                    name, sender, delivery, late, timing_error, now_us, lattice
                )
            # Content checks are observer-independent (every receiver of
            # the frame sees the same payload); evaluate once with the
            # first operational receiver as the nominal observer.
            if observer is not None:
                self._observe_payload(slot, frame, observer, now_us, lattice)

        # Round-granular checks at the last slot of each round.
        if slot.slot_index == self._last_slot_index:
            self._poll_overflows(now_us, lattice)
            self._poll_membership(now_us, lattice)
            self._poll_guardians(now_us, lattice)
            self._poll_tmr(now_us)
            self._poll_internal_checks(now_us, lattice)

    def _observe_reception(
        self,
        name: str,
        sender: str,
        delivery: Delivery | None,
        late: bool,
        timing_error: float,
        now_us: int,
        lattice: int,
    ) -> None:
        """Symptoms of one anomalous reception of ``sender``'s frame."""
        status = DeliveryStatus.OMITTED if delivery is None else delivery.status
        if status is DeliveryStatus.OMITTED:
            self._emit(
                Symptom(
                    type=SymptomType.OMISSION,
                    observer=name,
                    subject_component=sender,
                    time_us=now_us,
                    lattice_point=lattice,
                )
            )
            return
        if status is DeliveryStatus.CORRUPTED:
            self._emit(
                Symptom(
                    type=SymptomType.CRC_ERROR,
                    observer=name,
                    subject_component=sender,
                    time_us=now_us,
                    lattice_point=lattice,
                    magnitude=float(delivery.frame.bit_flips),
                )
            )
            return
        # RECEIVED (so on at least one channel): per-channel shadow
        # omissions.
        for ch, ok in enumerate(delivery.channels_ok):
            if not ok:
                self._emit(
                    Symptom(
                        type=SymptomType.CHANNEL_OMISSION,
                        observer=name,
                        subject_component=sender,
                        time_us=now_us,
                        lattice_point=lattice,
                        channel=ch,
                    )
                )
        if late:
            self._emit(
                Symptom(
                    type=SymptomType.TIMING_VIOLATION,
                    observer=name,
                    subject_component=sender,
                    time_us=now_us,
                    lattice_point=lattice,
                    magnitude=float(timing_error),
                )
            )

    def _observe_payload(
        self,
        slot: SlotPosition,
        frame: Frame,
        observer: str,
        now_us: int,
        lattice: int,
    ) -> None:
        cluster = self.cluster
        present: set[tuple[str, str]] = set()
        value_specs = self._value_specs
        for vn_name, messages in frame.payload.items():
            vn = cluster.vns.get(vn_name)
            if vn is None:
                continue  # foreign payload (e.g. the diagnostic VN)
            for message in messages:
                key = (message.source_job, message.port)
                present.add(key)
                try:
                    spec = value_specs[key]
                except KeyError:
                    # Maintenance swaps job/port specs in place but reuses
                    # the PortSpec objects, so the value spec resolved once
                    # stays the live one.  Unknown source jobs cache None.
                    try:
                        source_job = cluster.job(message.source_job)
                    except ConfigurationError:
                        spec = None
                    else:
                        spec = source_job.spec.port(message.port).value_spec
                    value_specs[key] = spec
                if spec is None:
                    continue
                verdict = spec.classify(message.value)
                if verdict == CONFORMING:
                    continue
                if verdict == VIOLATING:
                    self._emit(
                        Symptom(
                            type=SymptomType.VALUE_VIOLATION,
                            observer=observer,
                            subject_component=slot.sender,
                            time_us=now_us,
                            lattice_point=lattice,
                            subject_job=message.source_job,
                            magnitude=float(spec.deviation(message.value)),
                            detail=f"port {message.port}",
                        )
                    )
                else:
                    self._emit(
                        Symptom(
                            type=SymptomType.VALUE_MARGINAL,
                            observer=observer,
                            subject_component=slot.sender,
                            time_us=now_us,
                            lattice_point=lattice,
                            subject_job=message.source_job,
                            magnitude=float(message.value)
                            if isinstance(message.value, (int, float))
                            else 0.0,
                            detail=f"port {message.port}",
                        )
                    )
        # Job-level omissions: expected periodic sources hosted on the
        # sender that contributed nothing to this frame.
        for source in self._expected_for(slot.sender):
            if source not in present:
                job_name, port_name = source
                self._emit(
                    Symptom(
                        type=SymptomType.OMISSION,
                        observer=observer,
                        subject_component=slot.sender,
                        time_us=now_us,
                        lattice_point=lattice,
                        subject_job=job_name,
                        detail=f"port {port_name}",
                    )
                )

    def _expected_for(self, sender: str) -> tuple[tuple[str, str], ...]:
        """Periodic VN sources hosted on ``sender`` (expected every slot).

        Derived from the VN routing tables; rebuilt whenever the cluster
        recompiles its routing (``routes_generation``: a VN's
        ``routes_version`` moved), otherwise served from the per-sender
        cache.  Placement and port periods are fixed for the cluster's
        lifetime.
        """
        cluster = self.cluster
        if cluster.routes_generation != self._expected_generation:
            self._expected_generation = cluster.routes_generation
            self._expected_sources = {}
        expected = self._expected_sources.get(sender)
        if expected is None:
            sender_component = cluster.components[sender]
            out = []
            for vn in cluster.vns.values():
                for source in vn.sources():
                    if cluster.job_location.get(source.job) != sender:
                        continue
                    job = sender_component.job(source.job)
                    if job.spec.port(source.port).period_slots != 1:
                        continue
                    out.append((source.job, source.port))
            expected = tuple(out)
            self._expected_sources[sender] = expected
        return expected

    # -- round-granular polls ---------------------------------------------------

    def _poll_overflows(self, now_us: int, lattice: int) -> None:
        cluster = self.cluster
        rows = self._event_ports
        if rows is None:
            # Port kinds and directions are fixed for the cluster's
            # lifetime (resize_queue swaps the spec but keeps both), so the
            # EVENT-kind IN ports worth polling are enumerated once.
            rows = [
                (name, component, job, port)
                for name, component in cluster.components.items()
                for job in component.jobs()
                for port in job.in_ports()
                if port.spec.kind is PortKind.EVENT
            ]
            self._event_ports = rows
        overflow_seen = self._queue_overflow_seen
        for name, component, job, port in rows:
            if not component.hardware.operational(now_us):
                continue
            count = port.overflow_count
            key = (job.name, port.spec.name)
            seen = overflow_seen.get(key, 0)
            if count > seen:
                overflow_seen[key] = count
                self._emit(
                    Symptom(
                        type=SymptomType.QUEUE_OVERFLOW,
                        observer=name,
                        subject_component=name,
                        time_us=now_us,
                        lattice_point=lattice,
                        subject_job=job.name,
                        magnitude=float(count - seen),
                        detail=f"port {port.spec.name}",
                    )
                )
        for vn_name, vn in cluster.vns.items():
            seen = self._vn_overflow_seen.get(vn_name, 0)
            if vn.tx_overflows > seen:
                self._vn_overflow_seen[vn_name] = vn.tx_overflows
                sources = sorted({s.job for s in vn.sources()})
                subject_job = sources[0] if sources else None
                subject_component = (
                    cluster.job_location.get(subject_job, "?")
                    if subject_job
                    else "?"
                )
                self._emit(
                    Symptom(
                        type=SymptomType.VN_BUDGET_OVERFLOW,
                        observer=subject_component,
                        subject_component=subject_component,
                        time_us=now_us,
                        lattice_point=lattice,
                        subject_job=subject_job,
                        magnitude=float(vn.tx_overflows - seen),
                        detail=f"vn {vn_name}",
                    )
                )

    def _poll_membership(self, now_us: int, lattice: int) -> None:
        cluster = self.cluster
        for name, membership in cluster.memberships.items():
            if not cluster.components[name].hardware.operational(now_us):
                continue
            transitions = membership.transitions
            seen = self._membership_transitions_seen.get(name, 0)
            if len(transitions) == seen:
                continue  # nothing new — skip the slice allocation
            new = transitions[seen:]
            self._membership_transitions_seen[name] = len(transitions)
            for t_us, sender, joined in new:
                if joined:
                    continue
                self._emit(
                    Symptom(
                        type=SymptomType.MEMBERSHIP_LOSS,
                        observer=name,
                        subject_component=sender,
                        time_us=now_us,
                        lattice_point=cluster.time_base.lattice_point(t_us),
                    )
                )

    def _poll_guardians(self, now_us: int, lattice: int) -> None:
        """Guardian block counters are interface state: a guardian that had
        to cut off untimely transmissions reports it via the component's
        diagnostic agent (the guardian itself is assumed correct)."""
        cluster = self.cluster
        for name, guardian in cluster.guardians.items():
            seen = self._guardian_blocks_seen.get(name, 0)
            if guardian.blocked_count > seen:
                self._guardian_blocks_seen[name] = guardian.blocked_count
                self._emit(
                    Symptom(
                        type=SymptomType.GUARDIAN_BLOCK,
                        observer=name,
                        subject_component=name,
                        time_us=now_us,
                        lattice_point=lattice,
                        magnitude=float(guardian.blocked_count - seen),
                    )
                )

    def _poll_tmr(self, now_us: int) -> None:
        for monitor in self.tmr_monitors:
            for symptom in monitor.poll(self.cluster, now_us):
                self._emit(symptom)

    def _poll_internal_checks(self, now_us: int, lattice: int) -> None:
        cluster = self.cluster
        for name, component in cluster.components.items():
            if not component.hardware.operational(now_us):
                continue
            for job in component.jobs():
                if not job.internal_checks or not job.active(now_us):
                    continue
                for check in job.internal_checks:
                    finding = check(job, now_us)
                    if finding is None:
                        continue
                    self._emit(
                        Symptom(
                            type=SymptomType.SENSOR_IMPLAUSIBLE,
                            observer=name,
                            subject_component=name,
                            time_us=now_us,
                            lattice_point=lattice,
                            subject_job=job.name,
                            detail=finding,
                        )
                    )


# -- job-internal check factories ---------------------------------------------


def sensor_range_check(
    sensor: str, low: float, high: float
) -> Callable[[Job, int], str | None]:
    """Model-based plausibility: the physical quantity must lie in a range."""

    def check(job: Job, now_us: int) -> str | None:
        readings = job.read_sensors()
        value = readings.get(sensor)
        if value is None:
            return None
        if not low <= value <= high:
            return f"sensor {sensor} reads {value:.3g}, outside [{low}, {high}]"
        return None

    return check


def sensor_stuck_check(
    sensor: str, min_change: float, window_polls: int = 10
) -> Callable[[Job, int], str | None]:
    """Model-based plausibility: a live physical quantity must vary.

    Flags the sensor when ``window_polls`` consecutive readings stayed
    within ``min_change`` of each other (stuck-at fault) — only meaningful
    for quantities known to fluctuate, which the model knowledge asserts.
    """

    state: dict[str, list[float]] = {}

    def check(job: Job, now_us: int) -> str | None:
        readings = job.read_sensors()
        value = readings.get(sensor)
        if value is None:
            return None
        history = state.setdefault(job.name, [])
        history.append(value)
        if len(history) > window_polls:
            history.pop(0)
        if len(history) < window_polls:
            return None
        if max(history) - min(history) < min_change:
            return f"sensor {sensor} stuck near {value:.3g}"
        return None

    return check
