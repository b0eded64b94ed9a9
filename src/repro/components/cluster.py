"""Cluster assembly and the time-triggered runtime.

A :class:`Cluster` wires together every substrate piece — TDMA schedule,
replicated bus, components with partitions and jobs, virtual networks,
clock synchronisation, membership and bus guardians — and drives them on a
:class:`repro.sim.engine.Simulator`.

The runtime emits anomaly records into a :class:`TraceRecorder` and offers
three extension hooks used by the diagnostic architecture:

* ``payload_contributors`` add extra virtual-network payload to outgoing
  frames (the virtual *diagnostic* network piggybacks symptom messages
  this way);
* ``payload_consumers`` see every successfully received frame (the
  diagnostic DAS consumes symptom messages);
* ``frame_observers`` see every slot outcome, including omissions (the
  local detectors of the diagnostic service).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, NamedTuple

from repro.errors import ConfigurationError
from repro.sim.engine import PRIORITY_NETWORK, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.tta.frames import Frame
from repro.tta.guardian import BusGuardian
from repro.tta.membership import MembershipService
from repro.tta.network import Bus, Delivery, DeliveryStatus
from repro.tta.sync import SyncService, achieved_precision_us
from repro.tta.tdma import SlotPosition, TdmaSchedule
from repro.tta.time_base import SparseTimeBase
from repro.components.component import Component, ComponentSpec
from repro.components.das import DasSpec
from repro.components.ports import Port
from repro.components.virtual_network import VirtualNetwork, carrier_index

_ROUTES_VERSION = attrgetter("routes_version")

FrameObserver = Callable[[SlotPosition, Frame | None, dict[str, Delivery], int], None]
PayloadContributor = Callable[[str, SlotPosition, int], dict[str, tuple[Any, ...]]]
PayloadConsumer = Callable[[str, Frame, int], None]


class _SlotPlan(NamedTuple):
    """What one sender's slots touch, resolved once per sender.

    Rows hold :class:`Component` objects, never their ``hardware`` or
    ``clock``: :meth:`Component.replace` swaps both.
    """

    component: Component
    membership: MembershipService
    guardian: BusGuardian
    #: ``(name, component, guardian)`` of every other component, for the
    #: babbling check.
    others: tuple[tuple[str, Component, BusGuardian], ...]
    #: ``(name, component, membership, sync)`` of every receiver.
    receivers: tuple[tuple[str, Component, MembershipService, SyncService], ...]


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """Static cluster description.

    Attributes
    ----------
    components:
        Component specifications (one TDMA slot each, in order).
    dases:
        DAS specifications; every DAS job must be placed on exactly one
        component partition.
    slot_length_us:
        TDMA slot duration.
    channels:
        Replicated physical channels (2 for TTP/C-style buses).
    sync_k:
        Fault-tolerance degree of the FTA clock synchronisation.
    lattice_granularity_us:
        Action-lattice granularity of the sparse time base; defaults to the
        slot length (one lattice point per slot).
    """

    components: tuple[ComponentSpec, ...]
    dases: tuple[DasSpec, ...] = ()
    slot_length_us: int = 1_000
    channels: int = 2
    sync_k: int = 1
    lattice_granularity_us: int | None = None

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("cluster needs at least one component")
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            raise ConfigurationError("duplicate component names")
        das_names = [d.name for d in self.dases]
        if len(das_names) != len(set(das_names)):
            raise ConfigurationError("duplicate DAS names")


class Cluster:
    """Runtime cluster: build from a spec, then :meth:`run`.

    Parameters
    ----------
    spec:
        The static cluster description.
    vns:
        Virtual networks keyed by name.  Links must connect ports of jobs
        belonging to the VN's own DAS (encapsulation); validated here.
    seed:
        Master seed for all stochastic elements.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        vns: dict[str, VirtualNetwork] | None = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.trace = TraceRecorder()
        self.schedule = TdmaSchedule(
            tuple(c.name for c in spec.components), spec.slot_length_us
        )
        self.bus = Bus(spec.channels, self.rng.stream("bus"))
        self.components: dict[str, Component] = {}
        for cspec in spec.components:
            component = Component(cspec)
            self.components[cspec.name] = component
            self.bus.attach(cspec.name, cspec.position)
        self.dases: dict[str, DasSpec] = {d.name: d for d in spec.dases}
        self.vns: dict[str, VirtualNetwork] = dict(vns or {})
        self.job_location: dict[str, str] = {}
        for component in self.components.values():
            for job in component.jobs():
                if job.name in self.job_location:
                    raise ConfigurationError(
                        f"job {job.name!r} placed on multiple components"
                    )
                self.job_location[job.name] = component.name
        self._validate_placement()
        self._validate_vns()

        drifts = [c.drift_ppm for c in spec.components]
        precision = achieved_precision_us(
            drifts if any(drifts) else [1.0],
            self.schedule.round_length_us,
            spec.sync_k,
        )
        granularity = (
            spec.lattice_granularity_us
            if spec.lattice_granularity_us is not None
            else spec.slot_length_us
        )
        if granularity <= 2 * precision:
            precision = max(0, (granularity - 1) // 2)
        self.time_base = SparseTimeBase(granularity, int(precision))

        participants = self.schedule.participants()
        self.memberships: dict[str, MembershipService] = {
            name: MembershipService(name, participants)
            for name in self.components
        }
        self.sync_services: dict[str, SyncService] = {
            name: SyncService(spec.sync_k) for name in self.components
        }
        # Guardian window: wide enough for synchronised-clock jitter and the
        # cluster's common-mode drift against the guardian's reference, yet
        # a small fraction of the slot, so babbling and gross timing faults
        # are still cut off.
        guardian_tolerance = max(4 * int(precision), spec.slot_length_us // 10, 2)
        self.guardians: dict[str, BusGuardian] = {
            name: BusGuardian(
                name,
                self.schedule,
                window_tolerance_us=guardian_tolerance,
            )
            for name in self.components
        }

        self.frame_observers: list[FrameObserver] = []
        self.payload_contributors: list[PayloadContributor] = []
        self.payload_consumers: list[PayloadConsumer] = []

        self._started = False
        self.slots_elapsed = 0
        self._next_slot: SlotPosition | None = None
        # Per-sender slot plans (see _plan), built on first use: the
        # component set and its services are fixed for the cluster's
        # lifetime, so a slot walks precomputed rows instead of filtering
        # and indexing the per-component dicts.
        self._plans: dict[str, _SlotPlan] = {}
        # VN routing compiled by _compile_routes whenever a VN's
        # routes_version moves; routes_generation counts the compilations
        # so other per-slot caches (the detector's) can key on it.
        self.routes_generation = 0
        self._routes_versions: tuple[int, ...] | None = None
        self._carriers: dict[tuple[str, str], tuple[str, ...]] = {}
        self._destinations: dict[
            tuple[str, str, str], tuple[tuple[str, Port, str, str], ...]
        ] = {}
        # The payload routing of the current slot's frame (see _route).
        self._routed_counts: tuple[tuple[VirtualNetwork, int], ...] = ()
        self._pushes: dict[str, list[tuple[Port, Any, str, str, str]]] = {}

    # -- validation ---------------------------------------------------------

    def _validate_placement(self) -> None:
        for das in self.dases.values():
            for job_spec in das.jobs:
                if job_spec.name not in self.job_location:
                    raise ConfigurationError(
                        f"job {job_spec.name!r} of DAS {das.name!r} is not "
                        "placed on any component"
                    )

    def _validate_vns(self) -> None:
        for vn in self.vns.values():
            if vn.das == "diagnostic":
                continue  # diagnostic VN is wired by the diagnosis layer
            das = self.dases.get(vn.das)
            if das is None:
                raise ConfigurationError(
                    f"virtual network {vn.name!r} references unknown DAS "
                    f"{vn.das!r}"
                )
            das_jobs = set(das.job_names())
            for source in vn.sources():
                if source.job not in das_jobs:
                    raise ConfigurationError(
                        f"VN {vn.name!r} sources from job {source.job!r} "
                        f"outside DAS {vn.das!r} (encapsulation violation)"
                    )

    # -- convenience accessors ------------------------------------------------

    def component(self, name: str) -> Component:
        try:
            return self.components[name]
        except KeyError:
            raise ConfigurationError(f"unknown component {name!r}") from None

    def job(self, name: str):
        """The runtime job instance with this name, wherever it is hosted."""
        location = self.job_location.get(name)
        if location is None:
            raise ConfigurationError(f"unknown job {name!r}")
        return self.components[location].job(name)

    def component_of_job(self, job_name: str) -> str:
        try:
            return self.job_location[job_name]
        except KeyError:
            raise ConfigurationError(f"unknown job {job_name!r}") from None

    @property
    def now(self) -> int:
        return self.sim.now

    # -- runtime ------------------------------------------------------------

    def start(self) -> None:
        """Schedule the communication system; idempotent.

        One periodic handle drives the slot cascade.  Each tick re-arms it
        at ``now + slot_length_us``, the slot's ``end_us``, and takes its
        sequence number after :meth:`_on_slot` returns, so the event order
        is what a ``schedule_at(slot.end_us, ...)`` ending ``_on_slot``
        would give.
        """
        if self._started:
            return
        self._started = True
        self.sim.schedule_periodic(
            self.schedule.slot_length_us,
            self._on_slot,
            start=0,
            priority=PRIORITY_NETWORK,
        )

    def run(self, duration_us: int) -> None:
        """Run the cluster for ``duration_us`` microseconds."""
        self.start()
        self.sim.run_for(int(duration_us))

    def run_rounds(self, rounds: int) -> None:
        """Run for an integral number of TDMA rounds."""
        self.run(rounds * self.schedule.round_length_us)

    def close(self) -> None:
        """End the cluster's life; call once its results have been read.

        Closes the simulator, which drops every queued event, empties the
        three extension hooks and removes the fault hooks from every job.
        Those are the references that point back from the cluster to the
        services and injectors built around it; without them a finished
        cluster and everything attached to it are freed by reference
        counting, with no wait for a cyclic collection.  Afterwards
        :meth:`run` raises :class:`~repro.errors.SimulationError`; state
        already produced (trace, counters, ``sim.events_processed``)
        stays readable.  Idempotent.
        """
        self.sim.close()
        self.frame_observers.clear()
        self.payload_contributors.clear()
        self.payload_consumers.clear()
        for component in self.components.values():
            for partition in component.partitions.values():
                partition.job.behaviour_wrapper = None
                partition.job.sensor_transform = None

    # -- VN routing -----------------------------------------------------------

    def _compile_routes(self, versions: tuple[int, ...]) -> None:
        """Rebuild the routing tables after a route change.

        ``_carriers`` maps a ``(job, port)`` source to the VNs carrying it
        (see :func:`carrier_index`).  ``_destinations`` maps each routed
        ``(vn, job, port)`` with at least one destination to its
        ``(receiver, Port, job, port)`` rows, in link order; destinations
        of unplaced jobs have no row.  Valid while job placement and Port
        objects stay fixed, which they do for the cluster's lifetime.
        """
        destinations = {}
        for vn_name, vn in self.vns.items():
            for (job, port), dests in vn.routes().items():
                if not dests:
                    continue
                rows = []
                for dest in dests:
                    receiver = self.job_location.get(dest.job)
                    if receiver is None:
                        continue
                    target = self.components[receiver].job(dest.job)
                    rows.append((receiver, target.port(dest.port), dest.job, dest.port))
                destinations[(vn_name, job, port)] = tuple(rows)
        self._carriers = carrier_index(self.vns)
        self._destinations = destinations
        self._routes_versions = versions
        self.routes_generation += 1

    def _route(self, frame: Frame) -> None:
        """Route the admitted ``frame``'s payload into per-receiver pushes.

        Called once per slot: loopback and every receiver that gets the
        frame intact get this same frame object.  Per receiver, pushes keep
        the order of routing at that receiver: VN, then message, then
        destination.  ``_routed_counts`` holds the per-VN
        ``messages_routed`` increment of one delivery: one per message
        whose source has destinations, placed or not.
        """
        destinations = self._destinations
        counts = []
        pushes: dict[str, list[tuple[Port, Any, str, str, str]]] = {}
        for vn_name, messages in frame.payload.items():
            vn = self.vns.get(vn_name)
            if vn is None:
                continue
            routed = 0
            for message in messages:
                rows = destinations.get((vn_name, message.source_job, message.port))
                if rows is None:
                    continue
                routed += 1
                for receiver, port, job_name, port_name in rows:
                    push = (port, message, job_name, port_name, vn_name)
                    queued = pushes.get(receiver)
                    if queued is None:
                        pushes[receiver] = [push]
                    else:
                        queued.append(push)
            if routed:
                counts.append((vn, routed))
        self._routed_counts = tuple(counts)
        self._pushes = pushes

    # -- slot processing ------------------------------------------------------

    def _plan(self, sender: str) -> _SlotPlan:
        """Build (once) and return the slot plan of ``sender``."""
        memberships = self.memberships
        guardians = self.guardians
        peers = [
            (name, component)
            for name, component in self.components.items()
            if name != sender
        ]
        plan = _SlotPlan(
            self.components[sender],
            memberships[sender],
            guardians[sender],
            tuple((name, comp, guardians[name]) for name, comp in peers),
            tuple(
                (name, comp, memberships[name], self.sync_services[name])
                for name, comp in peers
            ),
        )
        self._plans[sender] = plan
        return plan

    def _on_slot(self, sim: Simulator) -> None:
        now = sim.now
        slot = self._next_slot
        if slot is None or slot.start_us != now:
            slot = self.schedule.slot_at(now)
        self._next_slot = self.schedule.next_slot(slot)
        self.slots_elapsed += 1
        sender_name = slot.sender
        plan = self._plans.get(sender_name)
        if plan is None:
            plan = self._plan(sender_name)
        sender, membership, guardian, others, receivers = plan
        versions = tuple(map(_ROUTES_VERSION, self.vns.values()))
        if versions != self._routes_versions:
            self._compile_routes(versions)

        frame = sender.build_frame(
            slot,
            now,
            self.vns,
            self._carriers,
            membership=membership.view(),
        )

        # Babbling components attempt transmissions in foreign slots; the
        # guardians cut them off (strong fault isolation, C3).
        for name, component, other_guardian in others:
            hardware = component.hardware
            if not hardware.babbling or not hardware.operational(now):
                continue
            decision = other_guardian.check(now + 1, slot)
            if not decision.allowed:
                self.trace.record(
                    now, "guardian.blocked", name, reason=decision.reason
                )

        deliveries: dict[str, Delivery] = {}
        if frame is not None:
            contributions: dict[str, tuple[Any, ...]] = {}
            for contributor in self.payload_contributors:
                for vn_name, messages in contributor(
                    sender_name, slot, now
                ).items():
                    contributions[vn_name] = (
                        contributions.get(vn_name, ()) + tuple(messages)
                    )
            if contributions:
                payload = dict(frame.payload)
                for vn_name, messages in contributions.items():
                    payload[vn_name] = payload.get(vn_name, ()) + messages
                frame = Frame(
                    frame.sender,
                    frame.slot,
                    frame.send_time_us,
                    payload,
                    frame.crc_valid,
                    frame.bit_flips,
                    frame.membership,
                )
            decision = guardian.check(frame.send_time_us, slot)
            if decision.allowed:
                self._route(frame)
                deliveries = self.bus.broadcast(frame, now)
            else:
                self.trace.record(
                    now,
                    "guardian.blocked",
                    sender_name,
                    reason=decision.reason,
                    in_slot=True,
                )
                frame = None  # never reached the medium
        else:
            self.trace.record(now, "frame.silent", sender_name)

        # Local loopback: jobs hosted on the sending component receive the
        # VN messages of their co-hosted producers without a bus hop.
        delivered = 0
        if frame is not None and sender.hardware.operational(now):
            delivered = 1
            pushes = self._pushes.get(sender_name)
            if pushes is not None:
                self._deliver_payload(pushes, now)

        delivered += self._process_deliveries(slot, receivers, deliveries, now)
        if delivered:
            for vn, routed in self._routed_counts:
                vn.messages_routed += routed * delivered

        for observer in self.frame_observers:
            observer(slot, frame, deliveries, now)

        # Round boundary: apply clock corrections.
        if slot.slot_index == self.schedule.slots_per_round - 1:
            self._end_of_round(now)

    def _process_deliveries(
        self,
        slot: SlotPosition,
        receivers: tuple[tuple[str, Component, MembershipService, SyncService], ...],
        deliveries: dict[str, Delivery],
        now: int,
    ) -> int:
        """The receiver side of one slot; returns the number of intact
        receptions at operational receivers."""
        sender = slot.sender
        get_delivery = deliveries.get
        get_pushes = self._pushes.get
        intact = DeliveryStatus.RECEIVED
        count = 0
        for name, component, membership, sync_service in receivers:
            hardware = component.hardware
            # HardwareState.operational, inlined: this runs for every
            # receiver of every slot.
            if hardware.permanently_failed or now < hardware.transient_outage_until_us:
                continue
            delivery = get_delivery(name)
            status = None if delivery is None else delivery.status
            membership.observe(sender, status is intact, now)
            if status is intact:
                # Successful reception: clock sync measurement + port delivery.
                count += 1
                received = delivery.frame
                deviation = received.send_time_us - (
                    slot.start_us + component.clock.error(now)
                )
                sync_service.observe(deviation)
                pushes = get_pushes(name)
                if pushes is not None:
                    self._deliver_payload(pushes, now)
                for consumer in self.payload_consumers:
                    consumer(name, received, now)
            elif status is DeliveryStatus.CORRUPTED:
                self.trace.record(
                    now,
                    "delivery.corrupted",
                    name,
                    sender=sender,
                    bit_flips=delivery.frame.bit_flips,
                )
            else:
                self.trace.record(now, "delivery.omitted", name, sender=sender)
        return count

    def _deliver_payload(
        self, pushes: list[tuple[Port, Any, str, str, str]], now: int
    ) -> None:
        """Push one receiver's share of the slot frame's VN messages
        (routed by :meth:`_route`) into its ports."""
        for port, message, job_name, port_name, vn_name in pushes:
            if not port.push(message):
                self.trace.record(
                    now, "port.overflow", job_name, port=port_name, vn=vn_name
                )

    def _end_of_round(self, now: int) -> None:
        for name, component in self.components.items():
            if not component.hardware.operational(now):
                self.sync_services[name].round_correction()  # discard
                continue
            correction = self.sync_services[name].round_correction()
            if correction is not None:
                component.clock.apply_correction(correction, now)
