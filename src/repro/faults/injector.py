"""Fault injection with ground-truth labels.

The :class:`FaultInjector` applies faults of every class of the
maintenance-oriented fault model to a running :class:`~repro.components.cluster.Cluster`.
Each injection returns a :class:`~repro.core.fault_model.FaultDescriptor`
carrying the *true* class, persistence, origin and FRU, so classification
experiments can score the diagnosis exactly (confusion matrices in the
Fig. 4/5/6 benches are measured, never estimated).

Mechanisms and their manifestations:

=====================  =========================  ===============================
method                 true class                 manifestation
=====================  =========================  ===============================
inject_emi_burst       COMPONENT_EXTERNAL         bit flips, multiple components
                                                  in spatial proximity, ~10 ms
inject_seu             COMPONENT_EXTERNAL         one corrupted frame, one node
inject_connector_fault COMPONENT_BORDERLINE       omissions on one channel of
                                                  one component
inject_wiring_fault    COMPONENT_BORDERLINE       omissions on one channel,
                                                  all components
inject_transient_internal COMPONENT_INTERNAL      fail-silent outage of tens ms
inject_recurring_transients COMPONENT_INTERNAL    outages recurring at the same
                                                  location (marginal solder etc.)
inject_wearout         COMPONENT_INTERNAL         outage frequency increasing
                                                  over time
inject_permanent_internal COMPONENT_INTERNAL      permanent silence / babbling /
                                                  corruption / timing offset
inject_software_bohrbug JOB_INHERENT_SOFTWARE     deterministic out-of-spec
                                                  output of one job
inject_software_heisenbug JOB_INHERENT_SOFTWARE   rare random out-of-spec output
inject_job_crash       JOB_INHERENT_SOFTWARE      one job silent, others fine
inject_sensor_fault    JOB_INHERENT_TRANSDUCER    stuck/drift/offset input
inject_queue_config_fault JOB_BORDERLINE          receive-queue overflows
inject_vn_budget_config_fault JOB_BORDERLINE      tx-budget message loss
=====================  =========================  ===============================
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from repro.components.cluster import Cluster
from repro.core.fault_model import (
    FaultClass,
    FaultDescriptor,
    OriginPhase,
    Persistence,
    component_fru,
    job_fru,
)
from repro.errors import FaultInjectionError
from repro.faults import rates
from repro.obs import state as _obs
from repro.faults.wearout import wearout_fit_profile
from repro.reliability.fit import exponential_arrivals_us, thinned_arrivals_us
from repro.sim.engine import PRIORITY_FAULT
from repro.tta.network import DisturbanceZone


class FaultInjector:
    """Applies labelled faults to a cluster; keeps the ground-truth ledger."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.rng = cluster.rng.stream("faults.injector")
        self.injected: list[FaultDescriptor] = []
        self._ids = itertools.count(1)
        #: Open deferred-effects section, or None (immediate mode).
        self._deferred: list[Callable[[], None]] | None = None

    # -- deferred-effects section ------------------------------------------
    #
    # The counterfactual replay engine suppresses individual campaign
    # events without perturbing anything else.  To keep a suppressed
    # injection side-effect free while preserving every RNG draw and the
    # fault-id sequence, an inject_* call can run inside a *deferred
    # section*: all sim scheduling (everything funnels through ``_at``)
    # and all ledger/trace/provenance registration are captured as
    # closures instead of applied.  ``commit_deferred`` then replays them
    # in original order — byte-identical to immediate mode — while
    # ``discard_deferred`` drops them, leaving only the consumed fault id
    # behind so later descriptors keep their baseline ids.

    def begin_deferred(self) -> None:
        """Open a deferred-effects section (no nesting)."""
        if self._deferred is not None:
            raise FaultInjectionError("deferred section already open")
        self._deferred = []

    def commit_deferred(self) -> None:
        """Apply the pending effects in original order and close."""
        pending = self._deferred
        if pending is None:
            raise FaultInjectionError("no deferred section open")
        self._deferred = None
        for effect in pending:
            effect()

    def discard_deferred(self) -> None:
        """Drop the pending effects (the suppressed-fault path)."""
        if self._deferred is None:
            raise FaultInjectionError("no deferred section open")
        self._deferred = None

    # -- bookkeeping -------------------------------------------------------

    def _register(
        self,
        fault_class: FaultClass,
        persistence: Persistence,
        origin: OriginPhase,
        fru,
        mechanism: str,
        activation_us: int,
        **extra: Any,
    ) -> FaultDescriptor:
        # The descriptor — and its id draw — are always eager, so a
        # deferred-then-discarded injection still consumes its fault id
        # and every later fault keeps its baseline numbering.
        descriptor = FaultDescriptor(
            fault_id=f"F{next(self._ids):04d}",
            fault_class=fault_class,
            persistence=persistence,
            origin=origin,
            fru=fru,
            mechanism=mechanism,
            activation_us=int(activation_us),
        )
        if self._deferred is not None:
            self._deferred.append(
                lambda: self._commit_registration(descriptor, extra)
            )
        else:
            self._commit_registration(descriptor, extra)
        return descriptor

    def _commit_registration(
        self, descriptor: FaultDescriptor, extra: Mapping[str, Any]
    ) -> None:
        fru = descriptor.fru
        activation_us = descriptor.activation_us
        self.injected.append(descriptor)
        self.cluster.trace.record(
            activation_us if activation_us >= self.cluster.now else self.cluster.now,
            "fault.injected",
            str(fru),
            fault_id=descriptor.fault_id,
            fault_class=descriptor.fault_class.value,
            mechanism=descriptor.mechanism,
            **extra,
        )
        obs = _obs.ACTIVE
        if obs.enabled:
            prov = obs.provenance
            if prov is not None:
                # Subjects the fault can manifest on: the FRU itself plus,
                # for EMI bursts, every component inside the zone.
                subjects = [fru.name]
                affected = extra.get("affected")
                if affected:
                    subjects.extend(str(affected).split(","))
                cause_id = prov.register_fault(
                    descriptor.fault_id, subjects, descriptor.activation_us
                )
                obs.tracer.causal_event(
                    "fault.injected",
                    descriptor.activation_us,
                    cause_id,
                    (),
                    fault_id=descriptor.fault_id,
                    fru=str(fru),
                    cls=descriptor.fault_class.value,
                    mechanism=descriptor.mechanism,
                )

    def ground_truth(self) -> dict[str, FaultDescriptor]:
        """Ledger of every injected fault by id."""
        return {d.fault_id: d for d in self.injected}

    def _at(self, at_us: int, action: Callable[[], None]) -> None:
        if self._deferred is not None:
            self._deferred.append(lambda: self._schedule_at(at_us, action))
        else:
            self._schedule_at(at_us, action)

    def _schedule_at(self, at_us: int, action: Callable[[], None]) -> None:
        self.cluster.sim.schedule_at(
            int(at_us), lambda _sim: action(), priority=PRIORITY_FAULT
        )

    def _component(self, name: str):
        if name not in self.cluster.components:
            raise FaultInjectionError(f"unknown component {name!r}")
        return self.cluster.components[name]

    def _job(self, name: str):
        if name not in self.cluster.job_location:
            raise FaultInjectionError(f"unknown job {name!r}")
        return self.cluster.job(name)

    # ======================================================================
    # Component external (§III-C: no permanent effect; restart suffices)
    # ======================================================================

    def inject_emi_burst(
        self,
        at_us: int,
        center: tuple[float, float] = (0.0, 0.0),
        radius: float = 2.0,
        duration_us: int = rates.EMI_BURST_DURATION_US,
        mean_flips: float = 3.0,
        hit_prob: float = 1.0,
    ) -> FaultDescriptor:
        """An ISO-7637-style EMI burst around ``center``.

        Frames of components within ``radius`` suffer multiple bit flips
        while the burst is active — the massive-transient fault pattern:
        multiple components, spatial proximity, same lattice interval.
        """
        if duration_us <= 0:
            raise FaultInjectionError("duration_us must be positive")
        zone = DisturbanceZone(
            position=center,
            radius=radius,
            start_us=int(at_us),
            end_us=int(at_us) + int(duration_us),
            hit_prob=hit_prob,
            mean_flips=mean_flips,
            label="emi",
        )
        self._at(at_us, lambda: self.cluster.bus.add_zone(zone))
        affected = [
            name
            for name, att in self.cluster.bus.attachments.items()
            if zone.covers(att.position)
        ]
        if not affected:
            raise FaultInjectionError(
                "EMI zone covers no component; check center/radius"
            )
        # Attribute the descriptor to the first affected component: external
        # faults have no true internal FRU, but the classification is scored
        # on the *class*, and maintenance on "no action".
        return self._register(
            FaultClass.COMPONENT_EXTERNAL,
            Persistence.TRANSIENT,
            OriginPhase.OPERATIONAL,
            component_fru(affected[0]),
            "emi-burst",
            at_us,
            affected=",".join(affected),
            duration_us=int(duration_us),
        )

    def inject_seu(self, component: str, at_us: int) -> FaultDescriptor:
        """A single-event upset: one corrupted frame of one component."""
        comp = self._component(component)
        slot_len = self.cluster.schedule.slot_length_us

        def activate() -> None:
            comp.hardware.corrupt_tx_bits += 1
            self.cluster.sim.schedule_in(
                self.cluster.schedule.round_length_us,
                lambda _s: _clear(),
                priority=PRIORITY_FAULT,
            )

        def _clear() -> None:
            comp.hardware.corrupt_tx_bits = max(
                0, comp.hardware.corrupt_tx_bits - 1
            )

        self._at(at_us, activate)
        return self._register(
            FaultClass.COMPONENT_EXTERNAL,
            Persistence.TRANSIENT,
            OriginPhase.OPERATIONAL,
            component_fru(component),
            "seu",
            at_us,
            slot_length_us=slot_len,
        )

    # ======================================================================
    # Component borderline (connectors and wiring, §III-C, §IV-A.2)
    # ======================================================================

    def inject_connector_fault(
        self,
        component: str,
        channel: int = 0,
        omission_prob: float = 0.5,
        at_us: int = 0,
        direction: str = "both",
        origin: OriginPhase = OriginPhase.OPERATIONAL,
    ) -> FaultDescriptor:
        """Degrade one channel of one component's connector (fretting,
        corrosion, loose pin).  Signature: message omissions on a channel,
        one component only, arbitrary in time (Fig. 8)."""
        self._component(component)
        att = self.cluster.bus.attachment(component)
        self._at(
            at_us,
            lambda: att.degrade_connector(
                channel, omission_prob, direction=direction
            ),
        )
        return self._register(
            FaultClass.COMPONENT_BORDERLINE,
            Persistence.INTERMITTENT,
            origin,
            component_fru(component),
            "connector",
            at_us,
            channel=channel,
            omission_prob=omission_prob,
        )

    def inject_wiring_fault(
        self,
        channel: int,
        omission_prob: float = 0.3,
        at_us: int = 0,
    ) -> FaultDescriptor:
        """Degrade one physical channel of the cable loom (chafed wiring,
        §IV-A.3d): omissions for every component, on one channel only."""
        if not 0 <= channel < self.cluster.bus.channels:
            raise FaultInjectionError(f"no such channel {channel}")
        state = self.cluster.bus.channel_state[channel]

        def activate() -> None:
            state.omission_prob = omission_prob

        self._at(at_us, activate)
        return self._register(
            FaultClass.COMPONENT_BORDERLINE,
            Persistence.INTERMITTENT,
            OriginPhase.OPERATIONAL,
            component_fru(f"loom-channel-{channel}"),
            "wiring",
            at_us,
            channel=channel,
            omission_prob=omission_prob,
        )

    # ======================================================================
    # Component internal (§III-C: only replacement eliminates these)
    # ======================================================================

    def _schedule_outage(self, comp, at_us: int, duration_us: int) -> None:
        generation = comp.hardware_generation

        def activate() -> None:
            if comp.hardware_generation != generation:
                return  # the faulty unit was replaced in the meantime
            comp.hardware.transient_outage_until_us = max(
                comp.hardware.transient_outage_until_us,
                self.cluster.now + int(duration_us),
            )

        self._at(at_us, activate)

    def inject_transient_internal(
        self,
        component: str,
        at_us: int,
        duration_us: int = rates.TRANSIENT_OUTAGE_TYPICAL_US,
        origin: OriginPhase = OriginPhase.MANUFACTURING,
    ) -> FaultDescriptor:
        """One transient outage from an internal cause (marginal solder
        joint, crack touching): tens of milliseconds of silence."""
        comp = self._component(component)
        if duration_us <= 0:
            raise FaultInjectionError("duration_us must be positive")
        self._schedule_outage(comp, at_us, duration_us)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.TRANSIENT,
            origin,
            component_fru(component),
            "transient-internal",
            at_us,
            duration_us=int(duration_us),
        )

    def inject_recurring_transients(
        self,
        component: str,
        start_us: int,
        horizon_us: int,
        fit: float = rates.TRANSIENT_HW_FIT,
        duration_us: int = rates.TRANSIENT_OUTAGE_TYPICAL_US,
        min_occurrences: int = 0,
    ) -> FaultDescriptor:
        """Recurring internal transients at one location (the §V-C signal:
        'transient component internal faults tend to occur at a higher rate
        ... and occur repeatedly at the same location')."""
        comp = self._component(component)
        arrivals = exponential_arrivals_us(
            self.rng, fit, int(horizon_us), int(start_us)
        )
        if arrivals.size < min_occurrences:
            extra_count = min_occurrences - arrivals.size
            extra = self.rng.integers(start_us, horizon_us, extra_count)
            arrivals = np.sort(np.concatenate([arrivals, extra]))
        for t in arrivals:
            self._schedule_outage(comp, int(t), duration_us)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.INTERMITTENT,
            OriginPhase.MANUFACTURING,
            component_fru(component),
            "recurring-transient",
            start_us,
            occurrences=int(arrivals.size),
            fit=fit,
        )

    def inject_wearout(
        self,
        component: str,
        onset_us: int,
        full_us: int,
        horizon_us: int,
        base_fit: float = rates.TRANSIENT_HW_FIT,
        multiplier: float = 10.0,
        duration_us: int = rates.TRANSIENT_OUTAGE_TYPICAL_US,
    ) -> FaultDescriptor:
        """Wearout: transient outages whose frequency grows over time
        (Fig. 8 wearout signature; the paper's wearout indicator)."""
        comp = self._component(component)
        profile = wearout_fit_profile(base_fit, onset_us, full_us, multiplier)
        arrivals = thinned_arrivals_us(
            self.rng,
            profile,
            base_fit * multiplier,
            int(horizon_us),
            int(onset_us),
        )
        for t in arrivals:
            self._schedule_outage(comp, int(t), duration_us)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.INTERMITTENT,
            OriginPhase.OPERATIONAL,
            component_fru(component),
            "wearout",
            onset_us,
            occurrences=int(arrivals.size),
            base_fit=base_fit,
            multiplier=multiplier,
        )

    def inject_permanent_internal(
        self,
        component: str,
        at_us: int,
        mode: str = "silent",
        timing_offset_us: float = 400.0,
        corrupt_bits: int = 4,
        origin: OriginPhase = OriginPhase.OPERATIONAL,
    ) -> FaultDescriptor:
        """Permanent internal hardware fault.

        Modes: ``silent`` (dead node), ``babbling`` (guardian-contained),
        ``corrupt`` (every frame CRC-invalid), ``timing`` (quartz defect:
        send instants shifted beyond the guardian window).
        """
        comp = self._component(component)
        if mode not in ("silent", "babbling", "corrupt", "timing"):
            raise FaultInjectionError(f"unknown permanent mode {mode!r}")

        def activate() -> None:
            if mode == "silent":
                comp.hardware.permanently_failed = True
            elif mode == "babbling":
                comp.hardware.babbling = True
            elif mode == "corrupt":
                comp.hardware.corrupt_tx_bits = corrupt_bits
            elif mode == "timing":
                comp.hardware.timing_offset_us = timing_offset_us

        self._at(at_us, activate)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.PERMANENT,
            origin,
            component_fru(component),
            f"permanent-{mode}",
            at_us,
        )

    def inject_quartz_degradation(
        self,
        component: str,
        at_us: int,
        drift_step_us: float = 8.0,
        step_period_us: int = 100_000,
        max_offset_us: float = 200.0,
    ) -> FaultDescriptor:
        """A degrading quartz (§IV-A.1c): the send instant drifts further
        off the nominal slot start every ``step_period_us`` — the timing
        analogue of the wearout value signature ("increasing deviation
        ..., at the verge of becoming incorrect") until the guardian
        finally cuts the component off."""
        comp = self._component(component)
        if drift_step_us <= 0 or step_period_us <= 0:
            raise FaultInjectionError("drift step and period must be positive")
        generation = comp.hardware_generation

        def step() -> None:
            if comp.hardware_generation != generation:
                return
            if abs(comp.hardware.timing_offset_us) < max_offset_us:
                comp.hardware.timing_offset_us += drift_step_us
                self.cluster.sim.schedule_in(
                    step_period_us, lambda _s: step(), priority=PRIORITY_FAULT
                )

        self._at(at_us, step)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.PERMANENT,
            OriginPhase.OPERATIONAL,
            component_fru(component),
            "quartz-degradation",
            at_us,
            drift_step_us=drift_step_us,
        )

    def inject_power_brownout(
        self,
        component: str,
        at_us: int,
        duration_us: int = 500_000,
        outage_us: int = 10_000,
        episode_period_us: int = 60_000,
    ) -> FaultDescriptor:
        """Variability of the component's power supply (§IV-A.1d): during
        the brownout window the node suffers short repeated outages and
        corrupted transmissions — an *internal* fault of the shared power
        element, observable as recurring failures at one location."""
        comp = self._component(component)
        if duration_us <= 0 or outage_us <= 0 or episode_period_us <= 0:
            raise FaultInjectionError("brownout parameters must be positive")
        end = int(at_us) + int(duration_us)
        generation = comp.hardware_generation

        t = int(at_us)
        corrupt = True
        while t < end:
            if corrupt:
                self._at(t, self._make_corrupt_pulse(comp, generation))
            else:
                self._schedule_outage(comp, t, outage_us)
            corrupt = not corrupt
            t += int(episode_period_us)

        def clear() -> None:
            if comp.hardware_generation == generation:
                comp.hardware.corrupt_tx_bits = 0

        self._at(end, clear)
        return self._register(
            FaultClass.COMPONENT_INTERNAL,
            Persistence.INTERMITTENT,
            OriginPhase.OPERATIONAL,
            component_fru(component),
            "power-brownout",
            at_us,
            duration_us=int(duration_us),
        )

    def _make_corrupt_pulse(self, comp, generation: int):
        def pulse() -> None:
            if comp.hardware_generation != generation:
                return
            comp.hardware.corrupt_tx_bits = 2
            self.cluster.sim.schedule_in(
                self.cluster.schedule.round_length_us,
                lambda _s: _clear(),
                priority=PRIORITY_FAULT,
            )

        def _clear() -> None:
            if comp.hardware_generation == generation:
                comp.hardware.corrupt_tx_bits = 0

        return pulse

    # ======================================================================
    # Job inherent — software (§III-D, §IV-B.1)
    # ======================================================================

    def inject_software_bohrbug(
        self,
        job_name: str,
        at_us: int,
        bad_value: float | None = None,
        trigger_period: int = 1,
    ) -> FaultDescriptor:
        """A deterministic design fault (Bohrbug): after activation the job
        emits an out-of-spec value on every ``trigger_period``-th dispatch."""
        job = self._job(job_name)
        if trigger_period < 1:
            raise FaultInjectionError("trigger_period must be >= 1")

        def wrapper(ctx, outputs: Mapping[str, Any]) -> dict[str, Any]:
            if ctx.dispatch_index % trigger_period != 0:
                return dict(outputs)
            bad = {}
            for port_name, value in outputs.items():
                bad[port_name] = (
                    bad_value
                    if bad_value is not None
                    else self._out_of_spec_value(job, port_name)
                )
            return bad or {
                p.spec.name: bad_value if bad_value is not None else 1e9
                for p in job.out_ports()
            }

        self._at(at_us, lambda: setattr(job, "behaviour_wrapper", wrapper))
        return self._register(
            FaultClass.JOB_INHERENT_SOFTWARE,
            Persistence.PERMANENT,
            OriginPhase.DESIGN,
            job_fru(job_name),
            "bohrbug",
            at_us,
            trigger_period=trigger_period,
        )

    def inject_software_heisenbug(
        self,
        job_name: str,
        at_us: int,
        manifest_prob: float = 0.02,
        bad_value: float | None = None,
    ) -> FaultDescriptor:
        """A Heisenbug: a design fault manifesting rarely and apparently at
        random — perceived as a transient failure (Gray, §IV-B.1)."""
        job = self._job(job_name)
        if not 0.0 < manifest_prob <= 1.0:
            raise FaultInjectionError("manifest_prob must be in (0, 1]")
        rng = self.rng

        def wrapper(ctx, outputs: Mapping[str, Any]) -> dict[str, Any]:
            if rng.random() >= manifest_prob:
                return dict(outputs)
            bad = {}
            for port_name, value in outputs.items():
                bad[port_name] = (
                    bad_value
                    if bad_value is not None
                    else self._out_of_spec_value(job, port_name)
                )
            return bad or {
                p.spec.name: bad_value if bad_value is not None else 1e9
                for p in job.out_ports()
            }

        self._at(at_us, lambda: setattr(job, "behaviour_wrapper", wrapper))
        return self._register(
            FaultClass.JOB_INHERENT_SOFTWARE,
            Persistence.INTERMITTENT,
            OriginPhase.DESIGN,
            job_fru(job_name),
            "heisenbug",
            at_us,
            manifest_prob=manifest_prob,
        )

    def inject_job_crash(
        self, job_name: str, at_us: int, duration_us: int | None = None
    ) -> FaultDescriptor:
        """Crash one job (partition) while the component keeps running."""
        job = self._job(job_name)

        def activate() -> None:
            if duration_us is None:
                job.crashed = True
            else:
                job.suppressed_until_us = self.cluster.now + int(duration_us)

        self._at(at_us, activate)
        return self._register(
            FaultClass.JOB_INHERENT_SOFTWARE,
            Persistence.PERMANENT if duration_us is None else Persistence.TRANSIENT,
            OriginPhase.DESIGN,
            job_fru(job_name),
            "job-crash",
            at_us,
        )

    # ======================================================================
    # Job inherent — transducer (§IV-B.1b)
    # ======================================================================

    def inject_sensor_fault(
        self,
        job_name: str,
        at_us: int,
        mode: str = "stuck",
        stuck_value: float = 0.0,
        drift_per_s: float = 1.0,
        offset: float = 0.0,
    ) -> FaultDescriptor:
        """Fail the job's sensor: ``stuck`` / ``drift`` / ``offset``.

        Drift produces the wearout *value* signature of Fig. 8: increasing
        deviation from the correct value, at the verge of becoming
        incorrect, until it finally leaves the specification.
        """
        job = self._job(job_name)
        if mode not in ("stuck", "drift", "offset"):
            raise FaultInjectionError(f"unknown sensor fault mode {mode!r}")
        cluster = self.cluster
        activation = int(at_us)

        def transform(name: str, value: float) -> float:
            if mode == "stuck":
                return stuck_value
            if mode == "offset":
                return value + offset
            elapsed_s = max(0.0, (cluster.now - activation) / 1e6)
            return value + drift_per_s * elapsed_s

        self._at(at_us, lambda: setattr(job, "sensor_transform", transform))
        return self._register(
            FaultClass.JOB_INHERENT_TRANSDUCER,
            Persistence.PERMANENT,
            OriginPhase.OPERATIONAL,
            job_fru(job_name),
            f"sensor-{mode}",
            at_us,
        )

    # ======================================================================
    # Job borderline — configuration faults (§III-D, §IV-B.2)
    # ======================================================================

    def inject_queue_config_fault(
        self, job_name: str, port: str, capacity: int = 1, at_us: int = 0
    ) -> FaultDescriptor:
        """Under-dimension a receive queue: messages are lost although every
        job behaves to spec — a misconfiguration of the VN service derived
        from wrong assumptions about message inter-arrival times."""
        job = self._job(job_name)
        port_obj = job.port(port)

        def activate() -> None:
            port_obj.resize_queue(capacity)

        self._at(at_us, activate)
        return self._register(
            FaultClass.JOB_BORDERLINE,
            Persistence.PERMANENT,
            OriginPhase.DESIGN,
            job_fru(job_name),
            "queue-config",
            at_us,
            port=port,
            capacity=capacity,
        )

    def inject_vn_budget_config_fault(
        self, vn_name: str, slot_budget: int = 1, at_us: int = 0
    ) -> FaultDescriptor:
        """Under-dimension a VN's per-slot bandwidth budget."""
        vn = self.cluster.vns.get(vn_name)
        if vn is None:
            raise FaultInjectionError(f"unknown virtual network {vn_name!r}")
        affected_jobs = sorted({s.job for s in vn.sources()})
        if not affected_jobs:
            raise FaultInjectionError(f"VN {vn_name!r} has no sources")
        self._at(at_us, lambda: vn.reconfigure_budget(slot_budget))
        return self._register(
            FaultClass.JOB_BORDERLINE,
            Persistence.PERMANENT,
            OriginPhase.DESIGN,
            job_fru(affected_jobs[0]),
            "vn-budget-config",
            at_us,
            vn=vn_name,
            slot_budget=slot_budget,
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _out_of_spec_value(job, port_name: str) -> float:
        """A value clearly violating the port's value spec.

        ``"*"`` (the broadcast pseudo-port) resolves to the job's first
        output port.
        """
        if port_name == "*":
            out_ports = job.out_ports()
            if not out_ports:
                return 1e12
            spec = out_ports[0].spec.value_spec
        else:
            spec = job.port(port_name).spec.value_spec
        if np.isfinite(spec.high):
            return spec.high + max(1.0, (spec.high - spec.low))
        return 1e12
