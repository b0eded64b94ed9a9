"""Equivalence goldens for the slot pipeline beyond the Fig. 10 cluster.

The battery in ``test_optimization_equivalence.py`` runs every scenario on
the Fig. 10 cluster with its routes fixed at construction.  The runs here
cover what it never exercises, each under a fixed fault schedule:

* ``small_cluster`` — one producer fanned out to event-queue consumers;
* ``gateway_cluster`` — a gateway job carrying values across two DASs;
* ``avionics_cluster`` with both TMR monitors — its ``vn-airdata`` link
  has no destinations, so ``messages_routed`` must not count it;
* the Fig. 10 cluster with routes added in mid-run — for the unrouted
  ``A3.out``, for ``C2.out`` into the same ports (two pushes into one
  port in one slot, then into an undersized queue) and for ``s-voter``
  to a job no component hosts — and a VN budget reconfigured.

Every run pins the cluster and obs trace digests, the event count, the
per-object counters the slot pipeline maintains (VN routing and overflow
counts, per-port deliveries and overflows, broadcasts, guardian gate
counts, membership transitions and detector symptoms) and what the
ports hold at the end (state-port values, drained event histories).

To regenerate after a *deliberate* semantic change (never for a pure
optimization):

    PYTHONPATH=src python -c \
      "from tests.integration.test_slot_pipeline_equivalence import regenerate; regenerate()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.components.ports import Message, PortKind
from repro.components.virtual_network import PortAddress, VnLink
from repro.core.symptoms import Symptom, SymptomType
from repro.diagnosis.diag_das import DiagnosticService
from repro.diagnosis.dissemination import SymptomMessage
from repro.faults.injector import FaultInjector
from repro.obs.tracer import trace_digest
from repro.presets import (
    avionics_cluster,
    figure10_cluster,
    gateway_cluster,
    small_cluster,
)
from repro.sim.engine import PRIORITY_FAULT
from repro.tta.frames import Frame
from repro.tta.network import Delivery, DeliveryStatus
from repro.tta.tdma import TdmaSchedule
from repro.units import ms

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_slot_pipeline.json"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _port_contents(cluster) -> dict:
    """Last state-port message and drained event history of every job."""
    contents = {}
    for component in cluster.components.values():
        for job in component.jobs():
            states = {}
            for name, port in sorted(job.ports.items()):
                if port.spec.kind is PortKind.STATE:
                    msg = port.read_state()
                    states[name] = None if msg is None else [msg.source_job, msg.seq]
            contents[job.name] = [states, job.state.get("consumed", [])]
    return contents


def _snapshot(cluster, service, o) -> dict:
    transitions = {
        name: [list(t) for t in m.transitions]
        for name, m in sorted(cluster.memberships.items())
    }
    return {
        "cluster_digest": cluster.trace.digest(),
        "obs_digest": trace_digest(o.trace_dicts()),
        "events_processed": cluster.sim.events_processed,
        "symptoms": service.detection.symptoms_emitted,
        "frames_broadcast": cluster.bus.frames_broadcast,
        "vns": {
            name: [vn.messages_routed, vn.tx_overflows]
            for name, vn in sorted(cluster.vns.items())
        },
        "ports": {
            f"{job.name}.{name}": [port.messages_in, port.overflow_count]
            for component in cluster.components.values()
            for job in component.jobs()
            for name, port in sorted(job.ports.items())
        },
        "guardians": {
            name: [g.passed_count, g.blocked_count]
            for name, g in sorted(cluster.guardians.items())
        },
        "membership_transitions": sum(len(t) for t in transitions.values()),
        "membership_digest": _digest(transitions),
        "port_contents_digest": _digest(_port_contents(cluster)),
    }


def _run(build) -> dict:
    with obs.activated(obs.Observability()) as o:
        cluster, service, horizon_us = build()
        cluster.run(horizon_us)
    return _snapshot(cluster, service, o)


def _small():
    cluster = small_cluster(n_components=5, seed=61)
    service = DiagnosticService(cluster, collector="c4")
    inj = FaultInjector(cluster)
    inj.inject_connector_fault("c2", channel=1, omission_prob=0.3,
                               at_us=ms(50), direction="rx")
    inj.inject_emi_burst(ms(100), center=(1.0, 0.0), radius=1.5,
                         duration_us=ms(20))
    inj.inject_job_crash("k3", ms(150), duration_us=ms(60))
    inj.inject_queue_config_fault("k2", "in", capacity=1, at_us=ms(200))
    inj.inject_permanent_internal("c1", ms(250), mode="babbling")
    inj.inject_transient_internal("c0", ms(300), duration_us=ms(15))
    return cluster, service, ms(500)


def _gateway():
    cluster = gateway_cluster(seed=44)
    service = DiagnosticService(cluster, collector="ecu-dashboard")
    inj = FaultInjector(cluster)
    inj.inject_connector_fault("ecu-gateway", channel=0, omission_prob=0.4,
                               at_us=ms(60))
    inj.inject_quartz_degradation("ecu-chassis", ms(100), drift_step_us=60.0,
                                  step_period_us=ms(20), max_offset_us=1_300.0)
    inj.inject_transient_internal("ecu-chassis", ms(120), duration_us=ms(20))
    inj.inject_software_bohrbug("gw-chassis-telematics", ms(200),
                                trigger_period=3)
    inj.inject_seu("ecu-dashboard", ms(250))
    return cluster, service, ms(500)


def _avionics():
    parts = avionics_cluster(seed=55)
    cluster = parts.cluster
    service = DiagnosticService(cluster, collector="lrm8")
    service.add_tmr_monitor(parts.elevator_monitor)
    service.add_tmr_monitor(parts.rudder_monitor)
    inj = FaultInjector(cluster)
    inj.inject_job_crash("rud2", ms(100), duration_us=ms(50))
    inj.inject_sensor_fault("airdata", ms(150), mode="drift", drift_per_s=800.0)
    inj.inject_permanent_internal("lrm3", ms(200), mode="babbling")
    inj.inject_emi_burst(ms(250), center=(1.0, 1.0), radius=1.1,
                         duration_us=ms(10))
    inj.inject_wiring_fault(channel=0, omission_prob=0.05, at_us=ms(300))
    return cluster, service, ms(400)


def _figure10_reroute():
    parts = figure10_cluster(seed=71)
    cluster = parts.cluster
    service = DiagnosticService(cluster, collector="comp5", window_points=12_000)
    service.add_tmr_monitor(parts.tmr_monitor)
    inj = FaultInjector(cluster)
    inj.inject_connector_fault("comp3", channel=0, omission_prob=0.2,
                               at_us=ms(80))
    inj.inject_job_crash("A2", ms(350), duration_us=ms(40))
    inj.inject_queue_config_fault("A3", "in", capacity=2, at_us=ms(250))
    vns = cluster.vns
    into_a2_a3 = (PortAddress("A2", "in"), PortAddress("A3", "in"))
    changes = (
        # A3.out is unrouted at construction; from 200 ms it feeds A2 and,
        # through the sender's loopback, A3's own event queue.
        (ms(200), lambda: vns["vn-A"].add_link(
            VnLink(PortAddress("A3", "out"), into_a2_a3))),
        # C2 shares comp2 with A3: its frame now pushes two messages into
        # A2.in and A3.in, in VN order, which the queue fault above makes
        # overflow.
        (ms(200), lambda: vns["vn-B"].add_link(
            VnLink(PortAddress("C2", "out"), into_a2_a3))),
        # Routed, but to a job no component hosts: counted, never pushed.
        (ms(250), lambda: vns["vn-S"].add_link(
            VnLink(PortAddress("s-voter", "voted"), (PortAddress("ghost", "in"),)))),
        (ms(300), lambda: vns["vn-C"].reconfigure_budget(1)),
        (ms(450), lambda: vns["vn-C"].reconfigure_budget(16)),
    )  # fmt: skip
    for at_us, change in changes:
        cluster.sim.schedule_at(
            at_us, lambda _s, change=change: change(), priority=PRIORITY_FAULT
        )
    return cluster, service, ms(600)


CASES = {
    "small_cluster": _small,
    "gateway_cluster": _gateway,
    "avionics_cluster": _avionics,
    "figure10_reroute": _figure10_reroute,
}


def regenerate() -> None:
    """Rewrite the golden snapshots from the current implementation."""
    goldens = {name: _run(build) for name, build in CASES.items()}
    GOLDEN_PATH.write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"regenerated {GOLDEN_PATH}: {len(goldens)} cases")


@pytest.mark.parametrize("name", sorted(CASES))
def test_slot_pipeline_equivalence(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    snapshot = _run(CASES[name])
    # Readable counters first, digests last as the exhaustive check.
    for key in (
        "events_processed",
        "symptoms",
        "frames_broadcast",
        "vns",
        "ports",
        "guardians",
        "membership_transitions",
        "membership_digest",
        "port_contents_digest",
        "cluster_digest",
        "obs_digest",
    ):
        assert snapshot[key] == golden[key], key


def test_link_without_destinations_is_never_counted():
    assert _run(_avionics)["vns"]["vn-airdata"] == [0, 0]


def _slot_values():
    slot = TdmaSchedule(("a", "b"), 1000).slot_at(0)
    frame = Frame("a", slot, 0.0)
    symptom = Symptom(
        type=SymptomType.OMISSION,
        observer="b",
        subject_component="a",
        time_us=0,
        lattice_point=0,
    )
    return {
        "SlotPosition": (slot, "sender"),
        "Frame": (frame, "crc_valid"),
        "Delivery": (Delivery("b", DeliveryStatus.RECEIVED, frame, (True,)), "status"),
        "Message": (Message("j", "out", 1.0, 1, 0), "value"),
        "SymptomMessage": (SymptomMessage(symptom, "b", 0), "reporter"),
    }


@pytest.mark.parametrize("kind", sorted(_slot_values()))
def test_slot_values_are_immutable(kind):
    value, field = _slot_values()[kind]
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_frame_default_payload_is_read_only():
    frame = _slot_values()["Frame"][0]
    assert frame.payload == {}
    with pytest.raises(TypeError):
        frame.payload["vn"] = ()
