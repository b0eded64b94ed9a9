"""Integration-level tests for the cluster runtime."""

from __future__ import annotations

import pytest

from repro.components.cluster import Cluster, ClusterSpec
from repro.components.component import ComponentSpec
from repro.components.das import Criticality, DasSpec
from repro.components.job import JobSpec, counter_behaviour
from repro.components.partition import PartitionSpec
from repro.components.ports import PortDirection, PortSpec
from repro.components.virtual_network import PortAddress, VirtualNetwork, VnLink
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.presets import small_cluster
from repro.tta.membership import views_consistent
from repro.units import ms


def test_healthy_run_has_no_anomalies():
    cluster = small_cluster(n_components=4, seed=1)
    cluster.run(ms(200))
    assert cluster.trace.count("delivery.omitted") == 0
    assert cluster.trace.count("delivery.corrupted") == 0
    assert cluster.trace.count("frame.silent") == 0
    assert cluster.trace.count("guardian.blocked") == 0


def test_healthy_run_full_membership_and_consistent_views():
    cluster = small_cluster(n_components=5, seed=2)
    cluster.run(ms(200))
    everyone = frozenset(cluster.components)
    for svc in cluster.memberships.values():
        assert svc.view() == everyone
    assert views_consistent(list(cluster.memberships.values()))


def test_clocks_converge_under_sync():
    cluster = small_cluster(n_components=5, seed=3, drift_ppm=50.0)
    cluster.run(ms(500))
    errors = [
        c.clock.error(cluster.now) for c in cluster.components.values()
    ]
    spread = max(errors) - min(errors)
    assert spread < cluster.time_base.precision_us + 1.0


def test_messages_flow_to_consumer_ports():
    cluster = small_cluster(n_components=3, seed=4)
    cluster.run(ms(100))
    consumer = cluster.job("k1")
    port = consumer.port("in")
    assert port.messages_in > 10
    assert port.overflow_count == 0


def test_run_rounds_advances_time():
    cluster = small_cluster(n_components=3, seed=5)
    cluster.run_rounds(10)
    assert cluster.now == 10 * cluster.schedule.round_length_us


def test_lookup_errors():
    cluster = small_cluster(n_components=3, seed=7)
    with pytest.raises(ConfigurationError):
        cluster.component("ghost")
    with pytest.raises(ConfigurationError):
        cluster.job("ghost")
    with pytest.raises(ConfigurationError):
        cluster.component_of_job("ghost")


def test_replaced_component_receives_again():
    # The per-sender slot plans hold Component objects, never their
    # hardware: replace() swaps it, and the fresh unit is served at once.
    cluster = small_cluster(n_components=4, seed=9)
    FaultInjector(cluster).inject_permanent_internal("c1", ms(10))
    cluster.run(ms(40))
    port = cluster.job("k1").port("in")
    received_while_failed = port.messages_in
    cluster.run(ms(10))
    assert port.messages_in == received_while_failed
    cluster.component("c1").replace(cluster.now)
    cluster.run(ms(10))
    assert port.messages_in > received_while_failed


def test_piggybacked_payload_keeps_the_other_frame_fields():
    cluster = small_cluster(n_components=3, seed=10)
    cluster.payload_contributors.append(
        lambda sender, slot, now: {"vn-extra": ("note",)}
    )
    frames = []
    cluster.frame_observers.append(
        lambda slot, frame, deliveries, now: frames.append((slot, frame))
    )
    cluster.run(ms(5))
    assert len(frames) == 6
    for slot, frame in frames:
        assert frame.payload["vn-extra"] == ("note",)
        if slot.sender == "c0":
            assert "vn-main" in frame.payload  # the producer's own payload
        assert (frame.sender, frame.slot) == (slot.sender, slot)
        assert frame.membership == frozenset(cluster.components)
        assert frame.crc_valid and frame.bit_flips == 0


def test_start_is_idempotent():
    cluster = small_cluster(n_components=3, seed=8)
    cluster.start()
    cluster.start()
    cluster.run(ms(10))
    # one slot event chain only: slots == elapsed slots, not double
    assert cluster.slots_elapsed == ms(10) // cluster.schedule.slot_length_us + 1


def test_close_releases_hooks_and_refuses_to_run():
    """``close`` empties the extension hooks, removes job fault hooks
    and ends the simulator; state already produced stays readable."""
    from repro.diagnosis.diag_das import DiagnosticService
    from repro.errors import SimulationError
    from repro.presets import figure10_cluster

    cluster = figure10_cluster(seed=3).cluster
    DiagnosticService(cluster, collector="comp5")
    injector = FaultInjector(cluster)
    injector.inject_software_bohrbug("A2", ms(5))
    injector.inject_sensor_fault("C1", ms(5), mode="stuck", stuck_value=1.0)
    cluster.run(ms(20))
    assert cluster.job("A2").behaviour_wrapper is not None
    assert cluster.job("C1").sensor_transform is not None
    events = cluster.sim.events_processed

    cluster.close()
    assert cluster.frame_observers == []
    assert cluster.payload_contributors == []
    assert cluster.payload_consumers == []
    assert cluster.sim.pending == 0
    for component in cluster.components.values():
        for job in component.jobs():
            assert job.behaviour_wrapper is None
            assert job.sensor_transform is None
    assert (cluster.now, cluster.sim.events_processed) == (ms(20), events)
    with pytest.raises(SimulationError):
        cluster.run(ms(1))
    cluster.close()  # idempotent


def test_close_before_start_refuses_to_run():
    from repro.errors import SimulationError

    cluster = small_cluster(n_components=3, seed=8)
    cluster.close()
    with pytest.raises(SimulationError):
        cluster.run(ms(1))


# -- configuration validation ---------------------------------------------------


def _job(name, das="d"):
    return JobSpec(
        name,
        das,
        (PortSpec("out", PortDirection.OUT),),
        behaviour=counter_behaviour(),
    )


def test_unplaced_das_job_rejected():
    spec = ClusterSpec(
        components=(ComponentSpec("c0"),),
        dases=(
            DasSpec("d", Criticality.NON_SAFETY_CRITICAL, (_job("j"),)),
        ),
    )
    with pytest.raises(ConfigurationError):
        Cluster(spec)


def test_duplicate_component_names_rejected():
    with pytest.raises(ConfigurationError):
        ClusterSpec(components=(ComponentSpec("c0"), ComponentSpec("c0")))


def test_vn_encapsulation_violation_rejected():
    job_a = _job("ja", "A")
    job_b = _job("jb", "B")
    spec = ClusterSpec(
        components=(
            ComponentSpec(
                "c0", (PartitionSpec("p", job_a, cpu_share=0.5),)
            ),
            ComponentSpec(
                "c1", (PartitionSpec("p", job_b, cpu_share=0.5),)
            ),
        ),
        dases=(
            DasSpec("A", Criticality.NON_SAFETY_CRITICAL, (job_a,)),
            DasSpec("B", Criticality.NON_SAFETY_CRITICAL, (job_b,)),
        ),
    )
    # vn-A sourcing from a DAS-B job breaks encapsulation.
    bad_vn = VirtualNetwork(
        "vn-A", "A", (VnLink(PortAddress("jb", "out"), ()),)
    )
    with pytest.raises(ConfigurationError):
        Cluster(spec, vns={"vn-A": bad_vn})


def test_vn_referencing_unknown_das_rejected():
    spec = ClusterSpec(components=(ComponentSpec("c0"), ComponentSpec("c1")))
    vn = VirtualNetwork("vn-x", "nope")
    with pytest.raises(ConfigurationError):
        Cluster(spec, vns={"vn-x": vn})


def test_job_placed_twice_rejected():
    job_a = _job("ja", "A")
    spec = ClusterSpec(
        components=(
            ComponentSpec("c0", (PartitionSpec("p", job_a, cpu_share=0.5),)),
            ComponentSpec("c1", (PartitionSpec("p", job_a, cpu_share=0.5),)),
        ),
    )
    with pytest.raises(ConfigurationError):
        Cluster(spec)


def test_routing_recompiles_only_on_route_change():
    cluster = small_cluster(n_components=3, seed=9)
    vn = cluster.vns["vn-main"]
    cluster.run(ms(5))
    generation = cluster.routes_generation
    vn.reconfigure_budget(2)  # a budget is not a route
    cluster.run(ms(5))
    assert cluster.routes_generation == generation
    vn.add_link(VnLink(PortAddress("k1", "in"), (PortAddress("k2", "in"),)))
    cluster.run(ms(5))
    assert cluster.routes_generation == generation + 1


def test_route_to_missing_port_fails_when_compiled():
    cluster = small_cluster(n_components=3, seed=10)
    cluster.run(ms(5))
    cluster.vns["vn-main"].add_link(
        VnLink(PortAddress("k1", "in"), (PortAddress("k2", "ghost"),))
    )
    with pytest.raises(ConfigurationError, match="ghost"):
        cluster.run(ms(5))


def test_local_loopback_delivery():
    """Jobs co-hosted with a producer receive its VN messages locally."""
    from repro.presets import figure10_cluster

    parts = figure10_cluster(seed=44)
    cluster = parts.cluster
    cluster.run(ms(100))
    # C1 and C2 are both hosted on comp2; vn-C routes C1.out -> C2.in.
    msg = cluster.job("C2").port("in").read_state()
    assert msg is not None
    assert msg.source_job == "C1"
