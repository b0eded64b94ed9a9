"""Unit tests for the replicated bus, attachments and disturbance zones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.presets import small_cluster
from repro.tta.frames import Frame
from repro.tta.network import Bus, DeliveryStatus, DisturbanceZone
from repro.tta.tdma import TdmaSchedule
from repro.units import ms


def make_bus(channels=2, n=3, seed=0):
    bus = Bus(channels, np.random.default_rng(seed))
    for i in range(n):
        bus.attach(f"c{i}", (float(i), 0.0))
    return bus


def make_frame(sender="c0"):
    slot = TdmaSchedule(("c0", "c1", "c2"), 1000).slot_at(0)
    return Frame(sender=sender, slot=slot, send_time_us=0.0)


def test_healthy_broadcast_reaches_everyone():
    bus = make_bus()
    deliveries = bus.broadcast(make_frame(), now_us=0)
    assert set(deliveries) == {"c1", "c2"}
    assert all(d.status is DeliveryStatus.RECEIVED for d in deliveries.values())
    assert all(all(d.channels_ok) for d in deliveries.values())


def test_tx_connector_fault_on_one_channel_is_masked_but_visible():
    bus = make_bus()
    bus.attachment("c0").degrade_connector(0, 1.0, direction="tx")
    deliveries = bus.broadcast(make_frame(), now_us=0)
    for d in deliveries.values():
        assert d.status is DeliveryStatus.RECEIVED  # channel B masks
        assert d.channels_ok == (False, True)


def test_rx_connector_fault_affects_only_that_receiver():
    bus = make_bus()
    bus.attachment("c1").degrade_connector(1, 1.0, direction="rx")
    deliveries = bus.broadcast(make_frame(), now_us=0)
    assert deliveries["c1"].channels_ok == (True, False)
    assert deliveries["c2"].channels_ok == (True, True)


def test_both_channels_blocked_is_omission():
    bus = make_bus()
    att = bus.attachment("c0")
    att.degrade_connector(0, 1.0, direction="tx")
    att.degrade_connector(1, 1.0, direction="tx")
    deliveries = bus.broadcast(make_frame(), now_us=0)
    assert all(d.status is DeliveryStatus.OMITTED for d in deliveries.values())


def test_reseat_clears_degradation():
    bus = make_bus()
    att = bus.attachment("c0")
    att.degrade_connector(0, 1.0)
    att.reseat_connector()
    deliveries = bus.broadcast(make_frame(), now_us=0)
    assert all(all(d.channels_ok) for d in deliveries.values())


def test_channel_block_interval():
    bus = make_bus()
    bus.channel_state[0].blocked_until_us = 100
    deliveries = bus.broadcast(make_frame(), now_us=50)
    assert all(d.channels_ok == (False, True) for d in deliveries.values())
    deliveries = bus.broadcast(make_frame(), now_us=150)
    assert all(d.channels_ok == (True, True) for d in deliveries.values())


def test_emi_zone_corrupts_frames_of_covered_sender():
    bus = make_bus()
    bus.add_zone(
        DisturbanceZone(
            position=(0.0, 0.0), radius=0.5, start_us=0, end_us=1000
        )
    )
    deliveries = bus.broadcast(make_frame("c0"), now_us=10)
    assert all(
        d.status is DeliveryStatus.CORRUPTED for d in deliveries.values()
    )
    assert all(d.frame.bit_flips >= 1 for d in deliveries.values())


def test_emi_zone_corrupts_reception_of_covered_receiver():
    bus = make_bus()
    bus.add_zone(
        DisturbanceZone(
            position=(1.0, 0.0), radius=0.5, start_us=0, end_us=1000
        )
    )
    deliveries = bus.broadcast(make_frame("c0"), now_us=10)
    assert deliveries["c1"].status is DeliveryStatus.CORRUPTED
    assert deliveries["c2"].status is DeliveryStatus.RECEIVED


def test_emi_zone_inactive_outside_window():
    bus = make_bus()
    bus.add_zone(
        DisturbanceZone(position=(0.0, 0.0), radius=9.0, start_us=100, end_us=200)
    )
    deliveries = bus.broadcast(make_frame(), now_us=500)
    assert all(d.status is DeliveryStatus.RECEIVED for d in deliveries.values())


def test_prune_zones():
    bus = make_bus()
    bus.add_zone(DisturbanceZone((0, 0), 1.0, 0, 100))
    bus.add_zone(DisturbanceZone((0, 0), 1.0, 0, 1000))
    bus.prune_zones(now_us=500)
    assert len(bus.zones) == 1


def test_broadcast_drops_expired_zones():
    cluster = small_cluster(seed=3)
    FaultInjector(cluster).inject_emi_burst(
        ms(10), center=(1.0, 0.0), radius=1.5, duration_us=ms(5)
    )
    cluster.run(ms(12))
    assert len(cluster.bus.zones) == 1
    cluster.run(ms(10))
    assert cluster.bus.zones == []


def test_attach_after_broadcast_reaches_the_new_component():
    bus = make_bus()
    bus.broadcast(make_frame(), now_us=0)
    bus.attach("c3", (3.0, 0.0))
    assert set(bus.broadcast(make_frame(), now_us=0)) == {"c1", "c2", "c3"}


def test_duplicate_attach_rejected():
    bus = make_bus()
    with pytest.raises(ConfigurationError):
        bus.attach("c0")


def test_unknown_attachment_rejected():
    bus = make_bus()
    with pytest.raises(ConfigurationError):
        bus.attachment("ghost")


def test_invalid_omission_prob_rejected():
    bus = make_bus()
    with pytest.raises(ConfigurationError):
        bus.attachment("c0").degrade_connector(0, 1.5)
    with pytest.raises(ConfigurationError):
        bus.attachment("c0").degrade_connector(0, 0.5, direction="sideways")


def test_single_channel_bus():
    bus = Bus(1, np.random.default_rng(0))
    bus.attach("a", (0, 0))
    bus.attach("b", (1, 0))
    bus.attachment("a").degrade_connector(0, 1.0, direction="tx")
    slot = TdmaSchedule(("a", "b"), 1000).slot_at(0)
    frame = Frame(sender="a", slot=slot, send_time_us=0.0)
    deliveries = bus.broadcast(frame, now_us=0)
    assert deliveries["b"].status is DeliveryStatus.OMITTED
