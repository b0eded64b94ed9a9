"""``Bus.broadcast``'s clean-reception fast path against the per-channel loop.

``reference_broadcast`` is ``Bus.broadcast`` as it was before the fast
path: every receiver goes through the per-channel loop.  The property
runs both on two buses built the same way from the same seed and
requires the same deliveries, in the same key order, and the same random
generator state afterwards.  So the fast path may neither skip nor add a
draw, nor hand an all-channels-intact reception to a receiver that lost
a channel.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tta.frames import Frame
from repro.tta.network import Bus, Delivery, DeliveryStatus, DisturbanceZone
from repro.tta.tdma import TdmaSchedule

NOW_US = 1_000


def _reference_zone_flips(bus, position, now_us):
    flips = 0
    for zone in bus.zones:
        if zone.active(now_us) and zone.covers(position):
            if zone.hit_prob >= 1.0 or bus._rng.random() < zone.hit_prob:
                flips += int(bus._rng.poisson(zone.mean_flips)) + 1
    return flips


def reference_broadcast(bus, frame, now_us):
    """The per-receiver loop of ``Bus.broadcast`` without the fast path."""
    sender = frame.sender
    sender_att = bus.attachment(sender)
    bus.frames_broadcast += 1
    rng = bus._rng
    channel_range = range(bus.channels)

    tx_on_channel = []
    for ch in channel_range:
        tx = sender_att.tx[ch]
        ch_state = bus.channel_state[ch]
        lost = (
            now_us < tx.blocked_until_us
            or (tx.omission_prob > 0.0 and rng.random() < tx.omission_prob)
            or now_us < ch_state.blocked_until_us
            or (
                ch_state.omission_prob > 0.0
                and rng.random() < ch_state.omission_prob
            )
        )
        tx_on_channel.append(not lost)

    zones = bus.zones
    if zones:
        bus.prune_zones(now_us)
        zones = bus.zones
    sender_flips = (
        _reference_zone_flips(bus, sender_att.position, now_us) if zones else 0
    )

    deliveries = {}
    for name, att in bus.attachments.items():
        if name == sender:
            continue
        flips = (
            sender_flips + _reference_zone_flips(bus, att.position, now_us)
            if zones
            else 0
        )
        clean = frame.crc_valid and not flips
        arrived = False
        channels_ok = []
        for ch in channel_range:
            if not tx_on_channel[ch]:
                channels_ok.append(False)
                continue
            rx = att.rx[ch]
            if now_us < rx.blocked_until_us or (
                rx.omission_prob > 0.0 and rng.random() < rx.omission_prob
            ):
                channels_ok.append(False)
                continue
            arrived = True
            channels_ok.append(clean)
        if not arrived:
            deliveries[name] = Delivery(
                name, DeliveryStatus.OMITTED, None, tuple(channels_ok)
            )
        elif clean:
            deliveries[name] = Delivery(
                name, DeliveryStatus.RECEIVED, frame, tuple(channels_ok)
            )
        else:
            deliveries[name] = Delivery(
                name,
                DeliveryStatus.CORRUPTED,
                frame.corrupted(flips),
                tuple(channels_ok),
            )
    return deliveries


# -- strategies -----------------------------------------------------------------

# Blocked while now < blocked_until_us: these lie on both sides of now.
blocked_until = st.sampled_from([-1, NOW_US - 1, NOW_US, NOW_US + 1])
omission = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, allow_nan=False)
)
# (omission_prob, blocked_until_us) of one pin or channel; two in three
# are healthy, so that the fast path's preconditions hold often enough.
healthy = st.just((0.0, -1))
pin = st.one_of(healthy, healthy, st.tuples(omission, blocked_until))
position = st.tuples(
    st.integers(0, 3).map(float), st.integers(0, 1).map(float)
)
zone = st.builds(
    DisturbanceZone,
    position=position,
    radius=st.sampled_from([0.5, 1.5, 9.0]),
    # active (start <= now < end) or expired (end <= now)
    start_us=st.sampled_from([0, NOW_US]),
    end_us=st.sampled_from([NOW_US, NOW_US + 1, 10 * NOW_US]),
    hit_prob=st.one_of(st.just(1.0), st.floats(0.0, 1.0, allow_nan=False)),
    mean_flips=st.sampled_from([0.5, 3.0]),
)


@st.composite
def bus_layouts(draw):
    channels = draw(st.integers(1, 3))
    n = draw(st.integers(3, 6))
    return {
        "channels": channels,
        "positions": draw(st.lists(position, min_size=n, max_size=n)),
        "tx": draw(st.lists(st.lists(pin, min_size=channels, max_size=channels),
                            min_size=n, max_size=n)),
        "rx": draw(st.lists(st.lists(pin, min_size=channels, max_size=channels),
                            min_size=n, max_size=n)),
        "channel_state": draw(st.lists(pin, min_size=channels, max_size=channels)),
        "zones": draw(st.lists(zone, max_size=2)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }  # fmt: skip


def build_bus(layout):
    bus = Bus(layout["channels"], np.random.default_rng(layout["seed"]))
    for i, pos in enumerate(layout["positions"]):
        att = bus.attach(f"c{i}", pos)
        for states, pins in ((att.tx, layout["tx"][i]), (att.rx, layout["rx"][i])):
            for state, (prob, until) in zip(states, pins):
                state.omission_prob = prob
                state.blocked_until_us = until
    for state, (prob, until) in zip(bus.channel_state, layout["channel_state"]):
        state.omission_prob = prob
        state.blocked_until_us = until
    for z in layout["zones"]:
        bus.add_zone(
            DisturbanceZone(z.position, z.radius, z.start_us, z.end_us,
                            z.hit_prob, z.mean_flips)
        )  # fmt: skip
    return bus


@settings(max_examples=300, deadline=None)
@given(
    layout=bus_layouts(),
    senders=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    crc_flips=st.sampled_from([0, 0, 2]),
)
def test_fast_path_matches_per_channel_loop(layout, senders, crc_flips):
    bus, reference = build_bus(layout), build_bus(layout)
    n = len(layout["positions"])
    schedule = TdmaSchedule(tuple(f"c{i}" for i in range(n)), 1_000)
    for i in senders:
        sender = f"c{i % n}"
        frame = Frame(sender, schedule.slot_at(NOW_US), float(NOW_US)).corrupted(
            crc_flips
        )
        got = bus.broadcast(frame, NOW_US)
        want = reference_broadcast(reference, frame, NOW_US)
        assert list(got.items()) == list(want.items())
        assert bus._rng.bit_generator.state == reference._rng.bit_generator.state
        assert bus.zones == reference.zones
        assert bus.frames_broadcast == reference.frames_broadcast
