"""Replicated broadcast channels and network attachments (connectors).

The core physical network is a replicated broadcast bus (channels A/B as in
TTP/C).  Every component connects through a :class:`NetworkAttachment`,
which models the *connector and stub wiring* — the paper's prime example of
a **borderline** fault location: one half of the connector belongs to the
component, the other to the cable loom, so a failure there cannot be
attributed to either side by boundary inspection alone (§III-C).

Fault hooks
-----------
* Connector degradation: per-channel omission probabilities on the
  attachment (tx and rx directions) — produces the Fig. 8 connector
  signature "message omissions on a channel / one component only".
* Channel (loom wiring) faults: bus-wide omission probability or hard
  blockage per channel.
* EMI / radiation: :class:`DisturbanceZone` objects flip bits in frames
  whose sender or receiver lies inside the zone while it is active —
  producing "multiple components with spatial proximity / multiple bit
  flips" (Fig. 8, massive transient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tta.frames import Frame


class DeliveryStatus(Enum):
    """Outcome of one frame reception attempt at one receiver."""

    RECEIVED = "received"
    OMITTED = "omitted"
    CORRUPTED = "corrupted"


class Delivery(NamedTuple):
    """Per-receiver result of a broadcast (an immutable per-slot value)."""

    receiver: str
    status: DeliveryStatus
    frame: Frame | None
    channels_ok: tuple[bool, ...]


@dataclass(slots=True)
class ChannelFaultState:
    """Mutable fault state of one physical channel (the cable loom)."""

    omission_prob: float = 0.0
    blocked_until_us: int = -1


@dataclass(slots=True)
class DisturbanceZone:
    """A spatially bounded electromagnetic disturbance.

    Frames touching any endpoint within ``radius`` of ``position`` while
    ``start_us <= t < end_us`` suffer bit flips with probability
    ``hit_prob`` per endpoint exposure; a hit flips ``Poisson(mean_flips)+1``
    bits.
    """

    position: tuple[float, float]
    radius: float
    start_us: int
    end_us: int
    hit_prob: float = 1.0
    mean_flips: float = 3.0
    label: str = "emi"

    def active(self, now_us: int) -> bool:
        return self.start_us <= now_us < self.end_us

    def covers(self, position: tuple[float, float]) -> bool:
        return math.hypot(
            position[0] - self.position[0], position[1] - self.position[1]
        ) <= self.radius


@dataclass(slots=True)
class AttachmentFaultState:
    """Mutable fault state of one connector direction on one channel."""

    omission_prob: float = 0.0
    blocked_until_us: int = -1


class NetworkAttachment:
    """A component's physical attachment to all channels (its connector)."""

    def __init__(self, component: str, position: tuple[float, float], channels: int) -> None:
        self.component = component
        self.position = (float(position[0]), float(position[1]))
        self.tx: list[AttachmentFaultState] = [
            AttachmentFaultState() for _ in range(channels)
        ]
        self.rx: list[AttachmentFaultState] = [
            AttachmentFaultState() for _ in range(channels)
        ]

    def degrade_connector(
        self,
        channel: int,
        omission_prob: float,
        *,
        direction: str = "both",
    ) -> None:
        """Raise the omission probability of one channel's connector pins.

        ``direction`` is ``"tx"``, ``"rx"`` or ``"both"``.
        """
        if not 0.0 <= omission_prob <= 1.0:
            raise ConfigurationError(
                f"omission_prob must be in [0,1], got {omission_prob}"
            )
        if direction not in ("tx", "rx", "both"):
            raise ConfigurationError(f"bad direction {direction!r}")
        if direction in ("tx", "both"):
            self.tx[channel].omission_prob = omission_prob
        if direction in ("rx", "both"):
            self.rx[channel].omission_prob = omission_prob

    def reseat_connector(self) -> None:
        """Clear connector degradation (the service technician reseated it;
        §IV-A.2: the inspection itself can be the corrective action)."""
        for state in (*self.tx, *self.rx):
            state.omission_prob = 0.0
            state.blocked_until_us = -1


class Bus:
    """The replicated broadcast medium plus all attachments.

    Parameters
    ----------
    channels:
        Number of replicated channels (TTP/C uses 2).
    rng:
        Random stream for loss/corruption draws.
    """

    def __init__(self, channels: int = 2, rng: np.random.Generator | None = None) -> None:
        if channels < 1:
            raise ConfigurationError(f"need at least one channel, got {channels}")
        self.channels = channels
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.channel_state: list[ChannelFaultState] = [
            ChannelFaultState() for _ in range(channels)
        ]
        self.attachments: dict[str, NetworkAttachment] = {}
        self.zones: list[DisturbanceZone] = []
        self.frames_broadcast = 0
        # channels_ok of a reception that arrived intact on every channel.
        self._all_ok: tuple[bool, ...] = (True,) * channels
        # Per-sender receiver rows (name, rx fault states, position), built
        # lazily and dropped by attach(): the per-slot broadcast walks a
        # precomputed tuple instead of filtering the attachment dict.
        self._receiver_rows: dict[str, tuple] = {}

    # -- topology -----------------------------------------------------------

    def attach(
        self, component: str, position: tuple[float, float] = (0.0, 0.0)
    ) -> NetworkAttachment:
        """Connect a component to all channels at a physical position."""
        if component in self.attachments:
            raise ConfigurationError(f"component {component!r} already attached")
        att = NetworkAttachment(component, position, self.channels)
        self.attachments[component] = att
        self._receiver_rows.clear()
        return att

    def attachment(self, component: str) -> NetworkAttachment:
        try:
            return self.attachments[component]
        except KeyError:
            raise ConfigurationError(f"component {component!r} not attached") from None

    # -- disturbances ---------------------------------------------------------

    def add_zone(self, zone: DisturbanceZone) -> None:
        """Register a spatial disturbance (EMI burst, radiation event)."""
        self.zones.append(zone)

    def prune_zones(self, now_us: int) -> None:
        """Forget zones that have expired (housekeeping)."""
        self.zones = [z for z in self.zones if z.end_us > now_us]

    def _zone_flips(self, position: tuple[float, float], now_us: int) -> int:
        flips = 0
        for zone in self.zones:
            if zone.active(now_us) and zone.covers(position):
                if zone.hit_prob >= 1.0 or self._rng.random() < zone.hit_prob:
                    flips += int(self._rng.poisson(zone.mean_flips)) + 1
        return flips

    # -- transmission -----------------------------------------------------

    def broadcast(self, frame: Frame, now_us: int) -> dict[str, Delivery]:
        """Transmit ``frame`` from its sender to every other attachment.

        Returns the per-receiver delivery outcome.  A receiver obtains the
        frame if at least one channel carries an uncorrupted copy; if all
        copies that arrive are corrupted the delivery is CORRUPTED; if
        nothing arrives it is OMITTED.

        Random draws happen in a fixed order: per channel the sender's
        connector, then the channel's omission; then the sender's EMI
        exposure; then per receiver its EMI exposure and, per channel, its
        connector.  A pin or channel drops the frame while blocked, else
        with its omission probability; a draw is skipped where its outcome
        cannot matter (blocked, zero probability, inactive zone).

        Fast path: when the frame's CRC is valid, no zone is left and every
        channel's tx side passed, a receiver whose rx pins are all
        unblocked with zero omission probability receives the frame on
        every channel.  Such pins draw nothing in the per-channel loop
        either, so the draw order above holds on both paths.
        """
        sender = frame.sender
        sender_att = self.attachment(sender)
        self.frames_broadcast += 1
        rng = self._rng
        channel_range = range(self.channels)

        # Sender-side effects, computed once per channel.
        tx_on_channel: list[bool] = []
        for ch in channel_range:
            tx = sender_att.tx[ch]
            ch_state = self.channel_state[ch]
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

        # Expired zones can never draw again (active() fails first), so
        # dropping them changes no draw; _zone_flips is skipped entirely
        # when no zone is left.
        zones = self.zones
        if zones:
            self.prune_zones(now_us)
            zones = self.zones
        sender_flips = (
            self._zone_flips(sender_att.position, now_us) if zones else 0
        )

        rows = self._receiver_rows.get(sender)
        if rows is None:
            rows = tuple(
                (name, att.rx, att.position)
                for name, att in self.attachments.items()
                if name != sender
            )
            self._receiver_rows[sender] = rows
        received = DeliveryStatus.RECEIVED
        all_ok = self._all_ok
        fast = frame.crc_valid and not zones and False not in tx_on_channel
        deliveries: dict[str, Delivery] = {}
        for name, rx_states, position in rows:
            if fast:
                for rx in rx_states:
                    if now_us < rx.blocked_until_us or rx.omission_prob != 0.0:
                        break
                else:
                    deliveries[name] = Delivery(name, received, frame, all_ok)
                    continue
            flips = (
                sender_flips + self._zone_flips(position, now_us)
                if zones
                else 0
            )
            clean = frame.crc_valid and not flips
            arrived = False
            channels_ok: list[bool] = []
            for ch in channel_range:
                if not tx_on_channel[ch]:
                    channels_ok.append(False)
                    continue
                rx = rx_states[ch]
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
                    name, received, frame, tuple(channels_ok)
                )
            else:
                deliveries[name] = Delivery(
                    name,
                    DeliveryStatus.CORRUPTED,
                    frame.corrupted(flips),
                    tuple(channels_ok),
                )
        return deliveries
