"""Frames on the time-triggered core network.

A frame is the unit of transmission in one TDMA slot.  For the diagnostic
model only three properties of a received frame matter, matching the three
failure manifestations the paper's symptoms observe:

* it arrived or not (omission),
* it arrived at the right instant (timing), and
* its content passed the CRC / conforms to specification (value).

Corruption (EMI bit flips, SEU) is modelled by marking the frame's CRC
invalid and counting the flipped bits; receivers discard corrupted frames,
so a corrupted frame is observationally an omission *plus* a syntactic
value symptom at every receiver that saw the corruption.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Any, NamedTuple

from repro.tta.tdma import SlotPosition


class Frame(NamedTuple):
    """One frame occupying one TDMA slot occurrence.

    Immutable: a NamedTuple, like the other per-slot values (see
    docs/performance.md, "Slot pipeline cost").

    Attributes
    ----------
    sender:
        Name of the transmitting component.
    slot:
        The slot occurrence the frame belongs to.
    send_time_us:
        Actual transmission instant (reference time), including the
        sender's clock error.  Deviation from ``slot.start_us`` beyond the
        cluster precision is a timing failure.
    payload:
        Mapping of virtual-network name to the tuple of messages pushed in
        this slot.  Opaque to the core network.  Defaults to an empty
        read-only mapping.
    crc_valid:
        False if the frame was corrupted in transit or at the sender.
    bit_flips:
        Number of flipped bits when corrupted (value-domain signature of
        massive transients, Fig. 8).
    membership:
        The sender's current membership vector (set of component names it
        considers operational) — piggybacked as in TTP/C, used by the
        consistent-diagnosis service.
    """

    sender: str
    slot: SlotPosition
    send_time_us: float
    payload: Mapping[str, tuple[Any, ...]] = MappingProxyType({})
    crc_valid: bool = True
    bit_flips: int = 0
    membership: frozenset[str] = frozenset()

    def corrupted(self, bit_flips: int) -> "Frame":
        """Return a copy of this frame with ``bit_flips`` additional flips.

        Any positive number of flips invalidates the CRC (we assume the
        CRC's Hamming distance exceeds the flip counts of interest, which
        is true for the 24-bit CRCs of TTP-class protocols at the flip
        multiplicities simulated here).
        """
        if bit_flips <= 0:
            return self
        return self._replace(
            crc_valid=False, bit_flips=self.bit_flips + int(bit_flips)
        )

    @property
    def timing_error_us(self) -> float:
        """Deviation of the send instant from the nominal slot start."""
        return self.send_time_us - self.slot.start_us
