"""TDMA media access: rounds, slots and the cluster cycle.

The time-triggered core network divides time into successive TDMA rounds;
each round is divided into slots statically assigned to sending components.
Because send instants are common knowledge, every receiver can detect a
missing or mistimed frame immediately — the basis of the core consistent-
diagnosis service and of the paper's remark that "transient failures longer
than the length of a slot of the TDMA round can be detected by other FRUs"
(§III-E).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigurationError


class SlotPosition(NamedTuple):
    """Position of a slot occurrence on the global timeline.

    Immutable; a NamedTuple rather than a frozen dataclass because one is
    built per slot (see docs/performance.md, "Slot pipeline cost").
    """

    round_index: int
    slot_index: int
    start_us: int
    end_us: int
    sender: str


class TdmaSchedule:
    """Static TDMA schedule: an ordered tuple of senders, fixed slot length.

    Parameters
    ----------
    senders:
        Slot owners in transmission order.  A sender may own several slots
        per round (appears multiple times).
    slot_length_us:
        Duration of every slot in microseconds.

    Examples
    --------
    >>> sched = TdmaSchedule(("n0", "n1", "n2"), slot_length_us=1000)
    >>> sched.round_length_us
    3000
    >>> sched.slot_at(4500).sender
    'n1'
    """

    def __init__(self, senders: tuple[str, ...] | list[str], slot_length_us: int) -> None:
        senders = tuple(senders)
        if not senders:
            raise ConfigurationError("TDMA schedule needs at least one slot")
        if slot_length_us <= 0:
            raise ConfigurationError(
                f"slot length must be positive, got {slot_length_us}"
            )
        self.senders = senders
        self.slot_length_us = int(slot_length_us)
        self.slots_per_round = len(senders)
        self.round_length_us = self.slot_length_us * self.slots_per_round
        self._slots_of: dict[str, tuple[int, ...]] = {}
        for idx, name in enumerate(senders):
            self._slots_of.setdefault(name, ())
            self._slots_of[name] = self._slots_of[name] + (idx,)

    # -- queries ------------------------------------------------------------

    def participants(self) -> tuple[str, ...]:
        """Distinct senders, in first-slot order."""
        seen: dict[str, None] = {}
        for s in self.senders:
            seen.setdefault(s)
        return tuple(seen)

    def slots_of(self, sender: str) -> tuple[int, ...]:
        """Slot indices within a round owned by ``sender``."""
        try:
            return self._slots_of[sender]
        except KeyError:
            raise ConfigurationError(f"unknown sender {sender!r}") from None

    def slot_at(self, time_us: int) -> SlotPosition:
        """The slot occurrence containing absolute time ``time_us``."""
        time_us = int(time_us)
        if time_us < 0:
            raise ConfigurationError(f"time must be >= 0, got {time_us}")
        round_index, within = divmod(time_us, self.round_length_us)
        slot_index = within // self.slot_length_us
        start = round_index * self.round_length_us + slot_index * self.slot_length_us
        return SlotPosition(
            round_index,
            slot_index,
            start,
            start + self.slot_length_us,
            self.senders[slot_index],
        )

    def next_slot(self, slot: SlotPosition) -> SlotPosition:
        """The slot occurrence after ``slot``; equals ``slot_at(slot.end_us)``."""
        slot_index = slot.slot_index + 1
        round_index = slot.round_index
        if slot_index == self.slots_per_round:
            slot_index = 0
            round_index += 1
        end = slot.end_us
        return SlotPosition(
            round_index,
            slot_index,
            end,
            end + self.slot_length_us,
            self.senders[slot_index],
        )

    def slot_start(self, round_index: int, slot_index: int) -> int:
        """Absolute start time of slot ``slot_index`` in ``round_index``."""
        if not 0 <= slot_index < self.slots_per_round:
            raise ConfigurationError(
                f"slot index {slot_index} out of range 0..{self.slots_per_round - 1}"
            )
        return round_index * self.round_length_us + slot_index * self.slot_length_us

    def occurrences(self, sender: str, since_us: int, until_us: int) -> list[SlotPosition]:
        """All slot occurrences of ``sender`` in ``[since_us, until_us)``."""
        out: list[SlotPosition] = []
        first_round = max(0, int(since_us) // self.round_length_us)
        last_round = max(0, (int(until_us) - 1) // self.round_length_us)
        for rnd in range(first_round, last_round + 1):
            for idx in self.slots_of(sender):
                start = self.slot_start(rnd, idx)
                if since_us <= start < until_us:
                    out.append(
                        SlotPosition(rnd, idx, start, start + self.slot_length_us, sender)
                    )
        return out
