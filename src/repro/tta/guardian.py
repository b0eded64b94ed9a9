"""Bus guardians — temporal fault isolation (core service C3).

A bus guardian is an independent device that opens a component's transmit
path only during the component's own TDMA slots.  It converts the arbitrary
failure mode of a component (e.g. a babbling idiot flooding the bus) into a
fail-silent manifestation in the time domain: untimely transmissions are
cut off and never reach the medium, so one faulty component cannot destroy
the communication of the others — the strong fault-isolation property that
the paper's fault hypothesis (§II-E) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tta.tdma import SlotPosition, TdmaSchedule


@dataclass(frozen=True, slots=True)
class GuardianDecision:
    """Outcome of one transmit-gate check."""

    allowed: bool
    reason: str


# Passing checks share one decision per reason instead of building one.
_IN_SLOT = GuardianDecision(True, "in-slot")
_EARLY = GuardianDecision(True, "early-within-tolerance")
_LATE = GuardianDecision(True, "late-within-tolerance")


@dataclass(slots=True)
class BusGuardian:
    """Guardian for a single component.

    Parameters
    ----------
    component:
        The guarded component's name.
    schedule:
        The cluster TDMA schedule (the guardian has its own copy of the
        static schedule and, in real systems, an independent clock; we let
        it use reference time, i.e. an ideal guardian clock).
    window_tolerance_us:
        Grace margin around the slot boundaries accounting for the cluster
        precision: sends within ``slot start/end +- tolerance`` pass.
    """

    component: str
    schedule: TdmaSchedule
    window_tolerance_us: int = 0
    blocked_count: int = 0
    passed_count: int = 0

    def check(
        self, send_time_us: float, slot: SlotPosition | None = None
    ) -> GuardianDecision:
        """Gate a transmission attempt at ``send_time_us``.

        The attempt passes iff it falls within (tolerance of) a slot owned
        by the guarded component.  ``slot`` is an optional hint, the slot
        occurrence the caller is in; it is used only when it contains the
        truncated send instant, so that it equals what ``slot_at`` would
        return.  Otherwise (for instance a send just before the slot, when
        the sender may also own the adjacent slot) the schedule decides.
        """
        t = int(send_time_us)
        if slot is None or not slot.start_us <= t < slot.end_us:
            slot = self.schedule.slot_at(max(t, 0))
        in_window = (
            slot.sender == self.component
            and slot.start_us - self.window_tolerance_us
            <= send_time_us
            <= slot.end_us + self.window_tolerance_us
        )
        if in_window:
            self.passed_count += 1
            return _IN_SLOT
        # Also accept sends in the tolerance bands adjacent to the
        # component's own slot (early/late sends due to clock deviation).
        if slot.sender != self.component and self.window_tolerance_us > 0:
            nxt = self.schedule.slot_at(slot.end_us)
            if (
                nxt.sender == self.component
                and nxt.start_us - send_time_us <= self.window_tolerance_us
            ):
                self.passed_count += 1
                return _EARLY
            if slot.start_us > 0:
                prev = self.schedule.slot_at(slot.start_us - 1)
                if (
                    prev.sender == self.component
                    and send_time_us - prev.end_us <= self.window_tolerance_us
                ):
                    self.passed_count += 1
                    return _LATE
        self.blocked_count += 1
        reason = (
            "foreign-slot" if slot.sender != self.component else "outside-window"
        )
        return GuardianDecision(False, reason)
