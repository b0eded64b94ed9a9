"""Consistent membership — the consistent-diagnosis core service (C4).

Every component maintains a *membership view*: the set of components it
currently considers operational, derived solely from the success or failure
of the statically scheduled frame receptions.  Because all correct
components observe the same frames on a broadcast medium, their views agree
(we additionally expose a consistency check used by tests).

A sender is removed from the view after ``fail_limit`` consecutive failed
occurrences of its slots and re-admitted after ``rejoin_limit`` consecutive
successful ones.  With ``fail_limit = 1`` this realises the paper's remark
that "transient failures longer than the length of a slot of the TDMA round
can be detected by other FRUs" (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(slots=True)
class _SenderTrack:
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    member: bool = True
    removals: int = 0


class MembershipService:
    """Membership view of one observing component."""

    def __init__(
        self,
        observer: str,
        senders: tuple[str, ...],
        *,
        fail_limit: int = 1,
        rejoin_limit: int = 2,
    ) -> None:
        if fail_limit < 1:
            raise ConfigurationError(f"fail_limit must be >= 1, got {fail_limit}")
        if rejoin_limit < 1:
            raise ConfigurationError(f"rejoin_limit must be >= 1, got {rejoin_limit}")
        self.observer = observer
        self.fail_limit = fail_limit
        self.rejoin_limit = rejoin_limit
        self._tracks: dict[str, _SenderTrack] = {
            s: _SenderTrack() for s in senders if s != observer
        }
        self.transitions: list[tuple[int, str, bool]] = []
        # view() is asked every slot but changes only on a transition.
        self._view: frozenset[str] | None = None

    def observe(self, sender: str, ok: bool, now_us: int) -> None:
        """Record the outcome of one slot occurrence of ``sender``."""
        track = self._tracks.get(sender)
        if track is None:
            return
        if ok:
            track.consecutive_failures = 0
            track.consecutive_successes += 1
            if not track.member and track.consecutive_successes >= self.rejoin_limit:
                track.member = True
                self._view = None
                self.transitions.append((now_us, sender, True))
        else:
            track.consecutive_successes = 0
            track.consecutive_failures += 1
            if track.member and track.consecutive_failures >= self.fail_limit:
                track.member = False
                track.removals += 1
                self._view = None
                self.transitions.append((now_us, sender, False))

    def view(self) -> frozenset[str]:
        """Current membership view (the observer itself is always included)."""
        view = self._view
        if view is None:
            members = {s for s, t in self._tracks.items() if t.member}
            members.add(self.observer)
            view = self._view = frozenset(members)
        return view

    def is_member(self, sender: str) -> bool:
        if sender == self.observer:
            return True
        track = self._tracks.get(sender)
        return track.member if track is not None else False

    def removal_count(self, sender: str) -> int:
        """How often ``sender`` has been excluded so far."""
        track = self._tracks.get(sender)
        return track.removals if track is not None else 0


def views_consistent(services: list[MembershipService]) -> bool:
    """Check that all observers currently hold agreeing views.

    Views "agree" when, for every pair of observers, the two views coincide
    on all components other than the two observers themselves (an observer
    always lists itself and cannot judge its own health).
    """
    for i, a in enumerate(services):
        for b in services[i + 1 :]:
            exclude = {a.observer, b.observer}
            if a.view() - exclude != b.view() - exclude:
                return False
    return True
