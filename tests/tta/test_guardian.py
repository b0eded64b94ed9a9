"""Unit tests for bus guardians."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.tta.guardian import BusGuardian
from repro.tta.tdma import TdmaSchedule


def make_guardian(tolerance=0):
    sched = TdmaSchedule(("a", "b", "c"), 1000)
    return BusGuardian("b", sched, window_tolerance_us=tolerance)


def test_in_slot_send_passes():
    g = make_guardian()
    assert g.check(1500.0).allowed
    assert g.passed_count == 1


def test_foreign_slot_send_blocked():
    g = make_guardian()
    decision = g.check(250.0)  # slot of "a"
    assert not decision.allowed
    assert decision.reason == "foreign-slot"
    assert g.blocked_count == 1


def test_tolerance_band_after_slot():
    g = make_guardian(tolerance=50)
    assert g.check(2049.0).allowed  # 49us past own slot end
    assert not g.check(2200.0).allowed


def test_early_send_within_tolerance():
    g = make_guardian(tolerance=50)
    # 30us before own slot start (still in a's slot)
    decision = g.check(970.0)
    assert decision.allowed
    assert decision.reason == "early-within-tolerance"


def test_next_round_slot_also_passes():
    g = make_guardian()
    assert g.check(4500.0).allowed  # b's slot in round 1


def test_passing_decisions_are_shared_and_immutable():
    g = make_guardian(tolerance=50)
    first, second = g.check(1500.0), g.check(1600.0)
    assert first is second
    with pytest.raises(AttributeError):
        first.allowed = False


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-400.0, max_value=1_400.0),
)
def test_property_slot_hint_never_changes_the_decision(
    senders, owner, tol, t, offset
):
    """A hint, the slot the caller is in, gives exactly the hint-free
    decision, reason and log — for the slot's sender and for a foreign
    (babbling) component, also when the send instant falls outside the
    hinted slot and a sender owns adjacent slots."""
    sched = TdmaSchedule(tuple(senders), 1000)
    slot = sched.slot_at(t)
    send = max(0.0, slot.start_us + offset)
    plain = BusGuardian(owner, sched, window_tolerance_us=tol)
    hinted = BusGuardian(owner, sched, window_tolerance_us=tol)
    assert hinted.check(send, slot) == plain.check(send)
    assert (hinted.passed_count, hinted.blocked_count) == (
        plain.passed_count,
        plain.blocked_count,
    )
