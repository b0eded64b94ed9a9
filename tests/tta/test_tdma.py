"""Unit + property tests for the TDMA schedule."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.tta.tdma import TdmaSchedule


@pytest.fixture
def sched():
    return TdmaSchedule(("n0", "n1", "n2"), slot_length_us=1000)


def test_round_structure(sched):
    assert sched.slots_per_round == 3
    assert sched.round_length_us == 3000
    assert sched.participants() == ("n0", "n1", "n2")


def test_slot_at(sched):
    slot = sched.slot_at(4500)
    assert slot.round_index == 1
    assert slot.slot_index == 1
    assert slot.sender == "n1"
    assert slot.start_us == 4000
    assert slot.end_us == 5000


def test_slot_start_and_round(sched):
    assert sched.slot_start(2, 1) == 7000
    with pytest.raises(ConfigurationError):
        sched.slot_start(0, 3)


def test_multi_slot_sender():
    sched = TdmaSchedule(("a", "b", "a"), 500)
    assert sched.slots_of("a") == (0, 2)
    assert sched.participants() == ("a", "b")


def test_occurrences(sched):
    occ = sched.occurrences("n1", 0, 9000)
    assert [o.start_us for o in occ] == [1000, 4000, 7000]
    # half-open interval
    occ = sched.occurrences("n0", 3000, 6001)
    assert [o.start_us for o in occ] == [3000, 6000]


def test_unknown_sender(sched):
    with pytest.raises(ConfigurationError):
        sched.slots_of("ghost")


def test_negative_time_rejected(sched):
    with pytest.raises(ConfigurationError):
        sched.slot_at(-1)


def test_empty_schedule_rejected():
    with pytest.raises(ConfigurationError):
        TdmaSchedule((), 100)
    with pytest.raises(ConfigurationError):
        TdmaSchedule(("a",), 0)


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=10**8),
)
def test_property_slot_at_consistency(senders, slot_len, t):
    sched = TdmaSchedule(tuple(senders), slot_len)
    slot = sched.slot_at(t)
    assert slot.start_us <= t < slot.end_us
    assert slot.end_us - slot.start_us == slot_len
    assert sched.senders[slot.slot_index] == slot.sender
    # start of the slot maps back to the same slot
    again = sched.slot_at(slot.start_us)
    assert (again.round_index, again.slot_index) == (
        slot.round_index,
        slot.slot_index,
    )


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=10**8),
)
def test_property_next_slot_is_slot_at_end(senders, slot_len, t):
    sched = TdmaSchedule(tuple(senders), slot_len)
    slot = sched.slot_at(t)
    assert sched.next_slot(slot) == sched.slot_at(slot.end_us)
