"""Unit tests for frames and their corruption model."""

from __future__ import annotations

import pytest

from repro.tta.frames import Frame
from repro.tta.tdma import TdmaSchedule


@pytest.fixture
def frame():
    slot = TdmaSchedule(("a", "b"), 1000).slot_at(2000)
    return Frame(sender="a", slot=slot, send_time_us=2003.5)


def test_timing_error(frame):
    assert frame.timing_error_us == pytest.approx(3.5)


def test_corruption_invalidates_crc(frame):
    bad = frame.corrupted(3)
    assert not bad.crc_valid
    assert bad.bit_flips == 3
    # original untouched (frames are immutable values)
    assert frame.crc_valid


def test_corruption_accumulates(frame):
    worse = frame.corrupted(2).corrupted(3)
    assert worse.bit_flips == 5


def test_zero_flip_corruption_is_identity(frame):
    assert frame.corrupted(0) is frame
