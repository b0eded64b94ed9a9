"""Unit + property tests for TMR voting."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.components.redundancy import TmrVoter
from repro.errors import ConfigurationError

REPLICAS = ("r1", "r2", "r3")


def test_unanimous_vote():
    voter = TmrVoter(REPLICAS)
    result = voter.vote({"r1": 1.0, "r2": 1.0, "r3": 1.0})
    assert result.value == 1.0
    assert not result.masked_failure


def test_single_deviation_masked():
    voter = TmrVoter(REPLICAS)
    result = voter.vote({"r1": 1.0, "r2": 1.0, "r3": 9.0})
    assert result.value == 1.0
    assert result.deviating == ("r3",)
    assert result.masked_failure
    assert voter.masked == 1


def test_missing_replica_masked():
    voter = TmrVoter(REPLICAS)
    result = voter.vote({"r1": 2.0, "r3": 2.0})
    assert result.value == 2.0
    assert result.missing == ("r2",)
    assert result.masked_failure


def test_no_majority():
    voter = TmrVoter(REPLICAS)
    result = voter.vote({"r1": 1.0, "r2": 2.0, "r3": 3.0})
    assert result.value is None
    assert voter.no_majority == 1


def test_tolerance_groups_close_values():
    voter = TmrVoter(REPLICAS, tolerance=0.1)
    result = voter.vote({"r1": 1.0, "r2": 1.05, "r3": 5.0})
    assert result.value == pytest.approx(1.025)
    assert result.deviating == ("r3",)


def test_suspected_replica_accumulates():
    voter = TmrVoter(REPLICAS)
    assert voter.suspected_replica() is None
    for _ in range(3):
        voter.vote({"r1": 1.0, "r2": 1.0, "r3": 9.0})
    assert voter.suspected_replica(min_count=3) == "r3"
    assert voter.deviation_counts["r3"] == 3


def test_validation():
    with pytest.raises(ConfigurationError):
        TmrVoter(("a", "b"))
    with pytest.raises(ConfigurationError):
        TmrVoter(("a", "a", "b"))
    with pytest.raises(ConfigurationError):
        TmrVoter(REPLICAS, tolerance=-1.0)


@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_property_two_agreeing_values_always_win(good, bad):
    voter = TmrVoter(REPLICAS, tolerance=1e-9)
    result = voter.vote({"r1": good, "r2": good, "r3": bad})
    # Within the agreement tolerance the voted value may average in the
    # third replica; it always stays within tolerance of the good value.
    assert result.value == pytest.approx(good, abs=1e-9, rel=1e-9)
    if abs(bad - good) > 2e-9:
        assert result.deviating == ("r3",)
