"""Unit tests for the consistent membership service."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.tta.membership import MembershipService, views_consistent

SENDERS = ("a", "b", "c")


def test_initial_view_includes_everyone():
    svc = MembershipService("a", SENDERS)
    assert svc.view() == frozenset(SENDERS)


def test_failure_removes_after_fail_limit():
    svc = MembershipService("a", SENDERS, fail_limit=2)
    svc.observe("b", False, 100)
    assert svc.is_member("b")  # one failure not yet enough
    svc.observe("b", False, 200)
    assert not svc.is_member("b")
    assert svc.removal_count("b") == 1
    assert svc.transitions == [(200, "b", False)]


def test_rejoin_after_consecutive_successes():
    svc = MembershipService("a", SENDERS, fail_limit=1, rejoin_limit=2)
    svc.observe("b", False, 100)
    assert not svc.is_member("b")
    svc.observe("b", True, 200)
    assert not svc.is_member("b")
    svc.observe("b", True, 300)
    assert svc.is_member("b")
    assert svc.transitions[-1] == (300, "b", True)


def test_interleaved_failures_reset_success_streak():
    svc = MembershipService("a", SENDERS, fail_limit=1, rejoin_limit=2)
    svc.observe("b", False, 1)
    svc.observe("b", True, 2)
    svc.observe("b", False, 3)
    svc.observe("b", True, 4)
    assert not svc.is_member("b")


def test_observer_always_member_of_own_view():
    svc = MembershipService("a", SENDERS)
    assert svc.is_member("a")
    assert "a" in svc.view()


def test_view_is_cached_until_a_transition():
    svc = MembershipService("a", SENDERS, fail_limit=1, rejoin_limit=2)
    view = svc.view()
    svc.observe("b", True, 1)
    assert svc.view() is view
    svc.observe("b", False, 2)
    assert svc.view() == frozenset({"a", "c"})
    svc.observe("b", True, 3)
    assert svc.view() == frozenset({"a", "c"})
    svc.observe("b", True, 4)
    assert svc.view() == frozenset(SENDERS)


def test_unknown_sender_ignored():
    svc = MembershipService("a", SENDERS)
    svc.observe("ghost", False, 1)
    assert not svc.is_member("ghost")
    assert svc.removal_count("ghost") == 0


def test_invalid_limits():
    with pytest.raises(ConfigurationError):
        MembershipService("a", SENDERS, fail_limit=0)
    with pytest.raises(ConfigurationError):
        MembershipService("a", SENDERS, rejoin_limit=0)


def test_views_consistent_on_agreement():
    services = [MembershipService(n, SENDERS) for n in SENDERS]
    for svc in services:
        svc.observe("b", False, 10)
    assert views_consistent(services)


def test_views_inconsistent_on_disagreement():
    a = MembershipService("a", SENDERS)
    c = MembershipService("c", SENDERS)
    a.observe("b", False, 10)  # only a saw the failure
    assert not views_consistent([a, c])


def test_views_consistent_trivial_cases():
    assert views_consistent([])
    assert views_consistent([MembershipService("a", SENDERS)])
