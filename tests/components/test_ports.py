"""Unit + property tests for ports and value specifications."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.components.ports import (
    CONFORMING,
    MARGINAL,
    VIOLATING,
    Message,
    Port,
    PortDirection,
    PortKind,
    PortSpec,
    ValueSpec,
)
from repro.errors import ConfigurationError


def msg(value, seq=1):
    return Message("j", "p", value, seq, 0)


# -- ValueSpec ----------------------------------------------------------------


def test_value_spec_conformance():
    spec = ValueSpec(low=0.0, high=10.0)
    assert spec.conforms(5)
    assert spec.conforms(0.0) and spec.conforms(10.0)
    assert not spec.conforms(-0.1)
    assert not spec.conforms(10.1)
    assert not spec.conforms(float("nan"))
    assert not spec.conforms("not-a-number")


def test_value_spec_marginal_band():
    spec = ValueSpec(low=0.0, high=10.0, margin=0.1)
    assert spec.classify(0.5) == spec.classify(9.5) == MARGINAL
    # the band includes its inner edge: margin * (high - low) = 1.0
    assert spec.classify(1.0) == spec.classify(9.0) == MARGINAL
    assert spec.classify(5.0) == CONFORMING
    assert spec.classify(11.0) == VIOLATING  # out of spec is not "marginal"
    assert spec.classify("x") == spec.classify(float("nan")) == VIOLATING


def test_value_spec_deviation():
    spec = ValueSpec(low=0.0, high=10.0)
    assert spec.deviation(5.0) == 0.0
    assert spec.deviation(15.0) == pytest.approx(0.5)
    assert spec.deviation(-5.0) == pytest.approx(0.5)
    assert math.isinf(spec.deviation(float("nan")))
    assert math.isinf(spec.deviation("x"))


def test_unbounded_spec_never_marginal():
    spec = ValueSpec()
    assert spec.conforms(1e300)
    assert spec.classify(1e300) == CONFORMING
    assert spec.deviation(1e300) == 0.0


def test_value_spec_validation():
    with pytest.raises(ConfigurationError):
        ValueSpec(low=1.0, high=1.0)
    with pytest.raises(ConfigurationError):
        ValueSpec(margin=0.5)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_property_deviation_nonnegative_and_zero_iff_conforms(value):
    spec = ValueSpec(low=-10.0, high=10.0)
    dev = spec.deviation(value)
    assert dev >= 0.0
    assert (dev == 0.0) == spec.conforms(value)


# -- ports ----------------------------------------------------------------


def state_port():
    return Port(PortSpec("p", PortDirection.IN, PortKind.STATE), "j")


def event_port(capacity=2):
    return Port(
        PortSpec("p", PortDirection.IN, PortKind.EVENT, queue_capacity=capacity),
        "j",
    )


def test_state_port_overwrite_semantics():
    port = state_port()
    assert port.push(msg(1.0, seq=1))
    assert port.push(msg(2.0, seq=2))
    assert port.read_state().value == 2.0
    # non-consuming
    assert port.read_state().value == 2.0


def test_state_port_rejects_event_ops():
    with pytest.raises(ConfigurationError):
        state_port().pop_event()
    with pytest.raises(ConfigurationError):
        event_port().read_state()


def test_event_port_fifo_and_overflow():
    port = event_port(capacity=2)
    assert port.push(msg(1.0, 1))
    assert port.push(msg(2.0, 2))
    assert not port.push(msg(3.0, 3))  # overflow, newest lost
    assert port.overflow_count == 1
    assert port.pop_event().value == 1.0
    assert port.pop_event().value == 2.0
    assert port.pop_event() is None


def test_event_port_drain():
    port = event_port(capacity=4)
    for i in range(3):
        port.push(msg(float(i), i))
    drained = port.drain()
    assert [m.value for m in drained] == [0.0, 1.0, 2.0]
    assert port.queue_length == 0


def test_resize_queue_changes_capacity():
    port = event_port(capacity=1)
    port.push(msg(1.0, 1))
    assert not port.push(msg(2.0, 2))
    port.resize_queue(3)
    assert port.push(msg(3.0, 3))
    assert port.spec.queue_capacity == 3
    with pytest.raises(ConfigurationError):
        port.resize_queue(0)


def test_counters():
    port = event_port(capacity=8)
    for i in range(5):
        port.push(msg(float(i), i))
    port.pop_event()
    assert port.messages_in == 5
    assert port.messages_out == 1


def test_port_spec_validation():
    with pytest.raises(ConfigurationError):
        PortSpec("p", PortDirection.IN, PortKind.EVENT, queue_capacity=0)
    with pytest.raises(ConfigurationError):
        PortSpec("p", PortDirection.OUT, period_slots=0)


@given(st.lists(st.integers(), min_size=0, max_size=20), st.integers(1, 5))
def test_property_event_queue_never_exceeds_capacity(values, capacity):
    port = event_port(capacity=capacity)
    accepted = sum(1 for i, v in enumerate(values) if port.push(msg(v, i)))
    assert port.queue_length <= capacity
    assert accepted == min(len(values), capacity)
    assert port.overflow_count == len(values) - accepted
