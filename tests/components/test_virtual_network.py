"""Unit tests for virtual networks."""

from __future__ import annotations

import pytest

from repro.components.ports import Message
from repro.components.virtual_network import (
    PortAddress,
    VirtualNetwork,
    VnLink,
    carrier_index,
)
from repro.errors import ConfigurationError


def make_vn(budget=16):
    return VirtualNetwork(
        "vn-x",
        "x",
        links=(
            VnLink(
                PortAddress("p", "out"),
                (PortAddress("k1", "in"), PortAddress("k2", "in")),
            ),
        ),
        slot_budget=budget,
    )


def msg(job="p", port="out", value=1.0):
    return Message(job, port, value, 1, 0)


def test_routing():
    vn = make_vn()
    dests = vn.routes()[("p", "out")]
    assert [str(d) for d in dests] == ["k1.in", "k2.in"]
    # routes() is a copy: editing it changes no route
    vn.routes().clear()
    assert ("p", "out") in vn.routes()


def test_unrouted_message():
    vn = make_vn()
    other = msg(port="other")
    assert (other.source_job, other.port) not in vn.routes()
    assert carrier_index({"vn-x": vn}) == {("p", "out"): ("vn-x",)}
    assert carrier_index({}) == {}


def test_carrier_index_lists_every_carrier_in_vn_order():
    shared = VnLink(PortAddress("p", "out"), ())  # carried, no destination
    index = carrier_index(
        {
            "vn-b": VirtualNetwork("vn-b", "x", (shared,)),
            "vn-a": make_vn(),
        }
    )
    assert index == {("p", "out"): ("vn-b", "vn-a")}


def test_duplicate_source_rejected():
    with pytest.raises(ConfigurationError):
        VirtualNetwork(
            "v",
            "x",
            links=(
                VnLink(PortAddress("p", "out"), ()),
                VnLink(PortAddress("p", "out"), ()),
            ),
        )
    vn = make_vn()
    with pytest.raises(ConfigurationError):
        vn.add_link(VnLink(PortAddress("p", "out"), ()))


def test_add_link():
    vn = make_vn()
    vn.add_link(VnLink(PortAddress("q", "out"), (PortAddress("k1", "in2"),)))
    assert len(vn.sources()) == 2


def test_admit_budget():
    vn = make_vn(budget=2)
    msgs = [msg(value=float(i)) for i in range(5)]
    admitted = vn.admit(msgs)
    assert len(admitted) == 2
    assert vn.tx_overflows == 3
    # under budget: untouched
    assert vn.admit(msgs[:2]) == msgs[:2]
    assert vn.tx_overflows == 3


def test_reconfigure_budget():
    vn = make_vn(budget=1)
    vn.reconfigure_budget(10)
    assert vn.slot_budget == 10
    with pytest.raises(ConfigurationError):
        vn.reconfigure_budget(0)
    with pytest.raises(ConfigurationError):
        VirtualNetwork("v", "x", slot_budget=0)
