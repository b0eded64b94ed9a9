"""Unit tests for the component runtime (hardware FRU)."""

from __future__ import annotations

import pytest

from repro.components.component import Component, ComponentSpec
from repro.components.job import JobSpec, counter_behaviour
from repro.components.partition import PartitionSpec
from repro.components.ports import PortDirection, PortSpec
from repro.components.virtual_network import (
    PortAddress,
    VirtualNetwork,
    VnLink,
    carrier_index,
)
from repro.errors import ConfigurationError
from repro.tta.tdma import TdmaSchedule


def job(name, das):
    return JobSpec(
        name,
        das,
        (PortSpec("out", PortDirection.OUT),),
        behaviour=counter_behaviour(),
    )


def make_component():
    spec = ComponentSpec(
        "comp",
        partitions=(
            PartitionSpec("p1", job("j1", "A"), cpu_share=0.4),
            PartitionSpec("p2", job("j2", "B"), cpu_share=0.4),
        ),
    )
    return Component(spec)


def vns():
    return {
        "vn-A": VirtualNetwork(
            "vn-A", "A", (VnLink(PortAddress("j1", "out"), ()),)
        ),
        "vn-B": VirtualNetwork(
            "vn-B", "B", (VnLink(PortAddress("j2", "out"), ()),)
        ),
    }


def slot():
    return TdmaSchedule(("comp", "other"), 1000).slot_at(0)


def build(comp, nets, now_us=0):
    return comp.build_frame(slot(), now_us, nets, carrier_index(nets))


def test_structure_queries():
    comp = make_component()
    assert {j.name for j in comp.jobs()} == {"j1", "j2"}
    assert comp.das_names() == frozenset({"A", "B"})
    assert comp.job("j2").das == "B"
    with pytest.raises(ConfigurationError):
        comp.job("ghost")


def test_cpu_share_overcommit_rejected():
    with pytest.raises(ConfigurationError):
        ComponentSpec(
            "c",
            partitions=(
                PartitionSpec("p1", job("j1", "A"), cpu_share=0.7),
                PartitionSpec("p2", job("j2", "B"), cpu_share=0.7),
            ),
        )


def test_duplicate_partition_or_job_rejected():
    with pytest.raises(ConfigurationError):
        ComponentSpec(
            "c",
            partitions=(
                PartitionSpec("p1", job("j1", "A"), cpu_share=0.2),
                PartitionSpec("p1", job("j2", "B"), cpu_share=0.2),
            ),
        )
    with pytest.raises(ConfigurationError):
        ComponentSpec(
            "c",
            partitions=(
                PartitionSpec("p1", job("j1", "A"), cpu_share=0.2),
                PartitionSpec("p2", job("j1", "B"), cpu_share=0.2),
            ),
        )


def test_build_frame_collects_routed_messages():
    comp = make_component()
    frame = build(comp, vns())
    assert frame is not None
    assert set(frame.payload) == {"vn-A", "vn-B"}
    assert comp.frames_sent == 1


def test_build_frame_payload_follows_vn_order():
    comp = make_component()
    nets = {
        "vn-B": VirtualNetwork("vn-B", "B", (VnLink(PortAddress("j2", "out"), ()),)),
        "vn-A": VirtualNetwork("vn-A", "A", (VnLink(PortAddress("j1", "out"), ()),)),
        "vn-all": VirtualNetwork(
            "vn-all",
            "A",
            (
                VnLink(PortAddress("j2", "out"), ()),
                VnLink(PortAddress("j1", "out"), ()),
            ),
        ),
    }
    frame = build(comp, nets)
    # VNs in dict order, messages in job (partition) order within each.
    assert list(frame.payload) == ["vn-B", "vn-A", "vn-all"]
    assert [m.source_job for m in frame.payload["vn-all"]] == ["j1", "j2"]


def test_unrouted_messages_not_in_payload():
    comp = make_component()
    frame = build(comp, {})
    assert frame.payload == {}


def test_outage_makes_component_silent():
    comp = make_component()
    comp.hardware.transient_outage_until_us = 500
    assert build(comp, vns(), 100) is None
    assert comp.frames_missed == 1
    assert not comp.hardware.operational(100)
    assert comp.hardware.operational(500)


def test_permanent_failure_silences_forever():
    comp = make_component()
    comp.hardware.permanently_failed = True
    assert build(comp, vns()) is None


def test_corrupt_tx_bits_invalidate_crc():
    comp = make_component()
    comp.hardware.corrupt_tx_bits = 2
    frame = build(comp, vns())
    assert not frame.crc_valid
    assert frame.bit_flips == 2


def test_timing_offset_shifts_send_instant():
    comp = make_component()
    comp.hardware.timing_offset_us = 80.0
    frame = build(comp, vns())
    assert frame.timing_error_us == pytest.approx(80.0)


def test_restart_clears_transient_state():
    comp = make_component()
    comp.hardware.transient_outage_until_us = 10_000
    comp.hardware.babbling = True
    comp.hardware.corrupt_tx_bits = 3
    comp.restart(5_000)
    assert comp.hardware.operational(5_000)
    assert not comp.hardware.babbling
    assert comp.hardware.corrupt_tx_bits == 0
    assert comp.hardware.restarts == 1


def test_restart_does_not_fix_permanent_failure():
    comp = make_component()
    comp.hardware.permanently_failed = True
    comp.restart(0)
    assert not comp.hardware.operational(0)


def test_replace_gives_fresh_hardware():
    comp = make_component()
    comp.hardware.permanently_failed = True
    comp.replace(1_000)
    assert comp.hardware.operational(1_000)
    assert comp.hardware.replacements == 1


def test_vn_budget_applied_at_frame_build():
    comp = make_component()
    vn = VirtualNetwork(
        "vn-A",
        "A",
        (VnLink(PortAddress("j1", "out"), ()),),
        slot_budget=1,
    )
    # j1 emits one message per dispatch: within budget.
    frame = build(comp, {"vn-A": vn})
    assert len(frame.payload["vn-A"]) == 1
    assert vn.tx_overflows == 0
