"""Payload messages whose source job no component hosts.

The detector's value checks and the OBD baseline's value DTCs resolve a
message's value spec through ``Cluster.job``, which raises
``ConfigurationError`` for a job it does not know.  Both skip such
messages; any other error from that lookup is a bug and must surface.
"""

from __future__ import annotations

import pytest

from repro.components.ports import Message
from repro.diagnosis.baseline_obd import ObdBaseline
from repro.diagnosis.detector import DetectionService
from repro.presets import small_cluster
from repro.units import ms


def _ghost_payload(sender, slot, now_us):
    # Far outside any value spec, so a resolved spec would flag it.
    return {"vn-main": (Message("ghost", "out", 1e9, 1, now_us),)}


def _observed_cluster(seed):
    cluster = small_cluster(4, seed=seed)
    symptoms = []
    detector = DetectionService(cluster, lambda _obs, s: symptoms.append(s))
    obd = ObdBaseline(cluster)
    return cluster, detector, obd, symptoms


def test_message_from_unhosted_job_is_skipped_and_cached():
    cluster, detector, obd, symptoms = _observed_cluster(seed=71)
    cluster.payload_contributors.append(_ghost_payload)
    cluster.run(ms(50))
    assert symptoms == []
    assert obd.dtcs == []
    assert ("ghost", "out") in detector._value_specs
    assert detector._value_specs[("ghost", "out")] is None


@pytest.mark.parametrize("observer", ["detector", "obd"])
def test_other_errors_from_the_job_lookup_propagate(observer, monkeypatch):
    cluster, detector, obd, _symptoms = _observed_cluster(seed=72)
    cluster.frame_observers.remove(
        (obd if observer == "detector" else detector)._on_slot
    )

    def broken_lookup(name):
        raise RuntimeError(f"lookup of {name!r} failed")

    monkeypatch.setattr(cluster, "job", broken_lookup)
    with pytest.raises(RuntimeError, match="lookup of"):
        cluster.run(ms(20))
