"""``run_scenario(with_obd=False)`` leaves the passive OBD baseline out."""

from __future__ import annotations

from repro.analysis.scenarios import CATALOGUE, obd_detection_latency_us, run_scenario
from repro.diagnosis.baseline_obd import ObdBaseline


def _obd_observers(run) -> list:
    return [
        hook
        for hook in run.parts.cluster.frame_observers
        if isinstance(getattr(hook, "__self__", None), ObdBaseline)
    ]


def test_without_obd_installs_no_baseline_and_diagnoses_the_same():
    scenario = CATALOGUE[0]
    with_obd = run_scenario(scenario, seed=7)
    without = run_scenario(scenario, seed=7, with_obd=False)
    try:
        assert isinstance(with_obd.obd, ObdBaseline)
        assert len(_obd_observers(with_obd)) == 1
        assert without.obd is None
        assert _obd_observers(without) == []
        assert obd_detection_latency_us(without) is None
        # The baseline only watches: the diagnosis does not change.
        assert without.verdicts == with_obd.verdicts
        assert without.service.epoch_results == with_obd.service.epoch_results
        assert (
            without.parts.cluster.sim.events_processed
            == with_obd.parts.cluster.sim.events_processed
        )
    finally:
        with_obd.parts.cluster.close()
        without.parts.cluster.close()
