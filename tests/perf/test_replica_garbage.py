"""Gate: a finished replica leaves nothing for the cyclic garbage collector.

Every runner task that builds a cluster closes it once its outcome is
built (:meth:`repro.components.cluster.Cluster.close`).  Closing drops
the event queue and the hooks through which the cluster points back at
the services built around it, so the replica's whole object graph is
freed by reference counting the moment the task returns.  Without that,
each replica is one large reference cycle that stays in memory until a
full collection, and a long campaign's process grows replica by replica.

Each case runs one task with the collector disabled, then runs one
collection under ``gc.DEBUG_SAVEALL``: whatever that collection finds
could only have been freed by the collector, and it must be nothing.  A
failure names the leftover object types with their counts; the usual
causes are a closure or bound method that holds its own owner (see
``docs/performance.md``, "Replica lifetime").
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.analysis.fleet_sim import VehicleSpec, simulate_vehicle
from repro.analysis.scenarios import run_catalogue_cell
from repro.faults.campaign import DEFAULT_MIX, CampaignReplicaSpec
from repro.runtime.runner import ReplicaTask
from repro.runtime.workloads import run_campaign_replica
from repro.units import ms, seconds

#: The short campaign of the call budget and ``mc_short``.
SHORT_SEED = 4321
SHORT_SPEC = CampaignReplicaSpec(horizon_us=ms(300))
#: Together these replicas draw every mechanism of ``DEFAULT_MIX``.
SHORT_REPLICAS = (0, 1, 4, 10, 18, 29)

#: The A10 campaign (root seed 1, 4 expected faults, 8 s); replica 4
#: is its heaviest.
A10_SEED = 1
A10_SPEC = CampaignReplicaSpec(expected_faults=4.0, horizon_us=seconds(8))

OBS_SPEC = CampaignReplicaSpec(
    horizon_us=ms(300),
    obs_enabled=True,
    obs_trace=True,
    obs_provenance=True,
)


def _assert_freed(task, replica: ReplicaTask):
    """Run ``task(replica)`` with the collector off; fail, naming the
    leftover types, if a collection then finds anything to free."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        outcome = task(replica)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leftovers = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leftovers, (
        f"{task.__name__} (replica {replica.index}, root seed "
        f"{replica.root_seed}) left {sum(leftovers.values())} objects for "
        f"the cyclic collector: {dict(leftovers.most_common())}"
    )
    return outcome


@pytest.mark.parametrize("index", SHORT_REPLICAS)
def test_short_campaign_replica_is_freed(index):
    _assert_freed(
        run_campaign_replica,
        ReplicaTask(index=index, root_seed=SHORT_SEED, spec=SHORT_SPEC),
    )


def test_short_replicas_draw_every_mechanism():
    """The coverage the cases above rely on, pinned so it cannot shrink."""
    drawn = set()
    for index in SHORT_REPLICAS:
        outcome = run_campaign_replica(
            ReplicaTask(index=index, root_seed=SHORT_SEED, spec=SHORT_SPEC)
        )
        drawn.update(mechanism for mechanism, _t, _at in outcome.plan_events)
    assert drawn == set(DEFAULT_MIX)


def test_a10_replica_is_freed():
    outcome = _assert_freed(
        run_campaign_replica,
        ReplicaTask(index=4, root_seed=A10_SEED, spec=A10_SPEC),
    )
    assert outcome.faults_injected > 0


def test_replica_with_trace_and_provenance_is_freed():
    outcome = _assert_freed(
        run_campaign_replica,
        ReplicaTask(index=0, root_seed=SHORT_SEED, spec=OBS_SPEC),
    )
    assert outcome.obs_trace and outcome.obs_counters


def test_faulty_vehicle_is_freed():
    outcome = _assert_freed(
        simulate_vehicle,
        ReplicaTask(
            index=3, root_seed=0, spec=VehicleSpec(drive_duration_us=ms(300))
        ),
    )
    assert outcome.with_fault


def test_catalogue_cell_is_freed():
    # A sensor fault: the cell's injector installs a job fault hook.
    outcome = _assert_freed(
        run_catalogue_cell,
        ReplicaTask(index=0, root_seed=0, spec=("sensor-stuck", 7)),
    )
    assert outcome.predicted is outcome.truth
