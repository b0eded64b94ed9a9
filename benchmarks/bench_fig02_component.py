"""Fig. 2 — the DECOS component structure.

Regenerates the component figure for the shared component comp2: vertical
structuring (safety-critical vs non safety-critical subsystem) and
horizontal structuring (communication-controller layer services vs the
application layer's partitions/jobs/ports).
"""

from __future__ import annotations

from repro.analysis.reports import render_table
from repro.components.virtual_network import carrier_index
from repro.presets import figure10_cluster

from benchmarks._util import emit


def test_fig02_component_structure(benchmark):
    parts = figure10_cluster(seed=1)
    cluster = parts.cluster
    comp = cluster.components[parts.shared_component]

    rows = []
    for partition in comp.partitions.values():
        job = partition.job
        subsystem = (
            "safety-critical" if partition.safety_critical else "non safety-critical"
        )
        ports = ", ".join(
            f"{p.spec.name}({p.spec.direction.value}/{p.spec.kind.value})"
            for p in job.ports.values()
        )
        rows.append([subsystem, partition.name, job.name, job.das, ports or "-"])
    rows.sort(key=lambda r: r[0])
    table = render_table(
        ["vertical subsystem", "partition", "job", "DAS", "ports"],
        rows,
        title=(
            "Fig. 2 — component structure of comp2 (application layer; the "
            "controller layer realises the core + high-level services)"
        ),
    )
    emit("fig02_component", table)

    # Vertical structuring present: both subsystems populated.
    assert comp.safety_critical_partitions()
    assert comp.non_safety_critical_partitions()

    # Kernel benchmark: frame building (the controller-layer hot path).
    slot = cluster.schedule.slot_at(
        cluster.schedule.slot_start(1, 1)
    )  # comp2's slot
    # The cluster compiles this table once per route change, not per frame.
    carriers = carrier_index(cluster.vns)

    def build_frame():
        return comp.build_frame(slot, slot.start_us, cluster.vns, carriers)

    frame = benchmark(build_frame)
    assert frame is not None and frame.payload
