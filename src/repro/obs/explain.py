"""Causal-chain reconstruction — the ``repro explain`` command.

Reads a trace (schema v2 with ``cause_id``/``parents`` lineage; v1 files
parse but carry no provenance) and renders each injected fault's causal
chain as a sim-time-annotated tree with per-stage latency deltas — the
answer to "why did this FRU get *replace*?".  :func:`explain` returns
the machine-readable form (``--json``); :func:`render_explain` the human
one.

The DAG and each fault's chain come from
:func:`repro.obs.provenance.causal_dags` and
:func:`~repro.obs.provenance.walk_faults`, the walk the replicas' stage
fold reads too.  Explain keeps its own reporting rules on top: deltas
are raw (a negative one flags the chain non-monotonic instead of being
clamped) and chains are ordered by ``(replica, cause_id)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.obs.provenance import (
    CausalDag,
    FaultWalk,
    causal_dags,
    walk_faults,
)

#: How many children to print per node before eliding (machine form is
#: never truncated).
MAX_RENDER_CHILDREN = 8


def has_provenance(records: Iterable[Mapping[str, Any]]) -> bool:
    """True when any non-meta record carries lineage fields."""
    return any(
        rec.get("cause_id") is not None
        for rec in records
        if rec.get("kind") != "meta"
    )


def _matches_fru(attrs: Mapping[str, Any], fru: str) -> bool:
    return fru in (
        attrs.get("fru"),
        attrs.get("subject"),
        f"component:{attrs.get('fru')}",
        f"component:{attrs.get('subject')}",
    )


def _chain(dag: CausalDag, walk: FaultWalk) -> dict[str, Any]:
    """One fault's walk as explain reports it.

    Stage deltas are raw: a negative one stays negative, and any edge
    whose child is timed before its parent sets ``monotonic`` false.
    """
    nodes, children = dag.nodes, dag.children
    _, activation_us, _, attrs, _ = nodes[walk.root]
    actions: set[str] = set()
    edges: set[tuple[str, str]] = set()
    monotonic = True
    for cause_id in walk.members:
        stage, t_sim, _, node_attrs, _ = nodes[cause_id]
        if stage == "maintenance" and node_attrs.get("action") is not None:
            actions.add(node_attrs["action"])
        for child in children.get(cause_id, ()):
            edges.add((cause_id, child))
            child_t = nodes[child][1]
            if t_sim is not None and child_t is not None and child_t < t_sim:
                monotonic = False
    return {
        "fault_id": attrs.get("fault_id"),
        "replica": dag.replica,
        "cls": attrs.get("cls"),
        "mechanism": attrs.get("mechanism"),
        "fru": attrs.get("fru"),
        "activation_us": activation_us,
        "stages": list(walk.stages),
        "terminal": walk.terminal,
        "stage_earliest_us": dict(walk.earliest),
        "stage_latency_us": walk.stage_latencies(),
        "maintenance_actions": sorted(actions),
        "monotonic": monotonic,
        "nodes": sorted(walk.members),
        "edges": sorted(edges),
    }


def _chains(
    records: list[dict[str, Any]], fault: str | None, fru: str | None
) -> list[tuple[CausalDag, str, dict[str, Any]]]:
    """(DAG, root, chain) per fault root passing the filters.

    Ordered by ``(replica, cause_id)`` of the root.
    """
    chains = []
    for _, dag in sorted(causal_dags(records).items()):
        nodes = dag.nodes
        for walk in sorted(walk_faults(dag), key=lambda w: w.root):
            attrs = nodes[walk.root][3]
            if fault is not None and attrs.get("fault_id") != fault:
                continue
            if fru is not None:
                hit = attrs.get("fru") in (
                    fru,
                    f"component:{fru}",
                    f"job:{fru}",
                ) or any(
                    _matches_fru(nodes[cause_id][3], fru)
                    for cause_id in walk.members
                    if nodes[cause_id][0] == "maintenance"
                )
                if not hit:
                    continue
            chains.append((dag, walk.root, _chain(dag, walk)))
    return chains


def explain(
    records: list[dict[str, Any]],
    fault: str | None = None,
    fru: str | None = None,
) -> dict[str, Any]:
    """Machine-readable causal chains of a trace.

    ``fault`` filters to one injected fault id (``F0001``); ``fru``
    keeps chains whose root or maintenance leaf names the FRU (accepts
    both ``comp2`` and ``component:comp2``).
    """
    if not has_provenance(records):
        return {"provenance": False, "chains": []}
    chains = [chain for _, _, chain in _chains(records, fault, fru)]
    return {
        "provenance": True,
        "chains": chains,
        "monotonic": all(c["monotonic"] for c in chains),
    }


NO_PROVENANCE_MESSAGE = (
    "trace carries no provenance lineage (schema v1, or recorded without "
    "--provenance); re-run the workload with --provenance to get causal "
    "chains"
)


def render_explain(
    records: list[dict[str, Any]],
    fault: str | None = None,
    fru: str | None = None,
) -> str:
    """Human-readable causal chains (sim-time tree + stage deltas)."""
    if not has_provenance(records):
        return NO_PROVENANCE_MESSAGE
    chains = _chains(records, fault, fru)
    if not chains:
        scope = []
        if fault is not None:
            scope.append(f"fault {fault!r}")
        if fru is not None:
            scope.append(f"fru {fru!r}")
        suffix = f" matching {' and '.join(scope)}" if scope else ""
        return f"no causal chains{suffix} in this trace"
    lines: list[str] = []
    for dag, root, chain in chains:
        header = (
            f"{chain['fault_id']} {chain['mechanism']} on {chain['fru']} "
            f"[{chain['cls']}] -> {chain['terminal']}"
        )
        if chain["maintenance_actions"]:
            header += f" ({', '.join(chain['maintenance_actions'])})"
        if chain["replica"]:
            header += f"  (replica {chain['replica']})"
        lines.append(header)
        lines.extend(_render_tree(root, dag, indent="  ", parent_t=None))
        if chain["stage_latency_us"]:
            deltas = ", ".join(
                f"{stage} +{delta:,}us"
                for stage, delta in chain["stage_latency_us"].items()
            )
            lines.append(f"  stage latencies: {deltas}")
        if not chain["monotonic"]:
            lines.append("  WARNING: non-monotonic sim timestamps on a path")
        lines.append("")
    return "\n".join(lines).rstrip()


def _render_tree(
    key: str,
    dag: CausalDag,
    indent: str,
    parent_t: int | None,
    seen: set[str] | None = None,
) -> list[str]:
    node = dag.nodes.get(key)
    if node is None:
        return []
    if seen is None:
        seen = set()
    _, t_sim, name, attrs, _ = node
    stamp = "t=?" if t_sim is None else f"t={t_sim:,}us"
    if t_sim is not None and parent_t is not None:
        stamp += f" (+{max(0, t_sim - parent_t):,}us)"
    line = f"{indent}{name} {stamp}{_node_detail(attrs)}"
    if key in seen:
        return [f"{line}  (shown above)"]
    seen.add(key)
    lines = [line]
    kids = dag.children.get(key, ())
    for child_key in kids[:MAX_RENDER_CHILDREN]:
        lines.extend(
            _render_tree(child_key, dag, indent + "  ", t_sim, seen)
        )
    if len(kids) > MAX_RENDER_CHILDREN:
        lines.append(
            f"{indent}  ... {len(kids) - MAX_RENDER_CHILDREN} more children"
        )
    return lines


def _node_detail(attrs: Mapping[str, Any]) -> str:
    parts = []
    for field in ("type", "ona", "cls", "subject", "fru", "action"):
        value = attrs.get(field)
        if value is not None:
            parts.append(f"{field}={value}")
    return f"  [{' '.join(parts)}]" if parts else ""
