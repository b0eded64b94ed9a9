"""Causal provenance for the diagnostic pipeline (trace schema v2).

The paper's central claim is a *chain*: a physical fault manifests at the
linking interfaces as symptoms, Out-of-Norm Assertions encode them as
cluster-level patterns, alpha-counts discriminate transient from
permanent, trust levels drop per FRU, and Fig. 11 maps the assessed class
to a maintenance action.  This module makes that chain a first-class
artefact: each instrumented stage allocates a stable ``cause_id`` and
names its causal ``parents``, so an injected fault's full DAG —

    fault.injected -> detector.symptom -> dissemination.deliver
                   -> ona.trigger -> alpha.promotion -> trust.suspicious
                   -> maintenance.recommendation

— is recoverable from the trace file alone (``repro explain``,
:mod:`repro.obs.explain`).

Determinism: ids are per-prefix sequence numbers (``sym:1``, ``ona:2``)
allocated in simulation order, so the same seeded run always produces the
same lineage.  The tracker is plain dict state — the provenance-enabled
overhead budget (<10 % vs counters-only, ``bench_obs_overhead``) allows
lookups and appends on the hot path but no graph traversal; the graph is
built once per replica by :func:`causal_dags` and walked from each fault
root by :func:`walk_faults`, which every chain reader shares: the stage
fold, the whatif chain rows and ``repro explain``.

Ground-truth linking: the injector registers every fault against the
*subjects* it can manifest on (the FRU name, EMI-affected components, the
``loom-channel-N`` pseudo-subject for wiring faults).  A symptom's fault
parents are the registered faults on its subject component / job /
channel that were already active at the symptom's time — the same
attribution granularity the classifier is scored on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType
from typing import Any, NamedTuple

#: Causal stages in pipeline order; keys of the stage-latency breakdown.
STAGES = (
    "fault",
    "symptom",
    "dissemination",
    "ona",
    "alpha",
    "trust",
    "maintenance",
)

#: Trace record name -> causal stage.
STAGE_BY_NAME = {
    "fault.injected": "fault",
    "detector.symptom": "symptom",
    "dissemination.deliver": "dissemination",
    "ona.trigger": "ona",
    "alpha.promotion": "alpha",
    "trust.suspicious": "trust",
    "maintenance.recommendation": "maintenance",
}


class ProvenanceTracker:
    """Per-run lineage state shared by all instrumentation sites.

    One tracker lives on an :class:`repro.obs.Observability` context when
    provenance is enabled (``Observability(provenance=True)``); sites
    reach it as ``obs.provenance`` (None when off, so the default path
    stays a single attribute check).
    """

    #: Cap on parent lists — keeps v2 records bounded when a massive
    #: transient floods one subject with evidence.
    MAX_PARENTS = 16

    __slots__ = (
        "_seq",
        "_faults_by_subject",
        "_symptom_ids",
        "_symptom_parents",
        "_symptom_nodes",
        "_delivered",
        "_deliver_times",
        "_evidence",
        "_alpha_evidence",
    )

    def __init__(self) -> None:
        self._seq: dict[str, int] = {}
        # subject name -> [(activation_us, fault cause_id), ...]
        self._faults_by_subject: dict[str, list[tuple[int, str]]] = {}
        # Symptom.key() -> cause_id / parents (one DAG node per deviation,
        # shared by every observer that reports it — mirrors the
        # assessment's dedup).
        self._symptom_ids: dict[tuple, str] = {}
        self._symptom_parents: dict[tuple, tuple[str, ...]] = {}
        # cause_id -> (first time_us, fault parents): the fold-only fast
        # path reads symptom nodes from here instead of the causal log.
        self._symptom_nodes: dict[str, tuple[int, tuple[str, ...]]] = {}
        # Symptom cause_ids that already have a dissemination node.
        self._delivered: set[str] = set()
        # Symptom cause_id -> first delivery time (fold-only fast path).
        self._deliver_times: dict[str, int] = {}
        # FRU key ("component:comp2" / "job:A2") -> ordered evidence ids
        # feeding the verdict leaf (ONA triggers, promotions, trust drops).
        self._evidence: dict[str, dict[str, None]] = {}
        # FRU key -> symptom ids feeding that FRU's alpha-count.
        self._alpha_evidence: dict[str, dict[str, None]] = {}

    # -- id allocation -----------------------------------------------------

    def new_id(self, prefix: str) -> str:
        """Next deterministic id for ``prefix`` (``sym:1``, ``ona:2``...)."""
        n = self._seq.get(prefix, 0) + 1
        self._seq[prefix] = n
        return f"{prefix}:{n}"

    # -- ground-truth roots ------------------------------------------------

    def register_fault(
        self, fault_id: str, subjects: Iterable[str], activation_us: int
    ) -> str:
        """Register an injected fault as a provenance root.

        ``subjects`` are the names the fault can manifest on (component,
        job, or ``loom-channel-N``); symptoms on those subjects at or
        after ``activation_us`` acquire this fault as a parent.
        """
        cause_id = f"fault:{fault_id}"
        at = int(activation_us)
        for subject in subjects:
            if subject:
                self._faults_by_subject.setdefault(subject, []).append(
                    (at, cause_id)
                )
        return cause_id

    def fault_parents(
        self, subjects: Sequence[str | None], time_us: int
    ) -> tuple[str, ...]:
        """Fault roots active on any of ``subjects`` at ``time_us``."""
        parents: list[str] = []
        for subject in subjects:
            if subject is None:
                continue
            for activation_us, cause_id in self._faults_by_subject.get(
                subject, ()
            ):
                if activation_us <= time_us and cause_id not in parents:
                    parents.append(cause_id)
        return tuple(parents[: self.MAX_PARENTS])

    # -- symptoms ----------------------------------------------------------

    def symptom_node(self, symptom) -> tuple[str, tuple[str, ...]]:
        """The (id, fault parents) of a symptom's DAG node.

        Allocated once per :meth:`repro.core.symptoms.Symptom.key` — the
        same deviation seen by several observers is one node.
        """
        key = symptom.key()
        cause_id = self._symptom_ids.get(key)
        if cause_id is not None:
            return cause_id, self._symptom_parents[key]
        cause_id = self.new_id("sym")
        subjects: list[str | None] = [
            symptom.subject_component,
            symptom.subject_job,
        ]
        if symptom.channel is not None:
            subjects.append(f"loom-channel-{symptom.channel}")
        parents = self.fault_parents(subjects, symptom.time_us)
        self._symptom_ids[key] = cause_id
        self._symptom_parents[key] = parents
        self._symptom_nodes[cause_id] = (int(symptom.time_us), parents)
        return cause_id, parents

    def symptom_id(self, key: tuple) -> str | None:
        """The id of an already-seen symptom key, or None."""
        return self._symptom_ids.get(key)

    def deliver_node(self, key: tuple) -> tuple[str, tuple[str, ...]] | None:
        """The dissemination node for symptom ``key``, or None if seen.

        One lineage node per symptom, at its *first* delivery: the stage
        fold keeps only the earliest time per stage anyway (deliveries
        are recorded in simulation order), so later re-deliveries of the
        same deviation would add nodes without ever changing a latency —
        they are elided to keep the enabled-path cost inside the
        provenance overhead budget.
        """
        symptom_id = self._symptom_ids.get(key)
        if symptom_id is None:
            return self.new_id("dis"), ()
        if symptom_id in self._delivered:
            return None
        self._delivered.add(symptom_id)
        return self.new_id("dis"), (symptom_id,)

    def record_delivery(self, key: tuple, now_us: int) -> None:
        """Note symptom ``key``'s first delivery time (fold-only path).

        The cheap sibling of :meth:`deliver_node` for runs that retain no
        trace records: the stage fold synthesises the dissemination node
        from :attr:`_deliver_times` instead of a logged causal event.
        """
        symptom_id = self._symptom_ids.get(key)
        if symptom_id is not None and symptom_id not in self._deliver_times:
            self._deliver_times[symptom_id] = int(now_us)

    # -- ONA triggers ------------------------------------------------------

    def trigger_parents(self, trigger, window) -> tuple[str, ...]:
        """Symptom nodes an ONA trigger was concluded from.

        Matches window symptoms on the trigger's subject (component name,
        job name, or the wiring pseudo-subject ``loom-channel-N``) no
        later than the trigger time — the same evidence slice the ONA
        predicate read.
        """
        subject = trigger.subject.name
        channel: int | None = None
        if subject.startswith("loom-channel-"):
            try:
                channel = int(subject.rsplit("-", 1)[1])
            except ValueError:
                channel = None
        parents: list[str] = []
        t = trigger.time_us
        for s in window:
            if s.time_us > t:
                continue
            if (
                s.subject_component == subject
                or s.subject_job == subject
                or (channel is not None and s.channel == channel)
            ):
                cause_id = self._symptom_ids.get(s.key())
                if cause_id is not None and cause_id not in parents:
                    parents.append(cause_id)
                    if len(parents) >= self.MAX_PARENTS:
                        break
        return tuple(parents)

    # -- evidence ledgers --------------------------------------------------

    def add_evidence(self, fru: str, cause_id: str) -> None:
        """Record a lineage node as verdict evidence against ``fru``."""
        self._evidence.setdefault(fru, {})[cause_id] = None

    def evidence(self, fru: str) -> tuple[str, ...]:
        """Most recent verdict-evidence ids for ``fru`` (capped)."""
        ids = self._evidence.get(fru)
        if not ids:
            return ()
        return tuple(list(ids)[-self.MAX_PARENTS :])

    def add_alpha_evidence(self, fru: str, cause_id: str) -> None:
        """Record a symptom node as alpha-count input for ``fru``."""
        self._alpha_evidence.setdefault(fru, {})[cause_id] = None

    def alpha_evidence(self, fru: str) -> tuple[str, ...]:
        """Most recent alpha-count input ids for ``fru`` (capped)."""
        ids = self._alpha_evidence.get(fru)
        if not ids:
            return ()
        return tuple(list(ids)[-self.MAX_PARENTS :])


# -- the causal DAG and the walk from each fault root --------------------------

#: The attrs of a node synthesised from the tracker's ledgers.
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class CausalDag(NamedTuple):
    """One replica's cause-DAG, built by :func:`causal_dags`.

    Ids are unique per run only, so a node's identity is ``(replica,
    cause_id)``: one DAG per replica, its nodes keyed by ``cause_id``.
    ``nodes`` maps a ``cause_id`` to the tuple ``(stage, t_sim_us, name,
    attrs, parents)``: the node's earliest simulated time and its first
    record's name, attrs and parents.  ``children`` maps a ``cause_id``
    to its children's ids in record order; ``roots`` lists the ``fault``
    nodes in record order.
    """

    replica: int
    nodes: dict[str, tuple]
    children: dict[str, list[str]]
    roots: list[str]


class FaultWalk(NamedTuple):
    """What one injected fault's causal chain reached (:func:`walk_faults`)."""

    #: The ``cause_id`` of the ``fault`` node the walk started from.
    root: str
    #: Stages reached, in pipeline order; the first is always ``fault``.
    stages: tuple[str, ...]
    #: Earliest simulated time per stage, in pipeline order.  Stages
    #: without sim timestamps (the maintenance leaf is decided outside
    #: the simulation) count in ``stages`` but not here.
    earliest: dict[str, int]
    #: The ``cause_id`` of every node reachable from the root, the root
    #: included.
    members: set[str]

    @property
    def terminal(self) -> str:
        """The last stage the chain reached."""
        return self.stages[-1]

    def stage_latencies(self) -> dict[str, int]:
        """Raw sim-time deltas between consecutive timed stages.

        Keyed ``"a->b"`` in pipeline order.  A delta is negative when a
        later stage was reached before an earlier one; each reader
        decides what that means.
        """
        timed = list(self.earliest.items())
        return {
            f"{a}->{b}": t_b - t_a
            for (a, t_a), (b, t_b) in zip(timed, timed[1:])
        }


def causal_dags(
    records: Iterable[Any], tracker: ProvenanceTracker | None = None
) -> dict[int, CausalDag]:
    """The cause-DAG of each replica in ``records``, keyed by replica.

    ``records`` are trace line dicts (a replica's, or a whole campaign's
    tagged with ``replica``) or ``Tracer.causal_log`` tuples ``(name,
    t_sim_us, cause_id, parents, attrs)``, which belong to replica 0.
    Meta records, records without lineage and names outside
    :data:`STAGE_BY_NAME` are skipped.  A node re-reported later (a
    deviation seen by several observers shares one symptom node) keeps
    its earliest simulated time.

    ``tracker`` is the fold-only path of a replica that retains no trace
    records: its detector and dissemination hooks log nothing, so the
    symptom and dissemination nodes of replica 0 come from the tracker's
    ledgers.  Registration order is simulation order, so their stored
    times are already the earliest per node.
    """
    dags: dict[int, CausalDag] = {}
    dag = None
    stage_of = STAGE_BY_NAME.get
    for rec in records:
        if type(rec) is tuple:
            name, t_sim, cause_id, parents, attrs = rec
            replica = 0
        else:
            cause_id = rec.get("cause_id")
            if cause_id is None or rec.get("kind") == "meta":
                continue
            name = rec.get("name", "")
            t_sim = rec.get("t_sim_us")
            parents = rec.get("parents", ())
            attrs = rec.get("attrs", {})
            replica = rec.get("replica") or 0
        stage = stage_of(name)
        if stage is None:
            continue
        if dag is None or dag[0] != replica:
            dag = dags.setdefault(replica, CausalDag(replica, {}, {}, []))
            _, nodes, children, roots = dag
        node = nodes.get(cause_id)
        if node is None:
            nodes[cause_id] = (stage, t_sim, name, attrs, parents)
            for parent in parents:
                children.setdefault(parent, []).append(cause_id)
            if stage == "fault":
                roots.append(cause_id)
        elif t_sim is not None and (node[1] is None or t_sim < node[1]):
            nodes[cause_id] = (node[0], t_sim, *node[2:])

    if tracker is not None:
        _, nodes, children, _ = dags.setdefault(0, CausalDag(0, {}, {}, []))
        children_setdefault = children.setdefault
        for sym_id, (t_sim, parents) in tracker._symptom_nodes.items():
            if sym_id not in nodes:
                nodes[sym_id] = (
                    "symptom", t_sim, "detector.symptom", _NO_ATTRS, parents
                )
                for parent in parents:
                    children_setdefault(parent, []).append(sym_id)
        for sym_id, t_sim in tracker._deliver_times.items():
            dis_id = "dis@" + sym_id
            if dis_id not in nodes:
                nodes[dis_id] = (
                    "dissemination",
                    t_sim,
                    "dissemination.deliver",
                    _NO_ATTRS,
                    (sym_id,),
                )
                children_setdefault(sym_id, []).append(dis_id)
    return dags


def walk_faults(dag: CausalDag) -> Iterator[FaultWalk]:
    """Walk ``dag`` from each fault root, in root order.

    The one place that decides what a fault's chain is: every node
    reachable from the root through ``children``.  The stage fold, the
    whatif chain rows and ``repro explain`` all read it.
    """
    nodes = dag.nodes
    children_get = dag.children.get
    for root in dag.roots:
        reached: set[str] = set()
        earliest: dict[str, int] = {}
        seen = {root}
        frontier = [root]
        while frontier:
            cause_id = frontier.pop()
            node = nodes[cause_id]
            stage = node[0]
            reached.add(stage)
            t_sim = node[1]
            if t_sim is not None:
                prev = earliest.get(stage)
                if prev is None or t_sim < prev:
                    earliest[stage] = t_sim
            for child in children_get(cause_id, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        yield FaultWalk(
            root,
            tuple([s for s in STAGES if s in reached]),
            {s: earliest[s] for s in STAGES if s in earliest},
            seen,
        )


# -- campaign-scale aggregation ------------------------------------------------


def fold_stage_latencies(
    records: Iterable[Any], counters, tracker: ProvenanceTracker | None = None
) -> None:
    """Fold one replica's provenance DAG into its counter registry.

    Per injected-fault root (:func:`walk_faults`), observes the deltas
    between consecutive timed stages, clamped at 0, into
    ``provenance.stage_latency_us{cls=...,stage=a->b}`` histograms plus
    a ``provenance.chains{cls=...,terminal=<last stage>}`` coverage
    counter.  Histograms and counters are exact integer state, so the
    parallel runner's replica-index-ordered merge keeps ``workers=N``
    aggregates bit-identical to ``workers=1`` — this runs *inside* each
    replica, before its snapshot ships back.

    ``records`` and ``tracker`` are as for :func:`causal_dags`: the
    replica fold passes its ``Tracer.causal_log``, so the provenance
    overhead budget never pays for record materialisation, and the
    tracker when it keeps no trace records.
    """
    for dag in causal_dags(records, tracker).values():
        for walk in walk_faults(dag):
            cls = str(dag.nodes[walk.root][3].get("cls", "unknown"))
            for stage, delta in walk.stage_latencies().items():
                counters.observe(
                    "provenance.stage_latency_us",
                    max(0, delta),
                    cls=cls,
                    stage=stage,
                )
            counters.inc(
                "provenance.chains", cls=cls, terminal=walk.terminal
            )


def histogram_quantile(hist: Mapping[str, Any], q: float) -> float:
    """Approximate quantile of a power-of-two bucket histogram dict.

    Returns the upper edge of the bucket containing the ``q``-quantile
    sample (clamped into ``[min, max]``) — coarse (factor-of-two) but
    deterministic and merge-stable, which is what the campaign-scale
    stage-latency breakdown needs.
    """
    count = int(hist.get("count", 0))
    if count <= 0:
        return 0.0
    target = q * count
    cumulative = 0
    for bucket, n in sorted(
        (int(b), int(n)) for b, n in hist.get("buckets", {}).items()
    ):
        cumulative += n
        if cumulative >= target:
            upper = 1.0 if bucket == 0 else float(2**bucket)
            lo = float(hist["min"]) if hist.get("min") is not None else 0.0
            hi = float(hist["max"]) if hist.get("max") is not None else upper
            return max(lo, min(upper, hi))
    return float(hist.get("max") or 0.0)
