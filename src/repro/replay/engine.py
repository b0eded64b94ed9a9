"""The counterfactual replay engine: affected sets, splice, diff.

Given a :class:`~repro.replay.baseline.CampaignBaseline` and a rewrite
(suppress fault events and/or disable ONA classes), the engine:

1. computes the **affected set** — the replicas whose recorded outputs
   are downstream of the suppressed cause (see
   :func:`affected_replicas`);
2. re-executes exactly those replicas through
   :func:`~repro.runtime.workloads.run_random_campaigns` with the
   rewritten spec, **splicing** every other replica's stored result into
   the reduce via the runner's ``preloaded`` mechanism — the runner's
   fresh-only metrics (``events_simulated``, ``replicas_resumed``) are
   the proof that nothing else ran;
3. diffs baseline vs counterfactual outcomes into per-replica
   :class:`ReplicaFlip` records and campaign-level deltas.

Affected-set soundness
----------------------
``--without-fault``: a replica's entire simulation is a pure function of
its sampled plan (the sampler consumes identical RNG draws either way,
see :mod:`repro.faults.suppress`), so a replica whose recorded plan
contains no matching event is *provably* byte-identical under the
rewrite — plan membership is the exact DAG-root projection.

``--without-ona``: disabling an assertion that never fired cannot change
a replica's verdicts, counters or provenance; the per-replica
``ona.triggers{ona=...}`` counters (checkpoint baselines with
observability on) therefore give the exact affected set.  Two widenings:
a baseline recorded with full tracing re-runs every replica (per-epoch
ONA evaluation spans appear in each trace, so every replica's trace
bytes change), and a baseline with no observability at all falls back to
re-running everything (``conservative`` is flagged on the result).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.ona import onas_without
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    CampaignReplicaOutcome,
    CampaignSummary,
    mechanism_counts,
    summarize_campaign,
)
from repro.faults.suppress import matching_events, parse_selectors
from repro.obs.counters import split_key
from repro.replay.baseline import CampaignBaseline
from repro.runtime.metrics import RunMetrics
from repro.runtime.runner import RunOptions


@dataclass(frozen=True, slots=True)
class ReplicaFlip:
    """How one re-executed replica's diagnosis changed."""

    replica: int
    faults_injected_delta: int
    faults_attributed_delta: int
    verdicts_delta: int
    events_delta: int
    #: Per-mechanism attributed-count deltas (non-zero entries only).
    attributed_delta: tuple[tuple[str, int], ...]
    #: FRUs whose final alpha-count / trust level moved.
    alpha_moved: tuple[str, ...]
    trust_moved: tuple[str, ...]

    @property
    def changed(self) -> bool:
        return bool(
            self.faults_injected_delta
            or self.faults_attributed_delta
            or self.verdicts_delta
            or self.attributed_delta
            or self.alpha_moved
            or self.trust_moved
        )


@dataclass(frozen=True, slots=True)
class WhatifResult:
    """One counterfactual replay: baseline vs rewritten campaign."""

    baseline: CampaignBaseline
    suppress_faults: tuple[str, ...]
    disable_onas: tuple[str, ...]
    baseline_summary: CampaignSummary
    counterfactual_summary: CampaignSummary
    affected: tuple[int, ...]
    spliced: tuple[int, ...]
    #: How the affected set was derived: "plan" (exact DAG-root
    #: projection), "counters" (exact per-replica ONA firings), "trace"
    #: (full tracing — every replica's trace changes), or
    #: "conservative" (no observability — re-run everything).
    affected_by: str
    flips: tuple[ReplicaFlip, ...]
    metrics: RunMetrics

    @property
    def conservative(self) -> bool:
        return self.affected_by == "conservative"

    @property
    def baseline_events(self) -> int:
        """Simulated events of the full baseline run."""
        return self.baseline_summary.events_simulated

    @property
    def replayed_events(self) -> int:
        """Fresh simulated events of the splice-replay (metrics proof)."""
        return self.metrics.events_simulated

    @staticmethod
    def _nff(summary: CampaignSummary) -> float:
        if summary.faults_injected == 0:
            return 0.0
        return (
            summary.faults_injected - summary.faults_attributed
        ) / summary.faults_injected

    @property
    def nff_delta(self) -> float:
        return self._nff(self.counterfactual_summary) - self._nff(
            self.baseline_summary
        )

    @property
    def accuracy_delta(self) -> float:
        return (
            self.counterfactual_summary.attribution_accuracy
            - self.baseline_summary.attribution_accuracy
        )

    @property
    def total_flips(self) -> int:
        """Total per-mechanism attributed-count movement (|deltas|)."""
        return sum(
            abs(delta)
            for flip in self.flips
            for _mechanism, delta in flip.attributed_delta
        )


def _ona_counter_fired(outcome: CampaignReplicaOutcome, name: str) -> bool:
    counters = (outcome.obs_counters or {}).get("counters", {})
    for key, value in counters.items():
        counter, labels = split_key(key)
        if value and counter == "ona.triggers" and labels.get("ona") == name:
            return True
    return False


def affected_replicas(
    baseline: CampaignBaseline,
    suppress_faults: tuple[str, ...] = (),
    disable_onas: tuple[str, ...] = (),
) -> tuple[tuple[int, ...], str]:
    """The replicas a rewrite can reach, and how that was determined.

    Returns ``(indices, affected_by)`` with ``affected_by`` one of
    ``"plan"``, ``"counters"``, ``"trace"``, ``"conservative"`` (see the
    module docstring for the soundness argument of each).  Fault and ONA
    rewrites combine as a union; the widest derivation wins the label.
    """
    if not suppress_faults and not disable_onas:
        raise ConfigurationError(
            "counterfactual rewrite is empty: give --without-fault "
            "and/or --without-ona"
        )
    parse_selectors(suppress_faults)  # validate the grammar up front
    onas_without(disable_onas)  # validate the class names up front
    affected: set[int] = set()
    affected_by = "plan"
    for index in range(baseline.replicas):
        outcome = baseline.outcome(index)
        if suppress_faults and matching_events(
            suppress_faults, index, outcome.plan_events
        ):
            affected.add(index)
    if disable_onas:
        spec = baseline.spec
        if spec.obs_trace:
            # Per-epoch ONA evaluation spans live in every replica's
            # trace: removing the assertion changes every trace byte
            # stream, so the identity contract forces a full re-run.
            affected = set(range(baseline.replicas))
            affected_by = "trace"
        elif spec.obs_enabled or spec.obs_provenance:
            affected_by = "counters"
            for index in range(baseline.replicas):
                outcome = baseline.outcome(index)
                if any(
                    _ona_counter_fired(outcome, name)
                    for name in disable_onas
                ):
                    affected.add(index)
        else:
            affected = set(range(baseline.replicas))
            affected_by = "conservative"
    return tuple(sorted(affected)), affected_by


def _diff_state(
    base: tuple[tuple[str, float], ...],
    counter: tuple[tuple[str, float], ...],
) -> tuple[str, ...]:
    before = dict(base)
    after = dict(counter)
    return tuple(
        sorted(
            fru
            for fru in set(before) | set(after)
            if before.get(fru) != after.get(fru)
        )
    )


def _flip(
    base: CampaignReplicaOutcome, counter: CampaignReplicaOutcome
) -> ReplicaFlip:
    base_att = mechanism_counts([base])[1]
    cf_att = mechanism_counts([counter])[1]
    attributed_delta = tuple(
        (mechanism, cf_att.get(mechanism, 0) - base_att.get(mechanism, 0))
        for mechanism in sorted(set(base_att) | set(cf_att))
        if cf_att.get(mechanism, 0) != base_att.get(mechanism, 0)
    )
    return ReplicaFlip(
        replica=base.index,
        faults_injected_delta=counter.faults_injected - base.faults_injected,
        faults_attributed_delta=(
            counter.faults_attributed - base.faults_attributed
        ),
        verdicts_delta=counter.verdicts_emitted - base.verdicts_emitted,
        events_delta=counter.events_simulated - base.events_simulated,
        attributed_delta=attributed_delta,
        alpha_moved=_diff_state(base.alpha_state, counter.alpha_state),
        trust_moved=_diff_state(base.trust_state, counter.trust_state),
    )


def whatif(
    baseline: CampaignBaseline,
    *,
    suppress_faults: tuple[str, ...] = (),
    disable_onas: tuple[str, ...] = (),
    workers: int = 1,
) -> WhatifResult:
    """Replay the baseline with the rewrite applied; diff the campaigns.

    Only DAG-affected replicas are re-executed (from their recorded seed
    streams, so the counterfactual is exact, not resampled); every other
    replica is spliced from the baseline.  The returned summary is
    bit-identical to a fresh full run of the rewritten spec — the
    contract ``tests/replay/`` enforces across worker counts.
    """
    from repro.runtime.workloads import run_random_campaigns

    suppress_faults = tuple(suppress_faults)
    disable_onas = tuple(disable_onas)
    affected, affected_by = affected_replicas(
        baseline, suppress_faults, disable_onas
    )
    affected_set = set(affected)
    spliced = tuple(
        i for i in range(baseline.replicas) if i not in affected_set
    )
    counterfactual_spec = replace(
        baseline.spec,
        suppress_faults=tuple(
            dict.fromkeys(baseline.spec.suppress_faults + suppress_faults)
        ),
        disable_onas=tuple(
            dict.fromkeys(baseline.spec.disable_onas + disable_onas)
        ),
    )
    outcome = run_random_campaigns(
        baseline.replicas,
        root_seed=baseline.root_seed,
        spec=counterfactual_spec,
        options=RunOptions(workers=workers),
        preloaded={i: baseline.results[i] for i in spliced},
    )
    by_index = {r.index: r.value for r in outcome.results}
    flips = tuple(
        _flip(baseline.outcome(i), by_index[i]) for i in affected
    )
    return WhatifResult(
        baseline=baseline,
        suppress_faults=suppress_faults,
        disable_onas=disable_onas,
        baseline_summary=summarize_campaign(baseline.outcomes()),
        counterfactual_summary=outcome.value,
        affected=affected,
        spliced=spliced,
        affected_by=affected_by,
        flips=flips,
        metrics=outcome.metrics,
    )


# -- scan: rank causes by marginal diagnostic value ---------------------------


@dataclass(frozen=True, slots=True)
class ScanEntry:
    """Marginal diagnostic value of removing one cause."""

    kind: str  # "fault" | "ona"
    label: str  # suppression selector / ONA class name
    affected: int
    accuracy_delta: float
    nff_delta: float
    verdicts_delta: int
    flips: int
    replayed_events: int


@dataclass(frozen=True, slots=True)
class ScanResult:
    """A full sweep: one :class:`ScanEntry` per removable cause."""

    baseline: CampaignBaseline
    mode: str  # "faults" | "onas"
    baseline_summary: CampaignSummary
    #: Ranked by |accuracy delta| then |NFF delta| (most valuable first).
    entries: tuple[ScanEntry, ...]


def _scan_entry(kind: str, label: str, result: WhatifResult) -> ScanEntry:
    return ScanEntry(
        kind=kind,
        label=label,
        affected=len(result.affected),
        accuracy_delta=result.accuracy_delta,
        nff_delta=result.nff_delta,
        verdicts_delta=(
            result.counterfactual_summary.verdicts_emitted
            - result.baseline_summary.verdicts_emitted
        ),
        flips=result.total_flips,
        replayed_events=result.replayed_events,
    )


def scan(
    baseline: CampaignBaseline,
    *,
    mode: str = "faults",
    workers: int = 1,
) -> ScanResult:
    """Sweep every removable cause, one counterfactual replay each.

    ``mode="faults"`` suppresses each recorded fault event individually
    (each replay touches exactly one replica, so a full fault scan costs
    about one baseline run in total); ``mode="onas"`` disables each ONA
    class of the standard battery in turn.  Entries are ranked by
    marginal diagnostic value: the attribution-accuracy drop (then the
    NFF movement) the campaign suffers without the cause.
    """
    if mode not in ("faults", "onas"):
        raise ConfigurationError(
            f"unknown scan mode {mode!r} (choose 'faults' or 'onas')"
        )
    entries: list[ScanEntry] = []
    if mode == "faults":
        for index in range(baseline.replicas):
            for mechanism, target, at_us in baseline.outcome(
                index
            ).plan_events:
                selector = f"r{index}:{mechanism}@{target}@{at_us}"
                result = whatif(
                    baseline,
                    suppress_faults=(selector,),
                    workers=workers,
                )
                entries.append(_scan_entry("fault", selector, result))
    else:
        from repro.core.ona import ona_names

        for name in ona_names():
            result = whatif(
                baseline,
                disable_onas=(name,),
                workers=workers,
            )
            entries.append(_scan_entry("ona", name, result))
    entries.sort(
        key=lambda e: (
            -abs(e.accuracy_delta),
            -abs(e.nff_delta),
            -e.flips,
            e.label,
        )
    )
    return ScanResult(
        baseline=baseline,
        mode=mode,
        baseline_summary=summarize_campaign(baseline.outcomes()),
        entries=tuple(entries),
    )
