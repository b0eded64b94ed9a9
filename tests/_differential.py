"""Shared helpers of the differential batteries.

Two batteries promise exactness against a reference execution —
store-vs-reduce (``tests/storage/test_store_differential.py``) and
replay-vs-fresh (``tests/replay/``).  They share one comparison idiom:

* **wall-free outcomes** — raw trace records carry ``t_wall_s`` stamps
  that differ between ANY two runs, so per-replica comparisons collapse
  ``obs_trace`` to its canonical :func:`~repro.obs.trace_digest`;
* **a fixed fuzz corpus** — every hypothesis block is
  ``derandomize=True`` over the same strategy space, so CI replays the
  identical campaigns every run.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro.faults.campaign import CampaignReplicaSpec
from repro.obs import trace_digest
from repro.runtime.workloads import run_random_campaigns
from repro.units import ms

#: Everything on: the most divergence-prone spec (trace + provenance).
FULL_OBS_SPEC = CampaignReplicaSpec(
    expected_faults=3.0,
    horizon_us=ms(300),
    obs_enabled=True,
    obs_trace=True,
    obs_provenance=True,
)

#: Counters and provenance histograms, but no trace stream — the store
#: battery's default (its queries aggregate counters; trace records
#: round-trip through the store too, see the replay fuzz over store
#: baselines).
PROVENANCE_SPEC = CampaignReplicaSpec(
    expected_faults=3.0,
    horizon_us=ms(300),
    obs_enabled=True,
    obs_provenance=True,
)

#: The shared derandomized fuzz strategy space.
FUZZ_SEED = st.integers(min_value=0, max_value=2**16)
FUZZ_CHUNK = st.sampled_from((1, 3, 8))
FUZZ_EXPECTED_FAULTS = st.sampled_from((1.5, 3.0, 5.0))


def fuzz_spec(
    expected_faults: float, obs: bool, *, trace: bool = False
) -> CampaignReplicaSpec:
    """The fuzz corpus' campaign spec at one (load, obs) sample point."""
    return CampaignReplicaSpec(
        expected_faults=expected_faults,
        horizon_us=ms(250),
        obs_enabled=obs,
        obs_trace=obs and trace,
        obs_provenance=obs,
    )


def wall_free(outcome):
    """Per-replica outcomes with the trace collapsed to its digest."""
    return [
        replace(r.value, obs_trace=trace_digest(r.value.obs_trace))
        for r in outcome.results
    ]


def run_campaign(
    *,
    replicas=6,
    seed=11,
    chunk=2,
    workers=1,
    spec=FULL_OBS_SPEC,
    **kwargs,
):
    """One campaign through the parallel runner, battery defaults."""
    return run_random_campaigns(
        replicas,
        root_seed=seed,
        spec=spec,
        workers=workers,
        chunk_size=chunk,
        **kwargs,
    )
