"""Deterministic per-module call counts of the campaign replica hot path.

Runs replicas 0-7 of root seed 4321 at a 300 ms horizon (the
``mc_short`` configuration, 301 TDMA slots each) through
``run_campaign_replica``.  One uncounted warm-up pass fills the one-time
caches (a cold pass counts about a hundred more calls), then one pass runs
under cProfile.  ``repro.obs.profiler`` folds the profile, the same fold
that ``python -m repro --profile`` prints: every call into a function
whose file lies inside the imported ``repro`` package is counted and
booked to its module; comprehensions (``<listcomp>``, ``<dictcomp>``,
``<setcomp>``) are left out, because CPython 3.12 inlines them (PEP 709).
The counts are divided by the number of slots simulated (the calls of
``Cluster._on_slot``).

Unlike timings, the counts do not drift with the host: they are
identical across runs and processes.  ``tests/perf/test_call_budget.py``
compares them with the budget in ``tests/data/call_budget.json``.

Usage, from the repository root::

    python benchmarks/call_counts.py [--src DIR] [--json]

``--src`` names the ``src/`` directory to import (default: this
checkout's), so the counts of another commit come from its ``src/``
extracted with ``git archive``.  The fold is imported from that tree, so
``--src`` counts only trees that have ``repro.obs.profiler.profile_call``;
an older tree is counted by the ``call_counts.py`` of its own commit.
``--json`` prints the counts in the budget file's format instead of the
table.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REPLICAS = 8
ROOT_SEED = 4321
HORIZON_MS = 300


@dataclass(frozen=True)
class CallCounts:
    """Calls into ``repro`` per module over one counted pass."""

    slots: int
    calls: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def per_slot(self) -> dict[str, float]:
        return {module: n / self.slots for module, n in self.calls.items()}

    def budget(self) -> dict:
        """The counts in the format of ``tests/data/call_budget.json``."""
        return {
            "workload": {
                "replicas": REPLICAS,
                "root_seed": ROOT_SEED,
                "horizon_ms": HORIZON_MS,
            },
            "slots": self.slots,
            "total_per_slot": round(self.total / self.slots, 3),
            "per_slot": {
                module: round(value, 3)
                for module, value in sorted(self.per_slot().items())
            },
        }

    def table(self) -> str:
        rows = sorted(self.calls.items(), key=lambda item: (-item[1], item[0]))
        width = max(len("total"), *(len(module) for module in self.calls))
        lines = [
            f"calls into repro per TDMA slot: replicas 0-{REPLICAS - 1} of "
            f"root seed {ROOT_SEED}, {HORIZON_MS} ms, {self.slots} slots",
            f"  {'module':<{width}} {'calls':>9} {'per slot':>9}",
        ]
        for module, n in rows:
            lines.append(f"  {module:<{width}} {n:>9} {n / self.slots:>9.2f}")
        lines.append(
            f"  {'total':<{width}} {self.total:>9} "
            f"{self.total / self.slots:>9.2f}"
        )
        return "\n".join(lines)


def count_calls() -> CallCounts:
    """Count the calls of one warmed-up pass over the budget replicas."""
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.obs.profiler import profile_call
    from repro.runtime.runner import ReplicaTask
    from repro.runtime.workloads import run_campaign_replica
    from repro.units import ms

    spec = CampaignReplicaSpec(horizon_us=ms(HORIZON_MS))
    tasks = [ReplicaTask(i, ROOT_SEED, spec) for i in range(REPLICAS)]

    def one_pass() -> None:
        for task in tasks:
            run_campaign_replica(task)

    one_pass()
    _, profile = profile_call(one_pass)
    slots = profile.functions.get(("components.cluster", "_on_slot"), 0)
    if not slots:
        raise RuntimeError("no Cluster._on_slot calls were counted")
    return CallCounts(slots, profile.module_calls())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="the src/ directory whose repro package is counted",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the budget file format"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    counts = count_calls()
    if args.json:
        print(json.dumps(counts.budget(), indent=2))
    else:
        print(counts.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
