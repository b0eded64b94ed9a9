"""Deterministic per-module call budget of the campaign replica hot path.

``benchmarks/call_counts.py`` counts the calls into ``repro`` per TDMA
slot, module by module, on a fixed campaign (replicas 0-7 of root seed
4321 at 300 ms, one warm-up pass, one counted pass).  This gate compares
them with ``tests/data/call_budget.json``.  Unlike the wall-clock gate in
``test_perf_gate.py`` it runs everywhere, because the counts do not
depend on the host.

It fails when the total or any module exceeds its budget by more than
max(1 %, 0.05 calls per slot), naming every module that rose, and on a
module the budget does not list.  A change that adds calls on purpose
updates the budget in the same commit::

    python benchmarks/call_counts.py --json > tests/data/call_budget.json

and says why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.call_counts import count_calls

BUDGET_PATH = Path(__file__).parent.parent / "data" / "call_budget.json"
RELATIVE_SLACK = 0.01
ABSOLUTE_SLACK = 0.05


def _allowed(budget: float) -> float:
    return budget + max(RELATIVE_SLACK * budget, ABSOLUTE_SLACK)


def test_calls_per_slot_within_budget():
    budget = json.loads(BUDGET_PATH.read_text(encoding="utf-8"))
    counts = count_calls()
    assert counts.slots == budget["slots"]
    rose = []
    for module, value in sorted(counts.per_slot().items()):
        limit = budget["per_slot"].get(module)
        if limit is None:
            rose.append(f"{module}: {value:.3f} per slot, missing from the budget")
        elif value > _allowed(limit):
            rose.append(f"{module}: {value:.3f} per slot, budget {limit:.3f}")
    total = counts.total / counts.slots
    if total > _allowed(budget["total_per_slot"]):
        rose.append(f"total: {total:.3f} per slot, budget {budget['total_per_slot']:.3f}")
    assert not rose, (
        "calls into repro per slot above the budget:\n  "
        + "\n  ".join(rose)
        + "\n\n"
        + counts.table()
    )
