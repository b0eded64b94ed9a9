"""Campaign result store + offline query layer.

Durable, versioned storage for campaign results — per-replica verdict
rows, the injected plan, per-FRU diagnostic finals, each replica's
observability counters, histograms and trace records — partitioned by
campaign id and plan digest (``--store DIR`` on ``mc`` / ``fleet`` /
``campaign``) and queried by ``repro query`` without ever instantiating
the simulator.

One line format (:mod:`repro.storage.ledger`) holds results on disk: a
run appends chunk lines of the declared tables
(:mod:`repro.storage.schema`, encoded and decoded by
:mod:`repro.storage.codec`) to its ledger, and a store part is that
ledger, closed.  See ``docs/storage.md`` for the layout, the schema and
a query cookbook.
"""

from __future__ import annotations

from repro.storage.ledger import LEDGER_VERSION
from repro.storage.schema import TABLES
from repro.storage.store import CampaignStore, StorePart
from repro.storage.writer import write_run

__all__ = [
    "LEDGER_VERSION",
    "TABLES",
    "CampaignStore",
    "StorePart",
    "write_run",
]
