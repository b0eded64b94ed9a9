"""Columnar campaign result store + offline query layer.

Durable, versioned, column-shaped storage for campaign results —
per-replica verdict rows, the injected plan, per-FRU diagnostic finals,
each replica's observability counters, histograms and trace records —
partitioned by campaign id and plan digest, written straight from the
parallel runner's index-ordered reduce (``--store DIR`` on ``mc`` /
``fleet`` / ``campaign``) and queried by ``repro query`` without ever
instantiating the simulator.  The declared tables
(:mod:`repro.storage.schema`) and their codec
(:mod:`repro.storage.codec`) are also the checkpoint ledger's chunk
format.

Formats: Parquet via pyarrow when available, with a pure-Python
columnar-JSON fallback holding identical logical content.  See
``docs/storage.md`` for the schema, partitioning and a query cookbook.
"""

from __future__ import annotations

from repro.storage.backend import parquet_available, resolve_format
from repro.storage.schema import STORE_SCHEMA_VERSION, TABLES
from repro.storage.store import CampaignStore, StorePart
from repro.storage.writer import write_run

__all__ = [
    "STORE_SCHEMA_VERSION",
    "TABLES",
    "CampaignStore",
    "StorePart",
    "parquet_available",
    "resolve_format",
    "write_run",
]
