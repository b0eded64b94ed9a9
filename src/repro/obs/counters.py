"""Counter / histogram registry with deterministic cross-process merge.

Counters are flat named monotone sums (``sim.events``,
``detector.symptoms``); optional labels are folded into the key in a
canonical sorted form (``ona.triggers{cls=component-internal,ona=wearout}``)
so snapshots stay plain ``dict[str, number]`` and merge commutatively.

Histograms record simulated-time distributions (dissemination latency in
slots, diagnosis latency in lattice points) as count/sum/min/max plus
power-of-two buckets — exact integer state, so merging snapshots in
replica-index order through the parallel runner's reduce is bit-identical
to a serial run, which the acceptance test asserts.

Everything in a snapshot must derive from *simulated* quantities.  Wall
time belongs to the tracer/profiler; keeping it out of the registry is
what makes ``workers=1`` and ``workers=4`` aggregates comparable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Any

#: Snapshot layout version (bumped together with the trace schema).
COUNTERS_SCHEMA_VERSION = 1


def counter_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Canonical registry key for ``name`` plus optional labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """The inverse of :func:`counter_key`: ``(name, labels)``, with the
    label values as text; a key without labels gives ``(key, {})``."""
    name, brace, inner = key.partition("{")
    if not brace or not inner.endswith("}"):
        return key, {}
    items = (item.partition("=") for item in inner[:-1].split(","))
    return name, {k: v for k, eq, v in items if eq}


def bucket_of(value: float) -> int:
    """Power-of-two bucket index of a non-negative value.

    Bucket ``b`` covers ``[2**(b-1), 2**b)`` for ``b >= 1``; bucket 0
    covers ``[0, 1)``.  Exact for the integer slot/point latencies the
    registry records, and platform-stable for floats via ``math.frexp``.
    """
    if value < 1.0:
        return 0
    _mantissa, exponent = math.frexp(value)
    return exponent


class Histogram:
    """Exact mergeable summary of one distribution."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        b = bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        hist = cls()
        hist.count = int(data["count"])
        hist.total = float(data["sum"])
        hist.min = None if data["min"] is None else float(data["min"])
        hist.max = None if data["max"] is None else float(data["max"])
        hist.buckets = {int(b): int(n) for b, n in data["buckets"].items()}
        return hist

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n


class CounterRegistry:
    """Named counters and histograms; snapshot/merge for the reduce path."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter (created at 0)."""
        key = counter_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Feed one sample into a histogram (created empty)."""
        key = counter_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # -- reading ----------------------------------------------------------

    def get(self, name: str, **labels: Any) -> float:
        return self._counters.get(counter_key(name, labels), 0)

    def histogram(self, name: str, **labels: Any) -> Histogram | None:
        return self._histograms.get(counter_key(name, labels))

    def counters(self, prefix: str = "") -> dict[str, float]:
        """All counters, optionally filtered to a key prefix."""
        return {
            key: value
            for key, value in sorted(self._counters.items())
            if key.startswith(prefix)
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- snapshot / merge -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-data form; picklable, JSON-safe, deterministic order."""
        return {
            "schema": COUNTERS_SCHEMA_VERSION,
            "counters": {
                key: self._counters[key] for key in sorted(self._counters)
            },
            "histograms": {
                key: self._histograms[key].to_dict()
                for key in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold one snapshot into this registry (commutative sums)."""
        for key, value in snapshot.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, data in snapshot.get("histograms", {}).items():
            hist = self._histograms.get(key)
            incoming = Histogram.from_dict(data)
            if hist is None:
                self._histograms[key] = incoming
            else:
                hist.merge(incoming)

    @classmethod
    def merged(
        cls, snapshots: Iterable[Mapping[str, Any]]
    ) -> dict[str, Any]:
        """Merge snapshots (in the given order) into one snapshot.

        The merge is a sum, hence order-insensitive for integer state;
        callers on the parallel-reduce path still pass snapshots in
        replica-index order so float sums are reproduced exactly.
        """
        registry = cls()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry.snapshot()

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
