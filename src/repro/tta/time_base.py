"""Global sparse time base and action lattice.

The DECOS core services establish a fault-tolerant global time base of
known *precision*.  Significant events (sending of messages, observations)
are restricted to the lattice points of a *sparse* time base [Kopetz 1992]:
the timeline is partitioned into an alternating sequence of activity
intervals (of duration pi, the lattice granularity) and silence intervals.
Two events can then be consistently ordered system-wide whenever they fall
on different lattice points.

The diagnostic architecture exploits this: fault-induced state changes are
correlated *per lattice point*, which is what makes "approximately at the
same time (within a small delta)" (Fig. 8, massive-transient pattern) a
decidable predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class SparseTimeBase:
    """A sparse global time base with a fixed action-lattice granularity.

    Parameters
    ----------
    granularity_us:
        Duration pi of one lattice interval in microseconds.  Events within
        the same interval are considered simultaneous ("at the same lattice
        point").
    precision_us:
        Precision PI of the underlying clock synchronisation.  Must satisfy
        ``granularity_us > 2 * precision_us`` for the sparse ordering to be
        consistent (reasonableness condition).
    """

    granularity_us: int
    precision_us: int

    def __post_init__(self) -> None:
        if self.granularity_us <= 0:
            raise ConfigurationError(
                f"lattice granularity must be positive, got {self.granularity_us}"
            )
        if self.precision_us < 0:
            raise ConfigurationError(
                f"precision must be non-negative, got {self.precision_us}"
            )
        if self.granularity_us <= 2 * self.precision_us:
            raise ConfigurationError(
                "sparse time base requires granularity > 2 * precision "
                f"(got granularity={self.granularity_us}, "
                f"precision={self.precision_us})"
            )

    def lattice_point(self, time_us: int) -> int:
        """Index of the lattice interval containing ``time_us``."""
        return int(time_us) // self.granularity_us

    def simultaneous(self, t1_us: int, t2_us: int) -> bool:
        """True if both times fall on the same action-lattice point."""
        return self.lattice_point(t1_us) == self.lattice_point(t2_us)
