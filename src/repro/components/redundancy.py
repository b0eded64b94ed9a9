"""Redundancy management — TMR voting (high-level service, §II-B, §V-C).

Triple Modular Redundancy replicates an identical job on three different
components so that single hardware faults are tolerated (a component is the
FCR for hardware faults, so the three replicas fail independently).  The
voter masks a single deviating replica and — crucially for the diagnostic
architecture — *reports* every deviation: "the spatial dimension of an ONA
covering deviations in the services of the three replicas spreads across
components 1, 2 and 3" (§V-C).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class VoteResult:
    """Outcome of one majority vote over replica values.

    Attributes
    ----------
    value:
        The voted value, or None when no majority exists.
    agreeing:
        Names of the replicas in the majority.
    deviating:
        Replicas that delivered a value outside the agreement tolerance.
    missing:
        Replicas that delivered nothing this round (omission).
    """

    value: float | None
    agreeing: tuple[str, ...]
    deviating: tuple[str, ...]
    missing: tuple[str, ...]

    @property
    def masked_failure(self) -> bool:
        """True when the vote succeeded despite a deviating/missing replica."""
        return self.value is not None and (bool(self.deviating) or bool(self.missing))


class TmrVoter:
    """Majority voter over a fixed replica set with a value tolerance.

    Parameters
    ----------
    replicas:
        Names of the replica jobs (conventionally three, but any odd count
        >= 3 works).
    tolerance:
        Two replica values agree when ``|a - b| <= tolerance`` (exact
        agreement for 0.0).
    """

    def __init__(self, replicas: tuple[str, ...], tolerance: float = 1e-9) -> None:
        if len(replicas) < 3:
            raise ConfigurationError(
                f"TMR needs at least 3 replicas, got {len(replicas)}"
            )
        if len(set(replicas)) != len(replicas):
            raise ConfigurationError("replica names must be unique")
        if tolerance < 0:
            raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
        self.replicas = tuple(replicas)
        self.tolerance = float(tolerance)
        self.votes = 0
        self.masked = 0
        self.no_majority = 0
        self.deviation_counts: Counter[str] = Counter()

    def vote(self, values: dict[str, float]) -> VoteResult:
        """Vote over this round's replica outputs.

        ``values`` maps replica name to its delivered value; omissions are
        simply absent keys.
        """
        self.votes += 1
        missing = tuple(r for r in self.replicas if r not in values)
        present = [(r, float(values[r])) for r in self.replicas if r in values]

        # Group present replicas into agreement clusters (transitive within
        # tolerance around a pivot; adequate for the small replica sets and
        # clearly-separated failure values simulated here).
        clusters: list[list[tuple[str, float]]] = []
        for name, value in present:
            placed = False
            for cluster in clusters:
                pivot = cluster[0][1]
                if math.isclose(value, pivot, abs_tol=self.tolerance) or (
                    abs(value - pivot) <= self.tolerance
                ):
                    cluster.append((name, value))
                    placed = True
                    break
            if not placed:
                clusters.append([(name, value)])

        majority_size = len(self.replicas) // 2 + 1
        clusters.sort(key=len, reverse=True)
        if clusters and len(clusters[0]) >= majority_size:
            winner = clusters[0]
            agreeing = tuple(name for name, _ in winner)
            deviating = tuple(
                name for name, _ in present if name not in agreeing
            )
            voted = float(
                sum(v for _, v in winner) / len(winner)
            )
            result = VoteResult(voted, agreeing, deviating, missing)
        else:
            self.no_majority += 1
            result = VoteResult(
                None,
                (),
                tuple(name for name, _ in present),
                missing,
            )
        for name in result.deviating:
            self.deviation_counts[name] += 1
        for name in result.missing:
            self.deviation_counts[name] += 1
        if result.masked_failure:
            self.masked += 1
        return result

    def suspected_replica(self, min_count: int = 3) -> str | None:
        """The replica most often deviating, if it crossed ``min_count``."""
        if not self.deviation_counts:
            return None
        name, count = self.deviation_counts.most_common(1)[0]
        return name if count >= min_count else None
