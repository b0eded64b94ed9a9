"""Trust levels — the diagnostic DAS's output per FRU (§II-D, Fig. 9).

"The diagnostic DAS outputs a trust level for each component, that acts as
the basis for the decision of the maintenance engineer on the question
whether a FRU should be replaced or remain in the system."

A trust level lives in [0, 1]; 1 means full conformance with the FRU
specification.  Evidence against the FRU (failed assessment epochs)
multiplies the trust down proportionally to the evidence weight; epochs of
conforming service let it recover slowly.  The whole trajectory is
recorded so the Fig. 9 bench can print the assessment arrows A and B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs import state as _obs


@dataclass(slots=True)
class TrustLevel:
    """Trust in one FRU over assessment epochs.

    Parameters
    ----------
    demerit:
        Trust multiplier per unit of evidence weight (0 < demerit < 1);
        a weight-1 violation epoch multiplies trust by this factor.
    recovery:
        Per-conforming-epoch recovery towards 1.0 (additive fraction of
        the remaining headroom).
    floor:
        Lower bound (keeps the level strictly positive so recovery remains
        possible).
    """

    demerit: float = 0.7
    recovery: float = 0.02
    floor: float = 0.01
    value: float = 1.0
    epochs: int = 0
    trajectory: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 < self.demerit < 1.0:
            raise ConfigurationError(
                f"demerit must be in (0,1), got {self.demerit}"
            )
        if not 0.0 <= self.recovery < 1.0:
            raise ConfigurationError(
                f"recovery must be in [0,1), got {self.recovery}"
            )
        if not 0.0 < self.floor < 1.0:
            raise ConfigurationError(f"floor must be in (0,1), got {self.floor}")

    def update(self, evidence_weight: float, now_us: int) -> float:
        """Fold one epoch of evidence into the trust level.

        ``evidence_weight`` is >= 0: 0 for a fully conforming epoch,
        larger values for stronger specification-violation evidence.
        """
        if evidence_weight < 0:
            raise ConfigurationError(
                f"evidence_weight must be >= 0, got {evidence_weight}"
            )
        self.epochs += 1
        if evidence_weight > 0.0:
            self.value = max(
                self.floor, self.value * self.demerit**evidence_weight
            )
        else:
            self.value = min(1.0, self.value + self.recovery * (1.0 - self.value))
        self.trajectory.append((int(now_us), self.value))
        return self.value

    @property
    def suspicious(self) -> bool:
        """Heuristic flag the maintenance engineer would act on."""
        return self.value < 0.5

    def reset(self) -> None:
        """After a repair/replacement the new FRU starts fully trusted."""
        self.value = 1.0


class TrustBank:
    """Trust levels for all FRUs of a cluster."""

    def __init__(
        self, demerit: float = 0.7, recovery: float = 0.02, floor: float = 0.01
    ) -> None:
        TrustLevel(demerit=demerit, recovery=recovery, floor=floor)  # validate
        self._params = (demerit, recovery, floor)
        self._levels: dict[str, TrustLevel] = {}

    def level(self, fru: str) -> TrustLevel:
        lvl = self._levels.get(fru)
        if lvl is None:
            demerit, recovery, floor = self._params
            lvl = TrustLevel(demerit=demerit, recovery=recovery, floor=floor)
            self._levels[fru] = lvl
        return lvl

    def update(self, fru: str, evidence_weight: float, now_us: int) -> float:
        lvl = self.level(fru)
        was_suspicious = lvl.suspicious
        value = lvl.update(evidence_weight, now_us)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.counters.inc("trust.updates")
            if evidence_weight > 0.0:
                obs.counters.inc("trust.demerits")
            if lvl.suspicious and not was_suspicious:
                obs.counters.inc("trust.suspicious_transitions")
                prov = obs.provenance
                if prov is None:
                    obs.tracer.event(
                        "trust.suspicious",
                        t_sim_us=now_us,
                        fru=fru,
                        value=value,
                    )
                else:
                    cause_id = prov.new_id("trust")
                    parents = prov.evidence(fru)
                    prov.add_evidence(fru, cause_id)
                    obs.tracer.causal_event(
                        "trust.suspicious",
                        now_us,
                        cause_id,
                        parents,
                        fru=fru,
                        value=value,
                    )
        return value

    def values(self) -> dict[str, float]:
        return {name: lvl.value for name, lvl in self._levels.items()}

    def suspicious(self) -> list[str]:
        """FRUs below the decision threshold, most distrusted first."""
        flagged = [
            (name, lvl.value)
            for name, lvl in self._levels.items()
            if lvl.suspicious
        ]
        flagged.sort(key=lambda item: item[1])
        return [name for name, _ in flagged]

    def trajectory(self, fru: str) -> list[tuple[int, float]]:
        return list(self.level(fru).trajectory)
