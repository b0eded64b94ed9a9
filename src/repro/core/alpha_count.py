"""alpha-count — discriminating fault rate and persistency (§V-C).

The alpha-count mechanism [Bondavalli, Chiaradonna, Di Giandomenico,
Grandoni, FTCS'97] is a count-and-threshold heuristic that separates FRUs
suffering *recurring* (internal, repair-worthy) faults from FRUs hit by
sporadic external transients:

    alpha(0)   = 0
    alpha(i+1) = alpha(i) * decay          if observation i+1 is correct
               = alpha(i) + 1              if observation i+1 is failed

An FRU whose score crosses ``threshold`` is flagged.  External transients
are rare and isolated, so their score decays away; internal faults recur
at the same location at a higher rate (Constantinescu) and accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import state as _obs


@dataclass(slots=True)
class AlphaCount:
    """One alpha-count score for one FRU.

    Parameters
    ----------
    decay:
        Multiplicative decay applied on each correct observation
        (0 <= decay < 1; larger = longer memory).
    threshold:
        Score at which the FRU is flagged as suffering a recurring fault.
    """

    decay: float = 0.9
    threshold: float = 3.0
    score: float = 0.0
    peak_score: float = 0.0
    failures_seen: int = 0
    observations: int = 0
    first_crossing_at_us: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay < 1.0:
            raise ConfigurationError(f"decay must be in [0,1), got {self.decay}")
        if self.threshold <= 0:
            raise ConfigurationError(
                f"threshold must be > 0, got {self.threshold}"
            )

    def observe(self, failed: bool, now_us: int = 0) -> float:
        """Feed one observation; returns the updated score."""
        self.observations += 1
        if failed:
            self.score += 1.0
            self.failures_seen += 1
            self.peak_score = max(self.peak_score, self.score)
            if self.triggered and self.first_crossing_at_us is None:
                self.first_crossing_at_us = int(now_us)
        else:
            self.score *= self.decay
        return self.score

    @property
    def triggered(self) -> bool:
        """True while the score is currently above the threshold."""
        return self.score >= self.threshold

    @property
    def has_triggered(self) -> bool:
        """True once the score has ever crossed the threshold.

        The maintenance-relevant signal: a recurring fault whose episode
        burst ended still warrants FRU replacement — the evidence does not
        expire with the decay (only :meth:`reset`, i.e. a repair, clears
        it)."""
        return self.peak_score >= self.threshold

    def reset(self) -> None:
        """Clear the score (after a repair action)."""
        self.score = 0.0
        self.peak_score = 0.0
        self.first_crossing_at_us = None


class AlphaCountBank:
    """alpha-counts for a set of FRUs with shared parameters."""

    def __init__(self, decay: float = 0.9, threshold: float = 3.0) -> None:
        # Validate eagerly by constructing a probe instance.
        AlphaCount(decay=decay, threshold=threshold)
        self.decay = decay
        self.threshold = threshold
        self._counts: dict[str, AlphaCount] = {}

    def count(self, fru: str) -> AlphaCount:
        ac = self._counts.get(fru)
        if ac is None:
            ac = AlphaCount(decay=self.decay, threshold=self.threshold)
            self._counts[fru] = ac
        return ac

    def observe(self, fru: str, failed: bool, now_us: int = 0) -> AlphaCount:
        ac = self.count(fru)
        was_triggered = ac.triggered
        ac.observe(failed, now_us)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.counters.inc("alpha.observations")
            if failed:
                obs.counters.inc("alpha.failures")
            if ac.triggered and not was_triggered:
                # A promotion: the score crossed the threshold — the FRU
                # moved from "sporadic transients" to "recurring fault".
                obs.counters.inc("alpha.promotions")
                prov = obs.provenance
                if prov is None:
                    obs.tracer.event(
                        "alpha.promotion",
                        t_sim_us=now_us,
                        fru=fru,
                        score=ac.score,
                        threshold=ac.threshold,
                        failures_seen=ac.failures_seen,
                    )
                else:
                    cause_id = prov.new_id("alpha")
                    prov.add_evidence(fru, cause_id)
                    obs.tracer.causal_event(
                        "alpha.promotion",
                        now_us,
                        cause_id,
                        prov.alpha_evidence(fru),
                        fru=fru,
                        score=ac.score,
                        threshold=ac.threshold,
                        failures_seen=ac.failures_seen,
                    )
        return ac

    def triggered(self) -> list[str]:
        """FRUs currently above threshold, sorted by score descending."""
        flagged = [
            (name, ac.score)
            for name, ac in self._counts.items()
            if ac.triggered
        ]
        flagged.sort(key=lambda item: -item[1])
        return [name for name, _ in flagged]

    def scores(self) -> dict[str, float]:
        return {name: ac.score for name, ac in self._counts.items()}

    def reset(self, fru: str) -> None:
        if fru in self._counts:
            self._counts[fru].reset()
