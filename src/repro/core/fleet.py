"""Fleet analysis — identifying software design faults from field data.

§III-E and §IV-B: safety-critical jobs are assumed certified fault-free;
for non safety-critical software, "a minority of the deployed software
FRUs is causing the majority of software related failures" — the 20-80
rule [Fenton & Ohlsson].  Heisenbugs "remain frequently undetected and can
only be identified by a fleet analysis during full operation": the online
diagnostic services of a representative vehicle population forward
job-inherent software verdicts to the OEM, which correlates them per job
type to find the faulty modules.

This module provides the synthetic fleet generator (the substitution for
proprietary field data; distribution shape from the published statistic)
and the correlation analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.faults.rates import (
    SOFTWARE_PARETO_FAILURES,
    SOFTWARE_PARETO_MODULES,
)


@dataclass(frozen=True, slots=True)
class FleetReport:
    """Aggregated field data: failure counts per vehicle and job type."""

    job_types: tuple[str, ...]
    counts: np.ndarray  # shape (n_vehicles, n_job_types), int
    hot_types: frozenset[str]  # ground truth (synthetic fleets only)

    @property
    def n_vehicles(self) -> int:
        return int(self.counts.shape[0])

    def totals(self) -> np.ndarray:
        """Total failures per job type across the fleet."""
        return self.counts.sum(axis=0)


def pareto_rates(
    n_job_types: int,
    total_rate: float,
    hot_fraction: float = SOFTWARE_PARETO_MODULES,
    hot_share: float = SOFTWARE_PARETO_FAILURES,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-job-type failure rates following the 20-80 rule.

    Returns ``(rates, hot_mask)``: ``hot_fraction`` of the types share
    ``hot_share`` of the total rate uniformly; the rest share the
    remainder uniformly.
    """
    if n_job_types < 2:
        raise AnalysisError("need at least two job types")
    if not 0.0 < hot_fraction < 1.0 or not 0.0 < hot_share < 1.0:
        raise AnalysisError("fractions must be in (0, 1)")
    n_hot = max(1, round(n_job_types * hot_fraction))
    n_cold = n_job_types - n_hot
    rates = np.empty(n_job_types)
    hot_mask = np.zeros(n_job_types, dtype=bool)
    hot_mask[:n_hot] = True
    rates[:n_hot] = total_rate * hot_share / n_hot
    rates[n_hot:] = total_rate * (1.0 - hot_share) / max(1, n_cold)
    return rates, hot_mask


def synthesize_fleet(
    rng: np.random.Generator,
    n_vehicles: int,
    n_job_types: int = 20,
    mean_failures_per_vehicle: float = 0.5,
    hot_fraction: float = SOFTWARE_PARETO_MODULES,
    hot_share: float = SOFTWARE_PARETO_FAILURES,
) -> FleetReport:
    """Generate synthetic field data for a vehicle fleet.

    Each vehicle accumulates Poisson failure counts per job type with the
    Pareto-shaped rates of :func:`pareto_rates`.
    """
    if n_vehicles < 1:
        raise AnalysisError("need at least one vehicle")
    rates, hot_mask = pareto_rates(
        n_job_types, mean_failures_per_vehicle, hot_fraction, hot_share
    )
    counts = rng.poisson(rates, size=(n_vehicles, n_job_types))
    job_types = tuple(f"job-type-{i:02d}" for i in range(n_job_types))
    hot = frozenset(
        name for name, is_hot in zip(job_types, hot_mask) if is_hot
    )
    return FleetReport(job_types=job_types, counts=counts, hot_types=hot)


@dataclass(frozen=True, slots=True)
class ParetoAnalysis:
    """Result of the OEM-side correlation of fleet reports."""

    job_types: tuple[str, ...]  # sorted by failure count, descending
    shares: np.ndarray  # failure share per sorted type
    cumulative: np.ndarray  # cumulative share
    identified_hot: tuple[str, ...]  # minimal prefix covering hot_share
    hot_module_fraction: float  # |identified| / n_types
    hot_failure_share: float  # share actually covered by the prefix


def analyse_fleet(
    report: FleetReport, coverage: float = SOFTWARE_PARETO_FAILURES
) -> ParetoAnalysis:
    """Correlate fleet data: rank job types, find the minimal set covering
    ``coverage`` of all software failures (the modules worth fixing)."""
    totals = report.totals().astype(float)
    grand_total = totals.sum()
    if grand_total <= 0:
        raise AnalysisError("fleet reports contain no failures")
    order = np.argsort(-totals, kind="stable")
    sorted_types = tuple(report.job_types[i] for i in order)
    shares = totals[order] / grand_total
    cumulative = np.cumsum(shares)
    cutoff = int(np.searchsorted(cumulative, coverage) + 1)
    cutoff = min(cutoff, len(sorted_types))
    identified = sorted_types[:cutoff]
    return ParetoAnalysis(
        job_types=sorted_types,
        shares=shares,
        cumulative=cumulative,
        identified_hot=identified,
        hot_module_fraction=cutoff / len(sorted_types),
        hot_failure_share=float(cumulative[cutoff - 1]),
    )


def identification_quality(
    report: FleetReport, analysis: ParetoAnalysis
) -> dict[str, float]:
    """Precision/recall of the identified hot set vs the ground truth."""
    identified = set(analysis.identified_hot)
    truth = set(report.hot_types)
    if not identified or not truth:
        raise AnalysisError("empty identification or ground truth")
    tp = len(identified & truth)
    precision = tp / len(identified)
    recall = tp / len(truth)
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
