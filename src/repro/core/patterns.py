"""Fault patterns — characteristic manifestations in time, space and value.

"A fault pattern is the set of state variables that has been identified as
subject to fault-induced state changes along with corresponding properties
in value, space and time" (§V-A).  Fig. 8 tabulates three examples, which
this module encodes as declarative :class:`FaultPattern` descriptors:

===================  =========================  ==========================  ==========================
dimension            wearout                    massive transient           connector fault
===================  =========================  ==========================  ==========================
time                 increasing frequency       approximately at the same   arbitrary
                     as time progresses         time (within a small delta)
space                one component only         multiple components with    one component only
                                                spatial proximity
value                increasing deviation from  multiple bit flips          message omissions on a
                     correct value, at the                                  channel
                     verge of becoming
                     incorrect
===================  =========================  ==========================  ==========================

The measured counterparts (what a simulation campaign actually produced)
are summarised by :class:`PatternSignature`, which the Fig. 8 bench prints
next to the paper's qualitative descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.fault_model import FaultClass
from repro.core.symptoms import Symptom, SymptomType


class TimeSignature(Enum):
    INCREASING_FREQUENCY = "increasing frequency as time progresses"
    SIMULTANEOUS = "approximately at the same time (within a small delta)"
    ARBITRARY = "arbitrary"


class SpaceSignature(Enum):
    ONE_COMPONENT = "one component only"
    SPATIAL_PROXIMITY = "multiple components with spatial proximity"
    ONE_JOB = "one job only"
    CLUSTER_WIDE = "cluster-wide"


class ValueSignature(Enum):
    INCREASING_DEVIATION = (
        "increasing deviation from correct value, at the verge of becoming "
        "incorrect"
    )
    MULTIPLE_BIT_FLIPS = "multiple bit flips"
    CHANNEL_OMISSIONS = "message omissions on a channel"
    OUT_OF_SPEC = "out-of-specification values"
    MESSAGE_LOSS = "message loss (queue overflow)"
    SILENCE = "omission of all messages"


@dataclass(frozen=True, slots=True)
class FaultPattern:
    """Declarative fault pattern (the rows of Fig. 8 and friends)."""

    name: str
    time: TimeSignature
    space: SpaceSignature
    value: ValueSignature
    indicates: FaultClass


#: The three example patterns of Fig. 8.
WEAROUT_PATTERN = FaultPattern(
    "wearout",
    TimeSignature.INCREASING_FREQUENCY,
    SpaceSignature.ONE_COMPONENT,
    ValueSignature.INCREASING_DEVIATION,
    FaultClass.COMPONENT_INTERNAL,
)
MASSIVE_TRANSIENT_PATTERN = FaultPattern(
    "massive transient",
    TimeSignature.SIMULTANEOUS,
    SpaceSignature.SPATIAL_PROXIMITY,
    ValueSignature.MULTIPLE_BIT_FLIPS,
    FaultClass.COMPONENT_EXTERNAL,
)
CONNECTOR_PATTERN = FaultPattern(
    "connector fault",
    TimeSignature.ARBITRARY,
    SpaceSignature.ONE_COMPONENT,
    ValueSignature.CHANNEL_OMISSIONS,
    FaultClass.COMPONENT_BORDERLINE,
)

FIG8_PATTERNS: tuple[FaultPattern, ...] = (
    WEAROUT_PATTERN,
    MASSIVE_TRANSIENT_PATTERN,
    CONNECTOR_PATTERN,
)


@dataclass(frozen=True, slots=True)
class PatternSignature:
    """Measured time/space/value statistics of a symptom set.

    Produced by :func:`measure_signature`; the Fig. 8 bench compares these
    against the qualitative claims of the paper's table.
    """

    n_symptoms: int
    n_components: int
    n_channels: int
    lattice_spread: int  # max - min lattice point
    simultaneity: float  # fraction of symptoms on the modal lattice point
    frequency_trend: float  # late-half rate / early-half rate (>1: rising)
    value_trend: float  # slope sign of |magnitude| over time (-1..1)
    mean_magnitude: float
    dominant_type: SymptomType | None


def measure_signature(symptoms: list[Symptom]) -> PatternSignature:
    """Summarise a symptom set along the three ONA dimensions."""
    if not symptoms:
        return PatternSignature(0, 0, 0, 0, 0.0, 1.0, 0.0, 0.0, None)
    points = np.array([s.lattice_point for s in symptoms], dtype=float)
    magnitudes = np.array([abs(s.magnitude) for s in symptoms], dtype=float)
    components = {s.subject_component for s in symptoms}
    channels = {s.channel for s in symptoms if s.channel is not None}

    # Simultaneity: share of symptoms on the most common lattice point.
    _, counts = np.unique(points, return_counts=True)
    simultaneity = float(counts.max() / points.size)

    # Frequency trend: event rate in the last third of the span vs the
    # first third (sharper than a halves split for ramping processes).
    lo, hi = points.min(), points.max()
    if hi > lo:
        third = (hi - lo) / 3.0
        early = int((points <= lo + third).sum())
        late = int((points >= hi - third).sum())
        frequency_trend = (late + 0.5) / (early + 0.5)
    else:
        frequency_trend = 1.0

    # Value trend: normalised correlation of |magnitude| with time.
    if points.size >= 3 and np.ptp(points) > 0 and np.ptp(magnitudes) > 0:
        value_trend = float(np.corrcoef(points, magnitudes)[0, 1])
    else:
        value_trend = 0.0

    from collections import Counter

    type_counts = Counter(s.type for s in symptoms)
    dominant_type = type_counts.most_common(1)[0][0]

    return PatternSignature(
        n_symptoms=len(symptoms),
        n_components=len(components),
        n_channels=len(channels),
        lattice_spread=int(hi - lo),
        simultaneity=simultaneity,
        frequency_trend=float(frequency_trend),
        value_trend=value_trend,
        mean_magnitude=float(magnitudes.mean()),
        dominant_type=dominant_type,
    )


def classify_signature(
    signature: PatternSignature,
    *,
    simultaneity_threshold: float = 0.6,
    trend_threshold: float = 1.5,
    burst_spread_points: int = 20,
) -> FaultPattern | None:
    """Match a measured signature against the Fig. 8 example patterns.

    Matching criteria, one per dimension triple:

    * **massive transient** — several components, corruption-dominated,
      and temporally confined: either most symptoms share one lattice
      point or the whole burst spans at most ``burst_spread_points``
      ("within a small delta");
    * **connector fault** — channel-omission-dominated on exactly one
      channel (time of occurrence is arbitrary);
    * **wearout** — one component whose failure-event frequency rises by
      at least ``trend_threshold`` (feed *episode-compressed* symptoms,
      see :func:`compress_episodes`, so one long outage counts once).

    Returns the matched pattern or None.  This is the illustrative matcher
    used by the Fig. 8 bench; the full classifier in
    :mod:`repro.core.classification` uses richer evidence.
    """
    if signature.n_symptoms == 0 or signature.dominant_type is None:
        return None
    if (
        signature.n_components >= 2
        and signature.dominant_type is SymptomType.CRC_ERROR
        and (
            signature.simultaneity >= simultaneity_threshold
            or signature.lattice_spread <= burst_spread_points
        )
    ):
        return MASSIVE_TRANSIENT_PATTERN
    if (
        signature.dominant_type is SymptomType.CHANNEL_OMISSION
        and signature.n_channels == 1
    ):
        return CONNECTOR_PATTERN
    if (
        signature.n_components == 1
        and signature.frequency_trend >= trend_threshold
    ):
        return WEAROUT_PATTERN
    return None


def compress_episodes(
    symptoms: list[Symptom], gap_points: int = 1
) -> list[Symptom]:
    """Reduce per-lattice-point symptoms to one per failure *episode*.

    Lattice points of the same (subject, type) stream at most
    ``gap_points`` apart belong to one episode — e.g. a 30 ms outage of a
    component whose TDMA slot recurs every 5 lattice points produces
    symptoms at points {p, p+5, p+10, ...}; with ``gap_points >= 5`` they
    collapse to one transient failure event.  Fig. 8's "increasing
    frequency" refers to events, not raw symptom counts.
    """
    by_stream: dict[tuple, list[Symptom]] = {}
    for s in symptoms:
        by_stream.setdefault((s.subject_component, s.subject_job, s.type), []).append(s)
    out: list[Symptom] = []
    for stream in by_stream.values():
        stream.sort(key=lambda s: s.lattice_point)
        prev_point: int | None = None
        for s in stream:
            if prev_point is None or s.lattice_point > prev_point + gap_points:
                out.append(s)
            prev_point = s.lattice_point
    out.sort(key=lambda s: s.lattice_point)
    return out


def hub_component(symptoms: list[Symptom]) -> tuple[str | None, float]:
    """The component most involved in the symptoms (subject or observer)
    and its involvement share.  A share of 1.0 means "one component only"
    in the Fig. 8 sense: every omission touches that component's
    connector, whichever direction."""
    from collections import Counter

    if not symptoms:
        return None, 0.0
    involvement: Counter[str] = Counter()
    for s in symptoms:
        involvement[s.subject_component] += 1
        if s.observer != s.subject_component:
            involvement[s.observer] += 1
    name, count = involvement.most_common(1)[0]
    return name, count / len(symptoms)
