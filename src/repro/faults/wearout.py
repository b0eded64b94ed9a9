"""Wearout — accumulation of incremental damage (§III-E, §IV-A).

"Failure mechanisms due to accumulation of incremental damage beyond the
endurance of the material are termed wearout mechanisms" [Ramakrishnan].
The paper's wearout *indicator* is the increase of transient failures of an
FRU over time (Constantinescu; Bondavalli et al.).

:func:`wearout_fit_profile` gives the closed-form rate trajectory of a
wearing-out FRU, which the thinning sampler draws the FRU's transient
outages from.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def wearout_fit_profile(
    base_fit: float,
    onset_us: int,
    full_us: int,
    multiplier: float = 10.0,
):
    """Closed-form transient-FIT trajectory of a wearing-out FRU.

    Returns ``fit(t_us)`` (vectorised): ``base_fit`` before ``onset_us``,
    rising quadratically to ``multiplier * base_fit`` at ``full_us`` and
    constant beyond.  Shaped to generate the Fig. 8 wearout signature:
    "increasing frequency as time progresses".
    """
    if base_fit <= 0:
        raise ConfigurationError(f"base_fit must be > 0, got {base_fit}")
    if full_us <= onset_us:
        raise ConfigurationError("full_us must be after onset_us")
    if multiplier < 1.0:
        raise ConfigurationError(
            f"multiplier must be >= 1, got {multiplier}"
        )
    span = float(full_us - onset_us)

    def fit_of(t_us: np.ndarray) -> np.ndarray:
        t = np.asarray(t_us, dtype=float)
        progress = np.clip((t - onset_us) / span, 0.0, 1.0)
        return base_fit * (1.0 + (multiplier - 1.0) * progress**2)

    return fit_of
