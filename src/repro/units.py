"""Time and rate units used throughout the library.

Simulated global time is carried as **integer microseconds** so that event
ordering is exact and reproducible (no float accumulation error across a
long simulation).  Failure rates follow the paper's conventions and are
expressed in FIT (failures per 10^9 device-hours).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time conversions (canonical unit: integer microseconds)
# ---------------------------------------------------------------------------

US_PER_MS = 1_000
US_PER_S = 1_000_000
US_PER_MINUTE = 60 * US_PER_S
US_PER_HOUR = 3_600 * US_PER_S

HOURS_PER_YEAR = 8_766.0  # average Gregorian year (365.25 days)


def ms(value: float) -> int:
    """Convert milliseconds to integer microseconds (rounded)."""
    return round(value * US_PER_MS)


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds (rounded)."""
    return round(value * US_PER_S)


def minutes(value: float) -> int:
    """Convert minutes to integer microseconds (rounded)."""
    return round(value * US_PER_MINUTE)


def hours(value: float) -> int:
    """Convert hours to integer microseconds (rounded)."""
    return round(value * US_PER_HOUR)


def to_ms(value_us: int) -> float:
    """Convert microseconds to milliseconds."""
    return value_us / US_PER_MS


def to_seconds(value_us: int) -> float:
    """Convert microseconds to seconds."""
    return value_us / US_PER_S


def to_hours(value_us: int) -> float:
    """Convert microseconds to hours."""
    return value_us / US_PER_HOUR


# ---------------------------------------------------------------------------
# Failure-rate conversions
# ---------------------------------------------------------------------------

FIT_HOURS = 1e9  # 1 FIT == 1 failure per 10^9 device-hours


def fit_to_per_us(fit: float) -> float:
    """Convert a FIT rate to failures per simulated microsecond."""
    return fit / FIT_HOURS / US_PER_HOUR


def mtbf_hours(fit: float) -> float:
    """Mean time between failures, in hours, for a constant FIT rate."""
    if fit <= 0.0:
        raise ValueError(f"FIT rate must be positive, got {fit}")
    return FIT_HOURS / fit
