"""Weibull distribution primitives (vectorised).

The Weibull family is the standard parametric model for all three bathtub
phases: shape ``beta < 1`` gives a decreasing hazard (infant mortality),
``beta == 1`` a constant hazard (useful life, exponential), ``beta > 1`` an
increasing hazard (wearout).  All functions accept scalars or NumPy arrays
of times and are fully vectorised, per the hpc-parallel guide.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

ArrayLike = float | np.ndarray


def _check(shape: float, scale: float) -> None:
    if shape <= 0:
        raise ConfigurationError(f"Weibull shape must be > 0, got {shape}")
    if scale <= 0:
        raise ConfigurationError(f"Weibull scale must be > 0, got {scale}")


def hazard(t: ArrayLike, shape: float, scale: float) -> np.ndarray:
    """Instantaneous hazard rate h(t) = (beta/eta) * (t/eta)^(beta-1).

    ``t`` is clipped below at a tiny epsilon so that shapes < 1 (whose
    hazard diverges at 0) stay finite for t = 0 inputs.
    """
    _check(shape, scale)
    t = np.maximum(np.asarray(t, dtype=float), 1e-12)
    return (shape / scale) * (t / scale) ** (shape - 1.0)


def cumulative_hazard(t: ArrayLike, shape: float, scale: float) -> np.ndarray:
    """Cumulative hazard H(t) = (t/eta)^beta."""
    _check(shape, scale)
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    return (t / scale) ** shape


def survival(t: ArrayLike, shape: float, scale: float) -> np.ndarray:
    """Survival function R(t) = exp(-H(t))."""
    return np.exp(-cumulative_hazard(t, shape, scale))


def mean(shape: float, scale: float) -> float:
    """Mean time to failure eta * Gamma(1 + 1/beta)."""
    _check(shape, scale)
    from scipy.special import gamma

    return float(scale * gamma(1.0 + 1.0 / shape))


def sample(
    rng: np.random.Generator, shape: float, scale: float, size: int | tuple = 1
) -> np.ndarray:
    """Draw failure times (inverse-CDF on uniform variates)."""
    _check(shape, scale)
    u = rng.random(size)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)
