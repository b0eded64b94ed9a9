"""Local clocks with drift, jitter and correction.

Each component owns a quartz-driven local clock.  The clock drifts from the
reference (global) time at a rate ``drift_ppm`` and is periodically
corrected by the clock-synchronisation service (:mod:`repro.tta.sync`).  A
defective quartz (paper §IV-A.1c) is modelled as an abnormally large or
unstable drift, which eventually manifests as timing failures at the
sending component's slots.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class LocalClock:
    """A drifting local clock, corrected by state adjustment.

    The clock value at reference time ``t`` is::

        local(t) = t + offset + drift_ppm * 1e-6 * (t - t_last_correction)

    plus optional per-read white jitter.  ``offset`` absorbs corrections
    applied by the synchronisation algorithm.

    Parameters
    ----------
    drift_ppm:
        Systematic rate deviation in parts per million.  Typical automotive
        quartz: |drift| <= 100 ppm.
    jitter_us:
        Standard deviation of white read-out jitter in microseconds.
    rng:
        Generator used for jitter draws (shared registry stream).
    """

    def __init__(
        self,
        drift_ppm: float = 0.0,
        jitter_us: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if jitter_us < 0:
            raise ConfigurationError(f"jitter_us must be >= 0, got {jitter_us}")
        if jitter_us > 0 and rng is None:
            raise ConfigurationError("jitter requires an rng stream")
        self.drift_ppm = float(drift_ppm)
        self.jitter_us = float(jitter_us)
        self._rng = rng
        self._offset_us = 0.0
        self._last_correction_at = 0

    # -- reading ----------------------------------------------------------

    def read(self, reference_us: int) -> float:
        """Local clock value at reference time ``reference_us``."""
        elapsed = reference_us - self._last_correction_at
        value = reference_us + self._offset_us + self.drift_ppm * 1e-6 * elapsed
        if self.jitter_us > 0.0:
            value += self._rng.normal(0.0, self.jitter_us)
        return value

    def error(self, reference_us: int) -> float:
        """Deviation of the local clock from reference time (jitter-free)."""
        elapsed = reference_us - self._last_correction_at
        return self._offset_us + self.drift_ppm * 1e-6 * elapsed

    # -- correction -------------------------------------------------------

    def apply_correction(self, correction_us: float, at_reference_us: int) -> None:
        """Apply a state correction computed by the sync service.

        The accumulated drift since the previous correction is folded into
        the offset so that subsequent drift accrues from ``at_reference_us``.
        """
        self._offset_us = self.error(at_reference_us) + correction_us
        self._last_correction_at = int(at_reference_us)

    def resynchronise(self, at_reference_us: int) -> None:
        """Hard reset of the clock error to zero (restart & state sync)."""
        self._offset_us = 0.0
        self._last_correction_at = int(at_reference_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalClock(drift_ppm={self.drift_ppm}, "
            f"offset_us={self._offset_us:.3f})"
        )
