"""Fault-tolerant clock synchronisation (core service C2).

Implements the Fault-Tolerant Average (FTA) convergence function used by
TTP-style time-triggered architectures: every node measures the deviation
of every other node's frame arrival from its expected send instant, drops
the ``k`` largest and ``k`` smallest measurements, and corrects its clock
by the mean of the remainder.  With ``n >= 3k + 1`` nodes the ensemble
tolerates ``k`` arbitrarily faulty clocks while keeping the achieved
precision bounded.

The synchronisation quality feeds the sparse time base: the diagnostic
services may only treat timing deviations beyond the achieved precision as
symptoms.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def fault_tolerant_average(
    deviations_us: np.ndarray | list[float],
    k: int = 1,
) -> float:
    """FTA convergence function.

    Parameters
    ----------
    deviations_us:
        Measured clock deviations (local minus remote) of the other nodes,
        one per observed frame, in microseconds.
    k:
        Number of extreme values dropped at each end.

    Returns
    -------
    float
        The correction term: the mean of the surviving measurements.

    Raises
    ------
    ConfigurationError
        If there are not enough measurements to drop 2k values and still
        average at least one (``len(deviations) >= 2k + 1``).
    """
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    n = len(deviations_us)
    if n < 2 * k + 1:
        raise ConfigurationError(
            f"FTA with k={k} needs at least {2 * k + 1} measurements, "
            f"got {n}"
        )
    if n - 2 * k < 8:
        # Small-ensemble fast path (the common case: one measurement per
        # peer per round).  numpy's pairwise mean reduces sequentially for
        # fewer than 8 elements, so a plain sorted sum is *bit-identical*
        # to the array path while skipping the ndarray round-trip.
        dev_list = sorted(map(float, deviations_us))
        if k:
            dev_list = dev_list[k:-k]
        total = 0.0
        for v in dev_list:
            total += v
        return total / len(dev_list)
    dev = np.sort(np.asarray(deviations_us, dtype=float))
    if k:
        dev = dev[k:-k]
    return float(dev.mean())


class SyncService:
    """Per-node synchronisation bookkeeping.

    Each node accumulates deviation measurements during a TDMA round and
    applies an FTA correction at the round boundary.  The service also
    tracks the achieved precision (max pairwise deviation observed), which
    the diagnostic layer uses as its timing-symptom threshold.
    """

    def __init__(self, k: int = 1) -> None:
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        self.k = k
        self._measurements: list[float] = []
        self.last_correction_us = 0.0
        self.corrections_applied = 0

    def observe(self, deviation_us: float) -> None:
        """Record one deviation measurement (local expected - observed)."""
        self._measurements.append(float(deviation_us))

    def round_correction(self) -> float | None:
        """Compute and consume the correction for the finished round.

        Returns None when too few measurements arrived (e.g. most frames
        lost); the node then free-runs for a round, exactly as a real TTP
        node would.
        """
        if len(self._measurements) < 2 * self.k + 1:
            self._measurements.clear()
            return None
        # A deviation d = err_sender - err_receiver; adding FTA(d) to the
        # receiver's clock moves it onto the ensemble mean of the senders.
        correction = fault_tolerant_average(self._measurements, self.k)
        self._measurements.clear()
        self.last_correction_us = correction
        self.corrections_applied += 1
        return correction


def achieved_precision_us(
    drifts_ppm: np.ndarray | list[float],
    round_length_us: int,
    k: int = 1,
) -> float:
    """Upper bound on the precision achieved by FTA resynchronisation.

    A standard bound for the fault-tolerant average with resynchronisation
    interval ``R`` and maximum drift rate ``rho`` is roughly
    ``PI ~= (2 + 4k/(n - 2k)) * rho * R`` plus reading-error terms; we use
    the simpler conservative form ``PI = 4 * rho_max * R`` adequate for
    configuring the sparse time base in simulations.
    """
    drifts = np.asarray(drifts_ppm, dtype=float)
    if drifts.size == 0:
        raise ConfigurationError("need at least one drift value")
    rho = float(np.abs(drifts).max()) * 1e-6
    return 4.0 * rho * float(round_length_us) + 1.0
