"""Deterministic per-replica seed streams.

Parallel Monte-Carlo runs are only trustworthy when every replica draws
from an *independent* stream that is reproducible from ``(root_seed,
replica_index)`` alone.  We derive child streams with NumPy's
:class:`~numpy.random.SeedSequence` spawn mechanism: the child for
replica ``i`` is ``SeedSequence(root_seed, spawn_key=(i,))`` — exactly
the ``i``-th element of ``SeedSequence(root_seed).spawn(n)`` for any
``n > i``.  Because the key is the index, the stream assignment is
invariant under worker count, chunk size and scheduling order, which is
what makes the serial-equivalence guarantee of
:class:`repro.runtime.runner.ParallelCampaignRunner` possible.

This complements :class:`repro.sim.rng.RngRegistry` (named streams
*within* one simulation): the registry isolates consumers inside a
replica, the spawn keys isolate replicas from each other.
"""

from __future__ import annotations

import numpy as np


def replica_sequence(root_seed: int, index: int) -> np.random.SeedSequence:
    """Independent child sequence for replica ``index``.

    Examples
    --------
    >>> a = replica_sequence(7, 3)
    >>> b = np.random.SeedSequence(7).spawn(5)[3]
    >>> a.generate_state(4).tolist() == b.generate_state(4).tolist()
    True
    """
    if index < 0:
        raise ValueError(f"replica index must be non-negative, got {index}")
    return np.random.SeedSequence(int(root_seed), spawn_key=(int(index),))


def replica_rng(root_seed: int, index: int) -> np.random.Generator:
    """A fresh generator on replica ``index``'s stream."""
    return np.random.default_rng(replica_sequence(root_seed, index))


def stream_fingerprint(root_seed: int, index: int) -> str:
    """Short stable hex fingerprint of replica ``index``'s stream.

    The checkpoint ledger (:mod:`repro.runtime.checkpoint`) stamps every
    persisted replica with this value so a resume can verify that the
    loaded result really came from the stream the current ``(root_seed,
    index)`` pair would assign — a corrupted or hand-edited ledger line
    is rejected instead of silently skewing the aggregate.
    """
    state = replica_sequence(root_seed, index).generate_state(2, np.uint64)
    return f"{int(state[0]):016x}{int(state[1]):016x}"


def replica_state_seed(root_seed: int, index: int) -> int:
    """A scalar integer seed derived from replica ``index``'s stream.

    For APIs that take a plain ``seed: int`` (cluster presets, the
    :class:`~repro.sim.rng.RngRegistry`).  Distinct replica indices give
    distinct, well-mixed 64-bit values.
    """
    state = replica_sequence(root_seed, index).generate_state(2, np.uint64)
    return int(state[0] ^ (state[1] << 1)) & (2**63 - 1)
