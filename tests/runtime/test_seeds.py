"""Tests for the per-replica seed stream derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.seeds import (
    replica_rng,
    replica_sequence,
    replica_state_seed,
)


def test_matches_numpy_spawn():
    """Child ``i`` is exactly SeedSequence(root).spawn(n)[i]."""
    spawned = np.random.SeedSequence(123).spawn(8)
    for i in (0, 3, 7):
        ours = replica_sequence(123, i)
        assert (
            ours.generate_state(4).tolist()
            == spawned[i].generate_state(4).tolist()
        )


def test_streams_reproducible_and_independent():
    a1 = replica_rng(7, 0).random(8)
    a2 = replica_rng(7, 0).random(8)
    b = replica_rng(7, 1).random(8)
    c = replica_rng(8, 0).random(8)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()
    assert a1.tolist() != c.tolist()


def test_stream_independent_of_sibling_count():
    """Replica 2's stream is the same whether 3 or 300 replicas exist."""
    few = [replica_rng(42, i).random() for i in range(3)]
    many = [replica_rng(42, i).random() for i in range(300)]
    assert few == many[:3]


def test_state_seed_properties():
    seeds = {replica_state_seed(5, i) for i in range(200)}
    assert len(seeds) == 200  # distinct per index
    assert all(0 <= s < 2**63 for s in seeds)
    assert replica_state_seed(5, 17) == replica_state_seed(5, 17)
    assert replica_state_seed(5, 17) != replica_state_seed(6, 17)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        replica_sequence(0, -1)
