"""Unit tests for the shard-membership rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import assign_shards


class TestAssignShards:
    def test_round_robin_is_modulo(self):
        ids = np.arange(100, dtype=np.int64)
        assert np.array_equal(assign_shards(ids, 4), ids % 4)

    def test_deterministic_and_in_range(self):
        ids = np.arange(0, 10_000, 7, dtype=np.int64)
        first = assign_shards(ids, 5)
        second = assign_shards(ids, 5)
        assert np.array_equal(first, second)
        assert first.dtype == np.int64
        assert first.min() >= 0 and first.max() < 5

    def test_single_shard_owns_everything(self):
        ids = np.arange(50, dtype=np.int64)
        assert np.array_equal(assign_shards(ids, 1), np.zeros(50, dtype=np.int64))

    def test_partition_is_disjoint_and_complete(self):
        ids = np.arange(0, 999, 3, dtype=np.int64)
        assignment = assign_shards(ids, 4)
        parts = [ids[assignment == shard] for shard in range(4)]
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.sort(ids))
        assert sum(part.size for part in parts) == ids.size

    def test_rejects_bad_inputs(self):
        ids = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError):
            assign_shards(ids, 0)
        with pytest.raises(ValueError):
            assign_shards(np.asarray([-1]), 2)
