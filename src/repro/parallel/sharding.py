"""Shard membership for the parallel execution engine.

Membership is a *pure function of the point id* — no per-point state, no
routing tables.  That is what lets :class:`~repro.parallel.view.FeatureStoreView`
stay a stateless filter over the shared :class:`~repro.core.feature_store.FeatureStore`:
any component can recompute which shard owns an id at any time and always
agree with every other component.

The one rule is round-robin, ``shard(id) = id % S``.  Ids are assigned
densely by the feature store, so consecutive inserts spread evenly across
shards; deletions of contiguous id ranges, however, drain shards unevenly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assign_shards"]


def assign_shards(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index (``0 .. n_shards-1``) owning each id, as ``int64``.

    Deterministic and stateless: the same ``(id, n_shards)`` always maps
    to the same shard, across processes and across calls.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if np.any(ids < 0):
        raise ValueError("point ids must be nonnegative")
    return ids % np.int64(n_shards)
