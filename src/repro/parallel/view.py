"""A shard's window onto the shared :class:`~repro.core.feature_store.FeatureStore`.

Each shard of the parallel engine owns a :class:`FeatureStoreView` — the
same object shape a :class:`~repro.core.collection.PlanarIndexCollection`
expects, restricted to the ids the shard owns.  Point ids stay *global*:
row gathers (``take_rows``) delegate straight to the base store, so the
hot verification path pays zero indirection, while enumeration surfaces
(``live_ids`` / ``get_all`` / ``scan_values``) filter by the shard
predicate.  Because membership is a pure function of the id
(:mod:`repro.parallel.sharding`), the view carries no state that could
drift from the base store under inserts and deletes.
"""

from __future__ import annotations

import numpy as np

from ..core import exact
from ..core.feature_store import FeatureStore
from ..obs import metrics as _om
from ..obs import runtime as _ort
from .sharding import assign_shards

__all__ = ["FeatureStoreView"]


class FeatureStoreView:
    """Read-only shard slice of a shared feature store.

    Mutations (append/update/delete) go through the base store — the
    engine owns that lifecycle and tells each shard's collection which of
    its ids changed.  The view only answers reads, restricted to the ids
    for which ``assign_shards(id) == shard``.
    """

    __slots__ = ("_base", "_shard", "_n_shards", "_ids_cache", "_scan_cache")

    def __init__(self, base: FeatureStore, shard: int, n_shards: int) -> None:
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard {shard} out of range [0, {n_shards})")
        self._base = base
        self._shard = int(shard)
        self._n_shards = int(n_shards)
        # Memoized owned live ids and (lazily) the float32 scan copy of the
        # matching rows, both keyed by the base store's mutation
        # ``version``.  Recomputing membership over the whole base per scan
        # would make ``S`` shards do ``S`` times the id work of one
        # monolithic scan, and scattered row gathers cost as much as the
        # scan itself — the materialized copy turns shard scans back into
        # contiguous streams.  Each cache is one tuple so a racing
        # recompute in another querying thread is benign (last writer wins,
        # both values correct for their version).
        self._ids_cache: tuple[int, np.ndarray] | None = None
        self._scan_cache: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #

    @property
    def base(self) -> FeatureStore:
        """The shared store this view restricts."""
        return self._base

    @property
    def shard(self) -> int:
        """Which shard this view exposes."""
        return self._shard

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'`` (same as the base store)."""
        return self._base.dim

    def _owned(self, ids: np.ndarray) -> np.ndarray:
        """Subset of ``ids`` owned by this shard (order preserved)."""
        mask = assign_shards(ids, self._n_shards) == self._shard
        return ids[mask]

    def live_ids(self) -> np.ndarray:
        """Live ids owned by this shard, ascending (memoized).

        O(1) in the steady state; O(n_base) only after a base-store
        mutation (the ``version`` stamp moves).
        """
        version = self._base.version
        cached = self._ids_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        ids = self._owned(self._base.live_ids())
        ids.setflags(write=False)
        self._ids_cache = (version, ids)
        return ids

    def _scan_copy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, columns, magnitudes)``: this shard's live ids and the
        float32 column copy of their rows (memoized).

        Materialized lazily on the first scan after a mutation; across all
        shards the caches add up to one float32 copy of the live feature
        matrix — the price of giving every shard a streamable local slice,
        exactly as a distributed deployment would hold its partition
        locally.  The ids are the ones the rows were taken for, so a write
        landing meanwhile cannot pair them with another version's rows.
        """
        version = self._base.version
        cached = self._scan_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2], cached[3]
        ids = self.live_ids()
        columns, magnitudes = exact.scan_columns(self._base.take_rows(ids))
        self._scan_cache = (version, ids, columns, magnitudes)
        return ids, columns, magnitudes

    def __len__(self) -> int:
        """Number of live rows owned by this shard."""
        return int(self.live_ids().size)

    def is_live(self, point_id: int) -> bool:
        """Whether ``point_id`` is live *and* owned by this shard."""
        return self._base.is_live(point_id) and (
            int(assign_shards(np.asarray([point_id]), self._n_shards)[0])
            == self._shard
        )

    def memory_bytes(self) -> int:
        """Footprint of the view's memoized id and scan caches."""
        total = 0
        if self._ids_cache is not None:
            total += int(self._ids_cache[1].nbytes)
        if self._scan_cache is not None:
            total += int(self._scan_cache[2].nbytes + self._scan_cache[3].nbytes)
        return total

    # ------------------------------------------------------------------ #

    def get(self, ids: np.ndarray) -> np.ndarray:
        """Validated feature rows for the given live ids (global ids)."""
        return self._base.get(ids)

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        """Unvalidated gather on the shared matrix — the hot path.

        Interval ids come from this shard's own key stores, which are
        maintained in lockstep with the shard's membership, so the base
        store's trust contract holds unchanged.
        """
        return self._base.take_rows(ids)

    def get_all(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` for every live row owned by this shard (float64 copy)."""
        ids = self.live_ids()
        return ids, self._base.take_rows(ids)

    def scan_values(self, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Shard-restricted streaming scan: ``(ids, values, E32)``.

        Streams the memoized float32 column copy (:func:`exact.scan`), so
        the ``S`` shards of a wave, scanning one after another, together
        do the same arithmetic as one monolithic scan — split ``S`` ways.
        """
        if _ort.active():
            _om.store_scans().inc()
        ids, columns, magnitudes = self._scan_copy()
        values, bound = exact.scan(columns, magnitudes, normal)
        return ids, values, bound

    def scan_ids(self, ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """``ids[positions]`` for the ``ids`` :meth:`scan_values` returned.

        While those ids are evenly spaced (no id between the first and
        the last has died) a position maps by arithmetic: a gather from
        the id array after the scan has streamed the rows through the
        cache costs a cache miss per answer id.  The spacing is read off
        ``ids`` itself, so a write landing after the scan cannot pair its
        positions with another version's ids.
        """
        n = ids.size
        if n:
            first = int(ids[0])
            # Ascending ids that all leave one remainder are spaced at
            # least ``n_shards`` apart, so this span means exactly that far.
            if int(ids[-1]) - first == self._n_shards * (n - 1):
                return positions * self._n_shards + first
        return ids[positions]

    def scan_values_many(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shard-restricted batched scan: ``(ids, (n_owned, m) values)``.

        Column ``j`` holds the float64 products ``<normals[j], row>``, one
        matrix product over the gathered rows (mirrors
        :meth:`FeatureStore.scan_values_many`).
        """
        normals = np.ascontiguousarray(normals, dtype=np.float64)
        if _ort.active():
            _om.store_scans().inc(normals.shape[0])
        ids, rows = self.get_all()
        values = rows @ np.ascontiguousarray(normals.T)  # repro: noqa(REP001) — shard-local scan, cost-routed by the collection
        return ids, values
