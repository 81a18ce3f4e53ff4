"""Shared storage of feature vectors ``phi(x)``, addressable by point id.

Every Planar index in a collection sorts the *same* underlying feature
vectors under a different normal, and query verification must fetch feature
rows by point id.  :class:`FeatureStore` centralizes that storage so a
collection of ``r`` indices costs one feature matrix plus ``r`` key arrays —
matching the paper's ``O(n * r)`` space claim with a small constant.

The scan route reads a float32, column-major copy of the rows
(:meth:`FeatureStore.scan_values`), built on the first scan and kept
current by every later write; a store that is never scanned (the raw
points) never holds one.

The store is dynamic (Section 4.4): rows can be appended, re-valued, and
deleted.  Ids are stable row handles; deleted ids are never reused so stale
references fail loudly.  The rows, the scan copy and the liveness mask each
live in a buffer with spare room that grows by :data:`GROWTH`, so an append
of ``m`` rows costs amortized ``O(m)``, not a copy of the store.  Key
stores hold ids as ``uint32``, so a store never grows past ``2**32 - 1``
rows (:func:`require_id_space`).
"""

from __future__ import annotations

import numpy as np

from .._util import as_2d_float, require_finite_rows, require_unique
from ..analysis.contracts import array_contract
from ..exceptions import DimensionMismatchError, IndexBuildError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..reliability import faults as _flt
from . import exact
from .sorted_keys import ID_MAX

__all__ = ["FeatureStore", "GROWTH", "require_id_space"]

#: Factor by which a full store's buffers grow: an append that does not
#: fit reallocates them at this multiple of their size, so each row is
#: copied O(1) times amortized and at most a third of a buffer is spare.
GROWTH = 1.5


def require_id_space(capacity: int) -> None:
    """Raise unless ``capacity`` rows fit the ``uint32`` ids of the key stores.

    Ids are row positions, so row ``ID_MAX`` would be the first id a
    :class:`~repro.core.sorted_keys.SortedKeyStore` cannot hold.
    """
    if capacity > ID_MAX:
        raise IndexBuildError(
            f"a FeatureStore holds at most {ID_MAX} rows (2**32 - 1): point ids "
            f"are row positions stored as uint32; {capacity} rows requested"
        )


class FeatureStore:
    """Growable ``(capacity, d')`` matrix with liveness tracking.

    Invariant: a point id *is* its row position in ``_data``, forever.
    Appends assign ids at the current capacity, deletes only flip the
    liveness bit (rows are never compacted), and dead ids are never
    reused — so ``live_ids()`` can derive ids from positions and row
    gathers can index directly by id without a translation table.
    Anything that compacts or reorders ``_data`` in place would break
    every :class:`~repro.core.sorted_keys.SortedKeyStore` built on top.

    ``_data``, ``_live`` and the scan columns ``_scan[0]`` are views of
    the first :attr:`capacity` rows (columns) of ``_rows``, ``_alive``
    and ``_columns``, buffers that share one allocated size.  An append
    writes past the views and then rebinds each with one attribute store,
    so a reader holding an older view still sees a valid prefix.
    """

    @array_contract("features: (n, d) float64 cast promote")
    def __init__(self, features: np.ndarray) -> None:
        data = as_2d_float(features, "features")
        if data.shape[0] == 0:
            raise ValueError("FeatureStore needs at least one initial feature row")
        require_finite_rows(data, "features")
        require_id_space(data.shape[0])
        self._rows = self._data = data.copy()
        self._alive = self._live = np.ones(data.shape[0], dtype=bool)
        self._n_live = int(data.shape[0])
        # Bumped by every mutation (update/append/delete) so read-side
        # caches — e.g. a shard view's float32 scan copy — can
        # invalidate with one integer comparison.
        self._version = 0
        self._writable = True
        # (float32 columns, column magnitudes) of exact.scan_columns, built
        # by the first scan_values call; the columns are a view of _columns.
        self._scan: tuple[np.ndarray, np.ndarray] | None = None
        self._columns: np.ndarray | None = None

    @classmethod
    def from_backing(cls, data: np.ndarray) -> "FeatureStore":
        """Read-only store over an externally owned (typically memmap) matrix.

        ``data`` is bound directly — no copy, no finiteness re-check (the
        persistence layer checksums what it wrote) — so a multi-GB matrix
        costs nothing to open and its pages are shared across forked
        shard workers.  All rows are live: persistence compacts dead rows
        out at save time.  Mutations raise; load with ``mode="copy"`` to
        get a writable store.
        """
        if data.ndim != 2 or data.dtype != np.float64:
            raise ValueError(
                f"backing must be a float64 matrix, got {data.dtype} {data.shape}"
            )
        require_id_space(data.shape[0])
        store = cls.__new__(cls)
        store._rows = store._data = data
        store._alive = store._live = np.ones(data.shape[0], dtype=bool)
        store._n_live = int(data.shape[0])
        store._version = 0
        store._writable = False
        store._scan = store._columns = None
        return store

    def _require_writable(self) -> None:
        if not self._writable:
            raise ValueError(
                "this FeatureStore is a read-only (memmap) backing; "
                "load the index with mode='copy' to mutate it"
            )

    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'``."""
        return int(self._data.shape[1])

    def __len__(self) -> int:
        """Number of live rows."""
        return self._n_live

    @property
    def capacity(self) -> int:
        """Ids assigned so far: live plus deleted rows, not the spare room."""
        return int(self._data.shape[0])

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever rows or liveness change."""
        return self._version

    @property
    def writable(self) -> bool:
        """False for read-only (memmap) backings — mutations will raise."""
        return self._writable

    def live_ids(self) -> np.ndarray:
        """Ids of all live rows, ascending.

        Positions and ids coincide by the class invariant (ids are row
        positions and rows are never compacted), so deriving ids from
        ``nonzero(_live)`` is exact even after delete/append churn —
        pinned by ``test_live_ids_survive_churn``.
        """
        return np.nonzero(self._live)[0].astype(np.int64)

    def is_live(self, point_id: int) -> bool:
        """Whether ``point_id`` refers to a live row."""
        return 0 <= int(point_id) < self.capacity and bool(self._live[int(point_id)])

    def memory_bytes(self) -> int:
        """Heap footprint of the buffers, spare room included, and the scan copy once built."""
        total = self._rows.nbytes + self._alive.nbytes
        if self._scan is not None:
            total += self._columns.nbytes + self._scan[1].nbytes
        return int(total)

    # ------------------------------------------------------------------ #

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise DimensionMismatchError(f"ids must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.capacity):
            raise KeyError(f"point id out of range [0, {self.capacity})")
        dead = ids[~self._live[ids]]
        if dead.size:
            raise KeyError(f"point ids not live: {dead[:5].tolist()}")
        return ids

    @array_contract("ids: (m,) int64 cast", returns="(m, d) float64")
    def get(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for the given live ids (copy)."""
        if _flt.ARMED:
            _flt.check("store.get_features", n=int(np.size(ids)))
        ids = self._check_ids(ids)
        return self._data[ids]

    @array_contract("ids: (m,) uint32 cast C", returns="(m, d) float64")
    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        """Unvalidated row gather for internal hot paths.

        Callers must pass ids they obtained from this store (query
        verification does: the interval ids come from a key store that is
        maintained in lockstep, as ``uint32``; scan positions are ``intp``).
        ``numpy.take`` over pre-sorted ids is several times faster than
        checked fancy indexing, which dominates query latency otherwise.
        """
        if _ort.active():
            _om.rows_gathered().inc(ids.size)
        return self._data.take(ids, axis=0)

    def get_all(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` for every live row."""
        ids = self.live_ids()
        return ids, self._data[ids]

    @array_contract("normal: (d,) float64 cast")
    def scan_values(self, normal: np.ndarray) -> tuple[None, np.ndarray, float]:
        """``(None, values, E32)``: float32 scan values of every row, dead ones too.

        This is the streaming evaluation a sequential scan performs; the
        collection's cost-based router uses it when an index's intermediate
        interval would be more expensive to verify than scanning.  The
        values come from the float32 column copy (:func:`exact.scan`, built
        here on the first call) and are decided by :func:`exact.select`
        with their bound ``E32``.  Positions are ids (the ``None``), so
        the scan builds no id array and gathers no values; the caller
        drops dead positions from its answer with :meth:`live_only`.
        """
        if _ort.active():
            _om.store_scans().inc()
        if self._scan is None:
            self._build_scan()
        values, bound = exact.scan(*self._scan, normal)
        return None, values, bound

    def _build_scan(self) -> None:
        """Build the scan copy, its buffer as large as the row buffer's.

        The rows may already have spare room (the first scan follows
        some appends); the columns get the same, so a later append that
        fits the rows fits them too.
        """
        columns, magnitudes = exact.scan_columns(self._data)
        spare = self._rows.shape[0] - columns.shape[1]
        if spare:
            columns = np.concatenate(
                [columns, np.empty((self.dim, spare), dtype=columns.dtype)], axis=1
            )
        self._columns = columns
        self._scan = (columns[:, : self.capacity], magnitudes)

    def live_only(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` (any row positions) without the dead ones, order kept."""
        if self._n_live == self.capacity:
            return ids
        return ids[self._live[ids]]

    @array_contract("normals: (m, d) float64 cast promote")
    def scan_values_many(self, normals: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """``(ids, values)`` of every live row under ``m`` normals at once.

        ``values`` has shape ``(n_live, m)`` with column ``j`` the float64
        products ``<normals[j], row>`` — one matrix product over the
        float64 rows.  No query path calls it; the batch calls loop over
        :meth:`scan_values`.  Counts ``m`` store scans (each column is one
        logical scan).  ``ids`` is ``None`` when every row is live, as in
        :meth:`scan_values`.
        """
        normals = as_2d_float(normals, "normals")
        if _ort.active():
            _om.store_scans().inc(normals.shape[0])
        values = self._data @ np.ascontiguousarray(normals.T)
        if self._n_live == self.capacity:
            return None, values
        ids = self.live_ids()
        return ids, values[ids]

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def update(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Replace the feature vectors of existing live rows."""
        self._require_writable()
        ids = self._check_ids(ids)
        rows = as_2d_float(rows, "rows")
        if rows.shape != (ids.size, self.dim):
            raise DimensionMismatchError(
                f"rows have shape {rows.shape}, expected ({ids.size}, {self.dim})"
            )
        require_finite_rows(rows, "rows")
        self._data[ids] = rows
        if self._scan is not None:
            columns, magnitudes = exact.scan_columns(rows)
            self._scan = (self._scan[0], np.maximum(self._scan[1], magnitudes))
            self._scan[0][:, ids] = columns
        self._version += 1

    @array_contract("rows: (m, d) float64 cast promote", returns="(m,) int64")
    def append(self, rows: np.ndarray) -> np.ndarray:
        """Add new rows; returns their freshly assigned ids."""
        self._require_writable()
        rows = as_2d_float(rows, "rows")
        if rows.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"rows have dimension {rows.shape[1]}, store has {self.dim}"
            )
        require_finite_rows(rows, "rows")
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        start = self.capacity
        stop = start + rows.shape[0]
        require_id_space(stop)
        if stop > self._rows.shape[0]:
            self._grow(stop)
        self._rows[start:stop] = rows
        self._alive[start:stop] = True
        # _live rebinds first, so any id a reader finds in _scan or _data
        # is covered by the liveness mask it reads next.
        self._live = self._alive[:stop]
        if self._scan is not None:
            columns, magnitudes = exact.scan_columns(rows)
            self._columns[:, start:stop] = columns
            self._scan = (self._columns[:, :stop], np.maximum(self._scan[1], magnitudes))
        self._data = self._rows[:stop]
        self._n_live += rows.shape[0]
        self._version += 1
        return np.arange(start, stop, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        """Reallocate every buffer at ``GROWTH`` times its size, ``needed`` rows at least.

        The views still name the old buffers until :meth:`append`
        rebinds them.
        """
        size = min(max(needed, int(self._rows.shape[0] * GROWTH)), ID_MAX)
        start = self.capacity
        rows = np.empty((size, self.dim))
        rows[:start] = self._data
        alive = np.empty(size, dtype=bool)
        alive[:start] = self._live
        if self._scan is not None:
            columns = np.empty((self.dim, size), dtype=self._columns.dtype)
            columns[:, :start] = self._scan[0]
            self._columns = columns
        self._rows, self._alive = rows, alive

    @array_contract("ids: (m,) int64 cast")
    def delete(self, ids: np.ndarray) -> None:
        """Mark rows dead; their ids become permanently invalid."""
        self._require_writable()
        ids = self._check_ids(ids)
        require_unique(ids, "delete ids must be unique")
        self._live[ids] = False
        self._n_live -= int(ids.size)
        self._version += 1
