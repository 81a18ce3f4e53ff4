"""Top-k buffer and result types for Problem 2 (Section 6).

Algorithm 2 maintains a bounded buffer of the ``k`` closest satisfying
points found so far; the buffer's current maximum distance is the pruning
threshold compared against the lower-bound distance ``LBS`` (Definition 5).

The buffer is array-backed rather than heap-backed: the pruned scan feeds
it in blocks, and one vectorized merge per block (``numpy.lexsort`` over at
most ``k + block`` entries) is far cheaper in numpy than per-point heap
operations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..reliability.degraded import DegradedInfo
from .stats import QueryStats

__all__ = ["SharedCutoff", "TopKBuffer", "TopKResult"]


class SharedCutoff:
    """Monotonically decreasing distance bound shared across top-k scans.

    The sharded engine runs Algorithm 2 once per shard; each shard's
    buffered k-th distance is an *upper bound* on the global k-th best
    distance (the shard exhibits ``k`` real points at or below it), so
    the minimum over all published bounds is too.  Every shard folds this
    shared bound into its LBS cutoff test, which lets one shard's good
    candidates terminate another shard's scan early — exactly the
    cross-partition pruning a single monolithic scan would have had.

    Exactness is preserved because Claim 3's cutoff test stays *strict*
    (``LBS > bound``): points at distance equal to the bound are still
    scanned, so ties broken by id come out identical to the monolithic
    path.

    ``publish`` is atomic (one lock-protected min); ``get`` is a bare
    read — stale reads only delay pruning, never break it.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = float("inf")

    def publish(self, value: float) -> None:
        """Lower the shared bound to ``value`` if it improves it."""
        value = float(value)
        with self._lock:
            if value < self._value:
                self._value = value

    def get(self) -> float:
        """Current bound (``inf`` until any scan has ``k`` candidates)."""
        return self._value


class TopKBuffer:
    """Bounded buffer keeping the ``k`` smallest distances seen.

    Ties on distance are broken by smaller point id so results are
    deterministic across runs and backends.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._k = int(k)
        self._distances = np.empty(0, dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        # Cached k-th distance; only meaningful while the buffer is full.
        self._max = float("inf")

    @property
    def k(self) -> int:
        """Buffer capacity."""
        return self._k

    def __len__(self) -> int:
        return int(self._distances.size)

    @property
    def is_full(self) -> bool:
        """Whether ``k`` entries are buffered."""
        return self._distances.size >= self._k

    @property
    def max_distance(self) -> float:
        """Largest buffered distance; ``inf`` while the buffer is not full.

        Returning ``inf`` before the buffer fills makes the Algorithm 2
        termination test (``buffer full AND LBS > max``) a single
        comparison.
        """
        if not self.is_full:
            return float("inf")
        return self._max

    def _merge(self, distances: np.ndarray, ids: np.ndarray) -> None:
        all_distances = np.concatenate([self._distances, distances])
        all_ids = np.concatenate([self._ids, ids])
        if all_distances.size > self._k:
            # The k smallest by (distance, id) all lie at or below the k-th
            # smallest distance: an O(n) partition finds it, so only those
            # candidates are sorted, whatever order they arrived in.
            kth = np.partition(all_distances, self._k - 1)[self._k - 1]
            near = np.flatnonzero(all_distances <= kth)
            order = near[np.lexsort((all_ids[near], all_distances[near]))[: self._k]]
            all_distances = all_distances[order]
            all_ids = all_ids[order]
        self._distances = all_distances
        self._ids = all_ids
        if self._distances.size >= self._k:
            self._max = float(self._distances.max())

    def offer(self, distance: float, point_id: int) -> bool:
        """Insert a candidate; returns True when it entered the buffer."""
        distance = float(distance)
        point_id = int(point_id)
        if self.is_full:
            # Reject candidates that cannot displace the current worst
            # (equal distance displaces only a larger id).
            if distance > self._max:
                return False
            if distance == self._max and point_id >= int(self._worst_id()):
                return False
        self._merge(np.array([distance]), np.array([point_id], dtype=np.int64))
        return True

    def _worst_id(self) -> int:
        worst = self._distances == self._distances.max()
        return int(self._ids[worst].max())

    def offer_many(self, distances: np.ndarray, point_ids: np.ndarray) -> None:
        """Insert a batch of candidates with one vectorized merge."""
        distances = np.ascontiguousarray(distances, dtype=np.float64)
        point_ids = np.ascontiguousarray(point_ids, dtype=np.int64)
        if distances.size == 0:
            return
        self._merge(distances, point_ids)

    def as_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, distances)`` ascending by distance (ties by id)."""
        order = np.lexsort((self._ids, self._distances))
        return self._ids[order].copy(), self._distances[order].copy()


@dataclass(frozen=True)
class TopKResult:
    """Outcome of a top-k nearest neighbor query.

    Attributes
    ----------
    ids:
        Point ids of the result, ascending by hyperplane distance.
    distances:
        Matching hyperplane distances ``|<a, phi(x)> - b| / |a|``.
    n_checked:
        Number of points whose scalar product was actually evaluated
        (the Table 3 "checked points" metric).
    n_total:
        Number of indexed points at query time.
    stats:
        Uniform pruning diagnostics (same shape as inequality queries'
        :class:`~repro.core.planar.QueryResult.stats`).  ``None`` only for
        producers predating the observability layer; the Planar index and
        the scan baseline always populate it, with ``n_verified`` equal to
        ``n_checked``.
    degraded:
        ``None`` for normal answers; the sharded engine attaches a
        :class:`~repro.reliability.degraded.DegradedInfo` when shard
        failures were recovered or the answer is partial (see
        ``docs/reliability.md``).
    """

    ids: np.ndarray
    distances: np.ndarray
    n_checked: int
    n_total: int
    stats: QueryStats | None = None
    degraded: DegradedInfo | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))
        object.__setattr__(
            self, "distances", np.ascontiguousarray(self.distances, dtype=np.float64)
        )

    @property
    def checked_fraction(self) -> float:
        """Checked points / total points (0 when the index is empty)."""
        if self.n_total == 0:
            return 0.0
        return self.n_checked / self.n_total

    def __len__(self) -> int:
        return int(self.ids.size)

    def to_dict(self) -> dict:
        """JSON-friendly summary (ids/distances included as lists)."""
        return {
            "ids": self.ids.tolist(),
            "distances": self.distances.tolist(),
            "n_checked": self.n_checked,
            "n_total": self.n_total,
            "stats": self.stats.to_dict() if self.stats is not None else None,
        }
