"""Naive sequential scan over all feature vectors.

This is both the correctness oracle for every test in this repository and
the baseline the paper compares against: ``O(n d')`` per inequality query
and ``O(n d' + n log k)`` per top-k query, independent of any index.

The oracle is exact: every row is decided by :mod:`repro.core.exact`, so an
answer is what real arithmetic on the stored float64 values gives, even for
points on or within rounding error of the query hyperplane, and a reported
top-k distance is the exactly rounded residual over ``|a|``.  The forward
error bound comes from the column maxima of the held rows.
"""

from __future__ import annotations

import time

import numpy as np

from .._util import as_2d_float
from ..analysis.contracts import array_contract
from ..core import exact
from ..core.query import ScalarProductQuery
from ..core.stats import QueryStats
from ..core.topk import TopKBuffer, TopKResult
from ..exceptions import DimensionMismatchError, InvalidQueryError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp

__all__ = ["SequentialScan"]


class SequentialScan:
    """Answer scalar product queries by evaluating every point.

    Parameters
    ----------
    features:
        ``(n, d')`` matrix of ``phi(x)`` values.
    ids:
        Optional point ids (defaults to row numbers) so results are
        comparable with indexed answers.
    """

    @array_contract("features: (n, d) float64 cast promote", "ids: ?(n,) int64 cast")
    def __init__(self, features: np.ndarray, ids: np.ndarray | None = None) -> None:
        self._features = as_2d_float(features, "features")
        if ids is None:
            ids = np.arange(self._features.shape[0], dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.size != self._features.shape[0]:
                raise DimensionMismatchError(
                    f"{ids.size} ids for {self._features.shape[0]} feature rows"
                )
        self._ids = ids
        self._column_max = np.abs(self._features).max(axis=0, initial=0.0)

    def __len__(self) -> int:
        return int(self._features.shape[0])

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'``."""
        return int(self._features.shape[1])

    def _check(self, query: ScalarProductQuery) -> None:
        if query.dim != self.dim:
            raise InvalidQueryError(
                f"query has dimension {query.dim}, data has {self.dim}"
            )

    @array_contract(returns="(k,) int64")
    def query(self, query: ScalarProductQuery) -> np.ndarray:
        """All point ids satisfying the inequality, ascending."""
        self._check(query)
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        keep, _ = exact.satisfying(
            self._features, query, exact.column_bound(query, self._column_max)
        )
        result = np.sort(self._ids[keep])
        if obs_on:
            _osp.record("baseline.query", started, n=len(self))
            _om.verified_points().inc(len(self), kind="scan")
            _om.count_query("scan", "baseline", "none", started)
        return result

    def topk(self, query: ScalarProductQuery, k: int) -> TopKResult:
        """Exact top-k satisfying points by hyperplane distance."""
        self._check(query)
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        keep, values = exact.satisfying(
            self._features, query, exact.column_bound(query, self._column_max)
        )
        # Rank by the BLAS distances as the index does, ties by row (the id
        # order for ascending ids); then report the winners' exact distances.
        buffer = TopKBuffer(k)
        buffer.offer_many(np.abs(values[keep] - query.offset) / np.linalg.norm(query.normal), keep)
        chosen, _ = buffer.as_sorted()
        winners, distances = exact.sorted_by_distance(
            self._ids[chosen], self._features[chosen], query
        )
        if obs_on:
            _osp.record("baseline.topk", started, n=len(self), k=k)
            _om.verified_points().inc(len(self), kind="scan_topk")
            _om.count_query("scan_topk", "baseline", "none", started)
        # The scan has no intervals: everything is "intermediate" and every
        # point's scalar product is evaluated.
        stats = QueryStats(
            n_total=len(self),
            si_size=0,
            ii_size=len(self),
            li_size=0,
            n_verified=len(self),
            n_results=int(winners.size),
        )
        return TopKResult(
            ids=winners,
            distances=distances,
            n_checked=len(self),
            n_total=len(self),
            stats=stats,
        )
