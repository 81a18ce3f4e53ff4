"""Multiple Planar indices under one budget (Section 5).

A single Planar index only prunes well when its hyperplanes are nearly
parallel to the query hyperplane.  Because the exact query normal is
unknown, the paper maintains ``r`` indices whose normals are sampled
uniformly from the query-parameter domains (Section 5.2), removes redundant
(mutually parallel) normals, and picks the best index per query with an
``O(r d')`` heuristic (Section 5.1).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

import numpy as np

from .._util import as_rng
from ..analysis.contracts import array_contract
from ..exceptions import IndexBuildError, InvalidQueryError
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..obs.explain import ExplainReport, IndexCandidate
from .domains import QueryModel
from .feature_store import FeatureStore
from .planar import PlanarIndex, QueryResult, QueryStats, WorkingQuery
from .query import ScalarProductQuery
from .selection import (
    Selector,
    SelectionStrategy,
    angle_cosines,
    make_selector,
    stretch_scores,
)
from .topk import TopKResult

__all__ = ["PlanarIndexCollection", "dedupe_parallel_normals"]

# Two normals closer than this angle (radians) are considered parallel and
# therefore redundant (Section 5.2).  float64 cannot resolve angles below
# ~1e-8 near zero (arccos(1 - eps) ~ sqrt(2 eps)), so the tolerance sits
# safely above that.
_PARALLEL_TOL = 1e-7

# Verifying one intermediate-interval point costs a few times a
# sequentially scanned point (scattered gather vs streaming matmul), so
# once the interval exceeds this fraction of the data a direct scan is the
# cheaper *exact* plan.  This mirrors a database optimizer preferring a
# table scan over an unselective index.
_SCAN_FALLBACK_FRACTION = 0.2


@array_contract("normals: (r, d) float64 cast", returns="(k,) int64")
def dedupe_parallel_normals(normals: np.ndarray, tol: float = _PARALLEL_TOL) -> np.ndarray:
    """Drop normals parallel to an earlier one (Section 5.2 redundancy rule).

    Returns the row indices of the kept normals, preserving order.  The
    check is vectorized: each candidate is compared against all kept unit
    normals at once.  Two normals are *parallel* iff
    ``|cos(angle)| >= cos(tol)`` — the same rule :meth:`add_index` applies,
    evaluated directly on cosines (the arccos round trip loses resolution
    exactly where it matters, near angle 0).

    Zero rows are rejected up front with a clear error: a zero normal can
    never index anything, and letting it through only to fail deep inside
    ``PlanarIndex`` construction with an octant-sign message is a
    diagnosis trap.
    """
    normals = np.ascontiguousarray(normals, dtype=np.float64)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    zero_rows = np.nonzero(lengths[:, 0] == 0.0)[0]
    if zero_rows.size:
        raise IndexBuildError(
            "index normals must be nonzero: "
            f"zero rows at positions {zero_rows[:5].tolist()}"
        )
    units = normals / lengths
    cos_tol = np.cos(tol)
    kept: list[int] = []
    for row in range(normals.shape[0]):
        if kept:
            cosines = np.abs(units[kept] @ units[row])
            if float(cosines.max()) >= cos_tol:
                continue
        kept.append(row)
    return np.asarray(kept, dtype=np.int64)


class _SelectionCache:
    """Immutable snapshot of the member list plus its selection matrices.

    Best-index selection needs the stacked working normals and two derived
    row statistics; bundling them *with the member tuple they were computed
    from* into one object that is rebound atomically (a single attribute
    store) means a query thread that snapshots the cache once can never see
    a matrix from one index generation paired with the member list of
    another — the invariant that makes ``add_index``/``drop_index`` safe to
    run concurrently with queries (a racing query may route through the
    just-retired generation, but every generation answers exactly).
    """

    __slots__ = ("indices", "matrix", "row_min", "row_norm")

    def __init__(self, indices: Sequence[PlanarIndex]) -> None:
        self.indices: tuple[PlanarIndex, ...] = tuple(indices)
        matrix = np.vstack([index.working_normal for index in self.indices])
        self.matrix = matrix
        self.row_min = matrix.min(axis=1)
        self.row_norm = np.linalg.norm(matrix, axis=1)


class PlanarIndexCollection:
    """Budget-``r`` family of Planar indices over one shared feature store.

    Parameters
    ----------
    store:
        Shared feature storage (one copy of ``phi(x)`` for all indices).
    translator:
        Octant translator shared by every index; must already have observed
        the stored features.
    normals:
        Index normals, one row per index, in original coordinates.
        Redundant (parallel) rows are dropped.
    strategy:
        Best-index selection strategy (paper default: min-stretch, the
        volume heuristic used in all its experiments).
    obs_prefix:
        Prefix prepended to every member's positional observability label
        (``repro_indexed_points{index=...}`` and friends).  The sharded
        engine passes ``"s<shard>:"`` so sibling shards' indices never
        collide in the metric label space.
    """

    @array_contract("normals: (r, d) float64 cast")
    def __init__(
        self,
        store: FeatureStore,
        translator: Translator,
        normals: np.ndarray,
        strategy: SelectionStrategy | str = SelectionStrategy.MIN_STRETCH,
        rng: np.random.Generator | int | None = None,
        obs_prefix: str = "",
    ) -> None:
        normals = np.ascontiguousarray(normals, dtype=np.float64)
        if normals.ndim != 2 or normals.shape[0] == 0:
            raise IndexBuildError(
                f"normals must be a non-empty (r, d') matrix, got shape {normals.shape}"
            )
        keep = dedupe_parallel_normals(normals)
        self._store = store
        self._translator = translator
        self._obs_prefix = str(obs_prefix)
        # One matrix product computes every index's keys (Section 4.2's
        # <c, phi(x)> for all c at once); each index then only sorts.
        ids, rows = store.get_all()
        key_matrix = rows @ normals[keep].T  # repro: noqa(REP001) — bulk build-time keying, one matmul by design
        self._indices = [
            PlanarIndex(
                normals[row],
                store,
                translator,
                precomputed=(ids, key_matrix[:, position]),
                obs_label=self._label(position),
            )
            for position, row in enumerate(keep)
        ]
        self._selector: Selector = make_selector(strategy, rng)
        self._strategy = SelectionStrategy(strategy)
        self._refresh_selection_cache()

    @classmethod
    def _from_prebuilt(
        cls,
        store: FeatureStore,
        translator: Translator,
        prebuilt: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        strategy: SelectionStrategy | str,
        rng: np.random.Generator | int | None = None,
        obs_prefix: str = "",
    ) -> "PlanarIndexCollection":
        """Rebind a collection from persisted ``(normal, ids, keys)`` triples.

        The format-v3 load path: normals were deduped at build time and
        each index's keys were persisted in ascending order, so
        construction skips deduplication, bulk keying, and sorting — with
        ``mode="mmap"`` nothing here pages the key arrays in.
        """
        if not prebuilt:
            raise IndexBuildError("prebuilt collection needs at least one index")
        self = cls.__new__(cls)
        self._store = store
        self._translator = translator
        self._obs_prefix = str(obs_prefix)
        self._indices = [
            PlanarIndex(
                normal,
                store,
                translator,
                precomputed=(ids, keys),
                obs_label=self._label(position),
                presorted=True,
            )
            for position, (normal, ids, keys) in enumerate(prebuilt)
        ]
        self._selector = make_selector(strategy, rng)
        self._strategy = SelectionStrategy(strategy)
        self._refresh_selection_cache()
        return self

    def _label(self, position: int) -> str:
        """Observability label of the index at ``position``."""
        return f"{self._obs_prefix}{position}"

    def _relabel(self) -> None:
        """Re-align every member's obs label with its current position.

        Lifecycle mutations shift positions: dropping index 0 of three
        left survivors labelled {"1", "2"} while a subsequent
        ``add_index`` labelled the newcomer ``str(len)`` — which collides
        with a survivor and aliases two distinct indices in
        ``repro_interval_points_total`` / ``repro_indexed_points``.
        Relabelling after every mutation (carrying the gauges, see
        :meth:`PlanarIndex.set_obs_label`) keeps label == position as an
        invariant.
        """
        for position, index in enumerate(self._indices):
            index.set_obs_label(self._label(position))

    def _refresh_selection_cache(self) -> None:
        """Precompute per-index normal matrices for O(r d') vectorized
        selection — one numpy expression instead of a Python loop over
        indices (Section 5.1 requires selection to be dataset-independent
        and cheap; at Python speeds it must also be loop-free).  The
        snapshot is rebound atomically (see :class:`_SelectionCache`) so
        queries racing a lifecycle mutation stay consistent."""
        self._cache = _SelectionCache(self._indices)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_model(
        cls,
        store: FeatureStore,
        translator: Translator,
        model: QueryModel,
        budget: int,
        strategy: SelectionStrategy | str = SelectionStrategy.MIN_STRETCH,
        rng: np.random.Generator | int | None = None,
    ) -> "PlanarIndexCollection":
        """Sample ``budget`` index normals from the query model (Section 5.2)."""
        if budget <= 0:
            raise IndexBuildError(f"index budget must be positive, got {budget}")
        generator = as_rng(rng)
        normals = model.sample_normals(budget, generator)
        return cls(store, translator, normals, strategy, generator)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of (non-redundant) indices."""
        return len(self._indices)

    def __iter__(self) -> Iterator[PlanarIndex]:
        return iter(self._indices)

    def __getitem__(self, position: int) -> PlanarIndex:
        return self._indices[position]

    @property
    def strategy(self) -> SelectionStrategy:
        """The configured best-index selection strategy."""
        return self._strategy

    @property
    def normals(self) -> np.ndarray:
        """All index normals as an ``(r, d')`` matrix."""
        return np.vstack([index.normal for index in self._indices])

    def memory_bytes(self) -> int:
        """Key-structure footprint across all indices (excludes features)."""
        return sum(index.memory_bytes() for index in self._indices)

    # ------------------------------------------------------------------ #
    # Query routing
    # ------------------------------------------------------------------ #

    def working_query(self, query: ScalarProductQuery) -> WorkingQuery:
        """Transform a query once for use across all indices."""
        return WorkingQuery.build(query, self._translator)

    def select(self, query: ScalarProductQuery | WorkingQuery) -> PlanarIndex:
        """The best index for ``query`` under the configured strategy."""
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        cache = self._cache
        return cache.indices[self._select_position(wq, cache)]

    def _select_position(
        self, wq: WorkingQuery, cache: "_SelectionCache | None" = None
    ) -> int:
        """Vectorized fast paths for the two paper heuristics.

        Equivalent to :func:`~repro.core.selection.select_min_stretch` /
        ``select_min_angle`` but evaluated as one ``(r, d')`` numpy
        expression over the (snapshotted) selection cache.  Callers that
        will look the position up must pass the same ``cache`` snapshot
        they index into, so a concurrent lifecycle mutation cannot shift
        positions under them.
        """
        if cache is None:
            cache = self._cache
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        if self._strategy is SelectionStrategy.MIN_STRETCH:
            position = int(
                np.argmin(stretch_scores(cache.matrix, cache.row_min, wq))
            )
        elif self._strategy is SelectionStrategy.MIN_ANGLE:
            position = int(
                np.argmax(angle_cosines(cache.matrix, cache.row_norm, wq))
            )
        else:
            position = self._selector(cache.indices, wq)
        if obs_on:
            _osp.record("select", started, strategy=self._strategy.value, chosen=position)
            _om.selection_total().inc(
                strategy=self._strategy.value, index=str(position)
            )
        return position

    def _scan_result(
        self, wq: WorkingQuery, best: PlanarIndex, r_lo: int, r_hi: int, n: int
    ) -> QueryResult:
        """Cost-based scan fallback: exact answer by one streamed matmul.

        Pruning statistics stay interval-based (``si``/``ii``/``li`` from
        the chosen index's ranks) so Figures 9/10 metrics are unaffected by
        the routing decision; ``n_verified`` reflects the scan.
        """
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        ids, values = self._store.scan_values(wq.query.normal)
        mask = wq.op.evaluate(values, wq.query.offset)
        result_ids = ids[mask]
        if obs_on:
            _osp.record("scan", started, n=n)
            best._record_partition("inequality", r_lo, r_hi - r_lo, n - r_hi, n)
        stats = QueryStats(
            n_total=n,
            si_size=r_lo,
            ii_size=r_hi - r_lo,
            li_size=n - r_hi,
            n_verified=n,
            n_results=int(result_ids.size),
        )
        return QueryResult(result_ids, stats)

    def _query_impl(self, wq: WorkingQuery) -> tuple[QueryResult, str]:
        """Route one working query; returns the result and the route taken."""
        cache = self._cache
        best = cache.indices[self._select_position(wq, cache)]
        r_lo, r_hi, n = best.interval_ranks(wq)
        if r_hi - r_lo <= _SCAN_FALLBACK_FRACTION * n:
            return best.finish_query(wq, r_lo, r_hi), "intervals"
        return self._scan_result(wq, best, r_lo, r_hi, n), "scan"

    def query(self, query: ScalarProductQuery | WorkingQuery) -> QueryResult:
        """Answer an inequality query via the best index (or a scan).

        After best-index selection, a cost-based router checks the size of
        the intermediate interval: verifying it point-by-point costs a few
        times a streamed scan per point, so above
        ``_SCAN_FALLBACK_FRACTION`` of the data the exact answer is
        computed by one matmul over all live features instead — same
        answer, better worst case (the paper's "query time gets close to
        the baseline" regime).  Pruning statistics stay interval-based.
        A :class:`WorkingQuery` (the facade's octant check) is used as is.
        """
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        if not _ort.active():
            return self._query_impl(wq)[0]
        started = time.perf_counter()
        with _osp.span("collection.query", strategy=self._strategy.value):
            result, route = self._query_impl(wq)
        _om.queries_total().inc(
            kind="inequality", route=route, strategy=self._strategy.value
        )
        _om.query_latency().observe(
            time.perf_counter() - started, kind="inequality", route=route
        )
        return result

    def _group_ranks(
        self, index: PlanarIndex, working: list[WorkingQuery], members: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interval ranks of every group member via one vectorized search."""
        lows = np.empty(len(members))
        highs = np.empty(len(members))
        for slot, member in enumerate(members):
            t_lo, t_hi, tol = index._thresholds(working[member])
            lows[slot] = t_lo - tol
            highs[slot] = t_hi + tol
        keys = index._keys.sorted_keys
        rank_los = np.searchsorted(keys, lows, side="right")
        rank_his = np.searchsorted(keys, highs, side="right")
        return rank_los, rank_his

    @staticmethod
    def _merged_windows(members: list[tuple[int, int, int]]) -> list[list[int]]:
        """Disjoint union of the members' ``[r_lo, r_hi)`` rank windows.

        Merging overlapping windows bounds the union gather by the live
        row count even when every member verifies nearly the same
        interval — the GEMM then touches each candidate row once.
        """
        merged: list[list[int]] = []
        for r_lo, r_hi in sorted((m[1], m[2]) for m in members if m[2] > m[1]):
            if merged and r_lo <= merged[-1][1]:
                if r_hi > merged[-1][1]:
                    merged[-1][1] = r_hi
            else:
                merged.append([r_lo, r_hi])
        return merged

    def _gemm_values(
        self,
        index: PlanarIndex,
        working: list[WorkingQuery],
        members: list[tuple[int, int, int]],
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(union_ids, values)`` of one group's candidate verification.

        ``union_ids`` is the ascending union of every member's
        intermediate-interval ids and ``values[i, j]`` is
        ``<normal_j, phi(union_ids[i])>`` for member ``j``'s canonical
        query normal — one ``(rows × queries)`` GEMM over a contiguous
        gather instead of one matrix-vector product per member.  Returns
        ``(None, None)`` when every member's interval is empty.
        """
        merged = self._merged_windows(members)
        if not merged:
            return None, None
        union_ids = np.sort(
            np.concatenate(
                [index._keys.ids_in_rank_range(lo, hi) for lo, hi in merged]
            )
        )
        rows = self._store.take_rows(union_ids)
        normals = np.vstack([working[m].query.normal for m, _, _ in members])
        values = rows @ normals.T
        return union_ids, values

    def _finish_group(
        self,
        index: PlanarIndex,
        working: list[WorkingQuery],
        members: list[tuple[int, int, int]],
        results: list[QueryResult | None],
    ) -> None:
        """Finish one index group's interval-routed members off one GEMM."""
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        union_ids, values = self._gemm_values(index, working, members)
        if obs_on and union_ids is not None:
            _osp.record(
                "verify_II", started,
                index=index.obs_label,
                n_rows=int(union_ids.size),
                n_queries=len(members),
            )
        for column, (member, r_lo, r_hi) in enumerate(members):
            wq = working[member]
            if union_ids is None or r_hi <= r_lo:
                results[member] = index.finish_query(wq, r_lo, r_hi)
                continue
            member_ids = np.sort(index._keys.ids_in_rank_range(r_lo, r_hi))
            positions = np.searchsorted(union_ids, member_ids)
            results[member] = index.finish_query(
                wq, r_lo, r_hi, precomputed=(member_ids, values[positions, column])
            )

    def _scan_group(
        self,
        working: list[WorkingQuery],
        members: list[tuple[int, PlanarIndex, int, int, int]],
        results: list[QueryResult | None],
    ) -> None:
        """Answer every scan-routed member (across all groups) off one GEMM.

        Batched twin of :meth:`_scan_result`: one
        :meth:`FeatureStore.scan_values_many` call replaces one streamed
        matmul per query; per-query stats and partition counters are
        recorded exactly as the single-query path records them.
        """
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        normals = np.vstack(
            [working[member].query.normal for member, *_ in members]
        )
        ids, values = self._store.scan_values_many(normals)
        if obs_on:
            _osp.record("scan", started, n_queries=len(members))
        for column, (member, index, r_lo, r_hi, n) in enumerate(members):
            wq = working[member]
            mask = wq.op.evaluate(values[:, column], wq.query.offset)
            result_ids = ids[mask]
            if obs_on:
                index._record_partition(
                    "inequality", r_lo, r_hi - r_lo, n - r_hi, n
                )
            results[member] = QueryResult(
                result_ids,
                QueryStats(
                    n_total=n,
                    si_size=r_lo,
                    ii_size=r_hi - r_lo,
                    li_size=n - r_hi,
                    n_verified=n,
                    n_results=int(result_ids.size),
                ),
            )

    def query_batch(self, queries: Sequence[ScalarProductQuery]) -> list[QueryResult]:
        """Answer many inequality queries with batched searches and GEMMs.

        Queries are grouped by their selected index; each group's interval
        boundaries come from one vectorized ``searchsorted`` over the
        group's thresholds, the group's candidate verification is one
        ``(rows × queries)`` matrix product over the union of the
        members' intermediate intervals, and scan-routed queries from
        *all* groups share one multi-normal store scan.  Results are
        positionally aligned with ``queries`` and identical to per-query
        :meth:`query` calls (including the cost-based scan routing);
        ``QueryStats`` are still computed per query.
        """
        obs_on = _ort.active()
        batch_started = time.perf_counter() if obs_on else 0.0
        working = [self.working_query(query) for query in queries]
        cache = self._cache
        groups: dict[int, list[int]] = {}
        for position, wq in enumerate(working):
            groups.setdefault(self._select_position(wq, cache), []).append(position)

        results: list[QueryResult | None] = [None] * len(queries)
        scan_members: list[tuple[int, PlanarIndex, int, int, int]] = []
        n_intervals = 0
        for index_position, members in groups.items():
            index = cache.indices[index_position]
            rank_los, rank_his = self._group_ranks(index, working, members)
            n = len(index)
            interval_members: list[tuple[int, int, int]] = []
            for slot, member in enumerate(members):
                r_lo, r_hi = int(rank_los[slot]), int(rank_his[slot])
                if r_hi - r_lo <= _SCAN_FALLBACK_FRACTION * n:
                    interval_members.append((member, r_lo, r_hi))
                    n_intervals += 1
                else:
                    scan_members.append((member, index, r_lo, r_hi, n))
            if interval_members:
                self._finish_group(index, working, interval_members, results)
        n_scans = len(scan_members)
        if scan_members:
            self._scan_group(working, scan_members, results)
        if obs_on:
            strategy = self._strategy.value
            counter = _om.queries_total()
            if n_intervals:
                counter.inc(n_intervals, kind="batch", route="intervals", strategy=strategy)
            if n_scans:
                counter.inc(n_scans, kind="batch", route="scan", strategy=strategy)
            _osp.record("collection.query_batch", batch_started, n_queries=len(queries))
            _om.query_latency().observe(
                time.perf_counter() - batch_started, kind="batch", route="mixed"
            )
        return results  # type: ignore[return-value]

    def topk(
        self,
        query: ScalarProductQuery | WorkingQuery,
        k: int,
        cutoff: "SharedCutoff | None" = None,
    ) -> TopKResult:
        """Answer a top-k nearest neighbor query via the best index.

        ``cutoff`` threads a :class:`~repro.core.topk.SharedCutoff` into
        Algorithm 2's LBS termination test — the sharded engine shares one
        across sibling shards so the globally best k-th distance prunes
        every shard's scan (see :meth:`PlanarIndex.topk`).
        """
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        if not _ort.active():
            return self.select(wq).topk(wq, k, cutoff=cutoff)
        started = time.perf_counter()
        with _osp.span("collection.topk", strategy=self._strategy.value, k=k):
            result = self.select(wq).topk(wq, k, cutoff=cutoff)
        _om.queries_total().inc(
            kind="topk", route="intervals", strategy=self._strategy.value
        )
        _om.query_latency().observe(
            time.perf_counter() - started, kind="topk", route="intervals"
        )
        return result

    def topk_batch(
        self, queries: Sequence[ScalarProductQuery], k: int
    ) -> list[TopKResult]:
        """Answer many top-k queries, batching selection and II verification.

        Queries are grouped by their selected index; each group's
        intermediate-interval candidates are verified with one
        ``(rows × queries)`` GEMM (the same union-window gather as
        :meth:`query_batch`), after which each member runs its own LBS
        cutoff scan — that walk is adaptive per query and inherently
        sequential (Algorithm 2), so only the verification stage batches.
        Results are positionally aligned and identical to per-query
        :meth:`topk` calls.
        """
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        obs_on = _ort.active()
        batch_started = time.perf_counter() if obs_on else 0.0
        working = [self.working_query(query) for query in queries]
        cache = self._cache
        groups: dict[int, list[int]] = {}
        for position, wq in enumerate(working):
            groups.setdefault(self._select_position(wq, cache), []).append(position)

        results: list[TopKResult | None] = [None] * len(queries)
        for index_position, members in groups.items():
            index = cache.indices[index_position]
            rank_los, rank_his = self._group_ranks(index, working, members)
            n = len(index)
            bounded = [
                (member, int(rank_los[slot]), int(rank_his[slot]))
                for slot, member in enumerate(members)
            ]
            union_ids, values = self._gemm_values(index, working, bounded)
            for column, (member, r_lo, r_hi) in enumerate(bounded):
                wq = working[member]
                if union_ids is None or r_hi <= r_lo:
                    ids_ii = np.sort(index._keys.ids_in_rank_range(r_lo, r_hi))
                    values_ii = None
                else:
                    ids_ii = np.sort(index._keys.ids_in_rank_range(r_lo, r_hi))
                    positions = np.searchsorted(union_ids, ids_ii)
                    values_ii = values[positions, column]
                results[member] = index._topk_from_ii(
                    wq, k, None, r_lo, r_hi, n, ids_ii, values_ii
                )
        if obs_on:
            _om.queries_total().inc(
                len(queries), kind="topk", route="intervals",
                strategy=self._strategy.value,
            )
            _osp.record(
                "collection.topk_batch", batch_started, n_queries=len(queries), k=k
            )
            _om.query_latency().observe(
                time.perf_counter() - batch_started, kind="batch", route="topk"
            )
        return results  # type: ignore[return-value]

    def query_range(self, wq_low: WorkingQuery, wq_high: WorkingQuery) -> QueryResult:
        """Exact BETWEEN query routed through best-index selection.

        ``wq_low`` / ``wq_high`` are the ``>= low`` / ``<= high`` working
        queries over one shared normal (the facade builds them once for
        octant validation).  Selection uses the high bound; metrics are
        recorded here under the collection's real strategy label —
        matching how :meth:`query` and :meth:`topk` label — instead of
        the ``strategy="solo"`` series the standalone
        :meth:`PlanarIndex.query_range` entry point reports.
        """
        if not _ort.active():
            return self.select(wq_high)._query_range_impl(wq_low, wq_high)
        started = time.perf_counter()
        with _osp.span("collection.query_range", strategy=self._strategy.value):
            result = self.select(wq_high)._query_range_impl(wq_low, wq_high)
        _om.queries_total().inc(
            kind="range", route="intervals", strategy=self._strategy.value
        )
        _om.query_latency().observe(
            time.perf_counter() - started, kind="range", route="intervals"
        )
        return result

    # ------------------------------------------------------------------ #
    # EXPLAIN (see docs/observability.md)
    # ------------------------------------------------------------------ #

    def explain(self, query: ScalarProductQuery) -> ExplainReport:
        """Execute ``query`` and report selection, partition, and pruning.

        The report scores *every* candidate index (stretch, |cos| angle,
        and the intermediate-interval size an ``interval_ranks`` probe
        predicts), marks the one the configured strategy chose, then
        executes the query through exactly the same routing as
        :meth:`query` — so the reported SI/II/LI sizes, verification count
        and result count are identical to what :meth:`query` returns for
        the same query (deterministic strategies).  ``estimated_pruned``
        is the interval promise ``(|SI|+|LI|)/n``; ``actual_pruned`` is
        the measured fraction of points never verified (0 when the
        cost-based router chose the scan).
        """
        wq = self.working_query(query)
        cache = self._cache
        chosen = self._select_position(wq, cache)
        candidates = []
        ranks: list[tuple[int, int, int]] = []
        for position, index in enumerate(cache.indices):
            r_lo_c, r_hi_c, n_c = index.interval_ranks(wq)
            ranks.append((r_lo_c, r_hi_c, n_c))
            candidates.append(
                IndexCandidate(
                    position=position,
                    stretch=index.max_stretch(wq),
                    angle_cos=index.angle_cosine(wq),
                    expected_ii=r_hi_c - r_lo_c,
                    chosen=position == chosen,
                )
            )
        best = cache.indices[chosen]
        r_lo, r_hi, n = ranks[chosen]
        if r_hi - r_lo <= _SCAN_FALLBACK_FRACTION * n:
            route = "intervals"
            result = best.finish_query(wq, r_lo, r_hi)
        else:
            route = "scan"
            result = self._scan_result(wq, best, r_lo, r_hi, n)
        stats = result.stats
        if _ort.active():
            _om.explain_total().inc(route=route)
        return ExplainReport(
            kind="inequality",
            route=route,
            n_total=n,
            strategy=self._strategy.value,
            chosen_index=chosen,
            index_normal=tuple(float(c) for c in best.normal),
            candidates=tuple(candidates),
            rank_lo=r_lo,
            rank_hi=r_hi,
            si_size=stats.si_size,
            ii_size=stats.ii_size,
            li_size=stats.li_size,
            n_verified=stats.n_verified,
            n_results=stats.n_results,
            estimated_pruned=stats.pruned_fraction,
            actual_pruned=1.0 - stats.verified_fraction if n else 1.0,
        )

    # ------------------------------------------------------------------ #
    # Maintenance (Sections 4.2 and 4.4)
    # ------------------------------------------------------------------ #

    @array_contract("normal: (d,) float64 cast")
    def add_index(self, normal: np.ndarray) -> bool:
        """Dynamically introduce a new Planar index (skips redundant normals).

        Returns ``True`` when the index was added.  This is the operation
        the paper recommends for adapting to drifting query domains
        ("deletion of old indices as well as inclusion of new indices",
        Section 4.2).

        Redundancy uses the *same* rule as construction
        (:func:`dedupe_parallel_normals`): parallel iff
        ``|cos(angle)| >= cos(_PARALLEL_TOL)``, compared directly on
        cosines.  The previous ``angle_between(...) <= tol`` formulation
        round-tripped through ``arccos``, whose float64 resolution near 0
        (~``sqrt(2 eps)``) classified near-threshold normals differently
        from the construction path.
        """
        normal = np.ascontiguousarray(normal, dtype=np.float64)
        length = float(np.linalg.norm(normal))
        if length == 0.0:
            raise IndexBuildError("index normals must be nonzero")
        unit = normal / length
        existing = self.normals
        existing_units = existing / np.linalg.norm(existing, axis=1, keepdims=True)
        cosines = np.abs(existing_units @ unit)
        if float(cosines.max()) >= np.cos(_PARALLEL_TOL):
            return False
        newcomer = PlanarIndex(
            normal,
            self._store,
            self._translator,
            obs_label=self._label(len(self._indices)),
        )
        # Rebind rather than append in place: a query thread holding the
        # previous member list (via its cache snapshot) keeps a stable view.
        self._indices = [*self._indices, newcomer]
        self._relabel()
        self._refresh_selection_cache()
        return True

    def drop_index(self, position: int) -> None:
        """Remove the index at ``position``; at least one index must remain.

        Survivors are relabelled to their new positions (gauges carried,
        the dropped index's gauge series retired) so observability labels
        always equal positions — see :meth:`_relabel`.
        """
        if len(self._indices) <= 1:
            raise IndexBuildError("cannot drop the last index of a collection")
        dropped = self._indices[position]
        # Rebind to a survivor list (never `del` in place) so concurrent
        # query threads keep the generation their cache snapshot names.
        self._indices = [
            index for index in self._indices if index is not dropped
        ]
        dropped.release_obs_label()
        self._relabel()
        self._refresh_selection_cache()

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def rekey(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Propagate a feature update (changed rows only) to every index."""
        for index in self._indices:
            index.rekey(ids, rows)

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def insert(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Propagate newly appended points to every index."""
        for index in self._indices:
            index.insert(ids, rows)

    @array_contract("ids: (m,) int64 cast")
    def delete(self, ids: np.ndarray) -> None:
        """Propagate deletions to every index."""
        for index in self._indices:
            index.delete(ids)
