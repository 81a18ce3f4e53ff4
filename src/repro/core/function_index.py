"""User-facing facade: index a function over data points (the paper's title).

:class:`FunctionIndex` owns the whole pipeline of the paper:

* apply the application-specific function ``phi`` to the raw data points,
* derive the working octant from the query-parameter domains and translate
  (Section 4.5),
* maintain a budget of Planar indices sampled from those domains
  (Section 5.2),
* route each incoming query through best-index selection (Section 5.1) to
  Algorithm 1 / Algorithm 2,
* keep everything consistent under dynamic point updates, inserts, and
  deletes (Section 4.4).

Queries whose parameters fall outside the indexed octant cannot use the
interval argument; they are answered by an exact sequential scan and
flagged as such in the answer (``used_fallback``).

The sharded engine (:class:`~repro.parallel.engine.ShardedFunctionIndex`)
subclasses :class:`FunctionIndex` and only replaces how a query's or a
write's per-collection calls reach the collections
(:meth:`FunctionIndex._fan_out`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .._util import as_2d_float, as_rng, require_finite_rows, require_unique
from ..exceptions import DimensionMismatchError, IndexBuildError, InvalidQueryError
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import trace as _otr
from ..reliability.degraded import DegradedInfo
from ..obs.explain import ExplainReport
from . import exact
from .collection import Choice, PlanarIndexCollection
from .domains import QueryModel
from .feature_store import FeatureStore
from .phi import FeatureMap, identity_map
from .planar import QueryResult, QueryStats, WorkingQuery
from .query import Comparison, ScalarProductQuery
from .selection import SelectionStrategy
from .topk import SharedCutoff, TopKBuffer, TopKResult

# Workload recording hook (repro.tuning).  Import-order safe: the recorder
# module itself depends only on repro.exceptions / repro.obs, and the
# advisor (pulled in by the tuning package) imports only core submodules
# that are fully initialized before this module (collection, planar, query,
# selection).  The hot-path guard is one module-attribute read when
# recording is disarmed.
from ..tuning import recorder as _tnr

__all__ = ["FunctionIndex", "QueryAnswer", "scan_store"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class QueryAnswer:
    """Answer to an inequality query through the facade.

    ``stats`` is ``None`` (and ``used_fallback`` True) when the query could
    not use the Planar machinery and was answered by a sequential scan.

    ``degraded`` is ``None`` for normal answers; the sharded engine attaches
    a :class:`~repro.reliability.degraded.DegradedInfo` when shard failures
    were recovered or the answer is partial (see ``docs/reliability.md``).
    """

    ids: np.ndarray
    stats: QueryStats | None
    used_fallback: bool
    degraded: DegradedInfo | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.ids.size)


def scan_store(
    store: Any,
    kind: str,
    queries: Sequence[ScalarProductQuery],
    k: int | None = None,
) -> list:
    """Exact answers over every live row of ``store``, without an index.

    One entry per query: a :class:`TopKResult` from
    :class:`~repro.scan.baseline.SequentialScan` when ``k`` is given,
    else the ascending ids satisfying the query.  A ``"range"`` task's
    ``(>= low, <= high)`` pair is one BETWEEN query with one entry.
    Inequalities are decided by :mod:`repro.core.exact` as the scan
    baseline's are, but without its ``baseline`` metric series (the
    callers report their own route).  Backs both the octant fallback and
    the recovery of a failed shard (:func:`_scanned`).
    """
    from ..scan.baseline import SequentialScan

    ids, rows = store.get_all()
    if k is not None:
        scan = SequentialScan(rows, ids)
        return [scan.topk(query, k) for query in queries]
    if kind == "range":
        low_q, high_q = queries
        keep, _ = exact.satisfying(rows, low_q)
        inside, _ = exact.satisfying(rows[keep], high_q)
        return [ids[keep[inside]]]
    return [ids[exact.satisfying(rows, query)[0]] for query in queries]


def _scanned(
    store: Any,
    kind: str,
    queries: Sequence[ScalarProductQuery],
    k: int | None = None,
) -> list:
    """:func:`scan_store`'s answers shaped as a collection's slices.

    The exact stand-in for a failed shard's slice: an id answer becomes
    a :class:`QueryResult` whose stats count every row as verified and
    none as pruned.
    """
    answers = scan_store(store, kind, queries, k)
    if k is not None:
        return answers
    n = len(store)
    return [QueryResult(ids, QueryStats(n, 0, n, 0, n, int(ids.size))) for ids in answers]


def _merge_answer(
    parts: Sequence[Any], degraded: DegradedInfo | None
) -> QueryAnswer:
    """Disjoint sorted per-collection id sets merge into one sorted answer.

    A stable sort runs as timsort, which merges the sorted runs rather
    than sorting them again.  ``None`` entries (unrecovered shards under
    a degrading policy) are skipped; their absence is what
    ``degraded.completeness`` accounts.
    """
    present = [part for part in parts if part is not None]
    if len(present) == 1:
        only = present[0]
        return QueryAnswer(only.ids, only.stats, False, degraded)
    ids = np.sort(np.concatenate([part.ids for part in present]), kind="stable")
    stats = QueryStats.merged(part.stats for part in present)
    return QueryAnswer(ids, stats, False, degraded)


def _merge_topk(
    parts: Sequence[TopKResult | None],
    k: int,
    n_total: int,
    degraded: DegradedInfo | None,
) -> TopKResult:
    """Merge one query's per-collection top-k slices into the global answer.

    One :class:`TopKBuffer` applies the distance-then-id tie-break, so the
    merged ids, distances and ties equal one scan over the union.
    """
    if len(parts) == 1 and degraded is None and parts[0] is not None:
        return parts[0]
    present = [part for part in parts if part is not None]
    buffer = TopKBuffer(k)
    for part in present:
        buffer.offer_many(part.distances, part.ids)
    ids, distances = buffer.as_sorted()
    stats = [part.stats for part in present]
    return TopKResult(
        ids=ids,
        distances=distances,
        n_checked=sum(part.n_checked for part in present),
        n_total=n_total,
        stats=QueryStats.merged(stats) if all(p is not None for p in stats) else None,
        degraded=degraded,
    )


class FunctionIndex:
    """Planar-indexed evaluation of ``<a, phi(x)> OP b`` queries.

    Parameters
    ----------
    points:
        ``(n, d)`` raw data points.
    query_model:
        Per-axis domains of the query parameters ``a`` (Section 4.1); also
        determines the working octant and the index-normal distribution.
    feature_map:
        The indexed function ``phi``; identity by default (half-space
        search).
    n_indices:
        Index budget ``r`` (Section 5.2).  Ignored when ``normals`` is
        given.
    normals:
        Optional explicit ``(r, d')`` index normals instead of sampling
        from the query model — e.g. the MOVIES-style per-time-slot normals
        of the moving-object application (Section 7.5.1).
    strategy:
        Best-index heuristic (default: counted |II| against a key sketch;
        the paper's min-stretch / volume heuristic is ``"min_stretch"``).
    rng:
        Seed or generator for index-normal sampling.

    Every query validates and octant-translates (a query outside the
    octant is answered by the exact fallback scan), records its workload
    sketch, chooses one index per query for every Planar index
    collection (:meth:`_choose`), then runs one call per collection
    through :meth:`_fan_out` and merges the slices; the whole call is one
    trace (:meth:`_traced`).  Writes reach the collections through the
    same :meth:`_fan_out`.  The sharded engine
    (:class:`~repro.parallel.engine.ShardedFunctionIndex`) is this class
    with one collection per shard: it overrides :meth:`_fan_out` only.
    """

    def __init__(
        self,
        points: np.ndarray,
        query_model: QueryModel,
        feature_map: FeatureMap | None = None,
        n_indices: int = 10,
        normals: np.ndarray | None = None,
        strategy: SelectionStrategy | str = SelectionStrategy.COUNTED,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self._bind(points, query_model, feature_map, rng)
        self._collections = self._index_collections(
            [(self._features, "")], n_indices, normals, strategy
        )

    def _bind(
        self,
        points: np.ndarray,
        query_model: QueryModel,
        feature_map: FeatureMap | None,
        rng: np.random.Generator | int | None,
    ) -> None:
        """Validate and store the points, ``phi(points)`` and the translator."""
        pts = as_2d_float(points, "points")
        if feature_map is None:
            feature_map = identity_map(pts.shape[1])
        if feature_map.in_dim != pts.shape[1]:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, feature map expects "
                f"{feature_map.in_dim}"
            )
        if query_model.dim != feature_map.out_dim:
            raise DimensionMismatchError(
                f"query model has dimension {query_model.dim}, feature map "
                f"produces {feature_map.out_dim}"
            )
        self._phi = feature_map
        self._model = query_model
        self._rng = as_rng(rng)

        features = feature_map(pts)
        self._features = FeatureStore(features)
        self._points = self._raw_store(pts)
        self._translator = Translator(query_model.octant())
        self._translator.observe(features)

    def _raw_store(self, points: np.ndarray) -> FeatureStore:
        """The store :meth:`get_points` reads, bound after ``_features``.

        Under the identity map it *is* the feature store, so each row is
        held once; otherwise ``points`` get their own store, read-only
        when the feature store is (a memory-mapped load).
        """
        if self._phi.is_identity:
            return self._features
        if not self._features.writable:
            return FeatureStore.from_backing(points)
        return FeatureStore(points)

    def _index_collections(
        self,
        stores: Sequence[tuple[Any, str]],
        n_indices: int,
        normals: np.ndarray | None,
        strategy: SelectionStrategy | str,
    ) -> list[PlanarIndexCollection]:
        """One collection per ``(store, obs prefix)``, all on the same normals.

        Without explicit ``normals``, ``n_indices`` are sampled from the
        query model (Section 5.2) with the facade's generator.
        """
        if normals is None:
            if n_indices <= 0:
                raise IndexBuildError(
                    f"index budget must be positive, got {n_indices}"
                )
            normals = self._model.sample_normals(n_indices, self._rng)
        return [
            PlanarIndexCollection(
                store, self._translator, normals, strategy, self._rng, obs_prefix=prefix
            )
            for store, prefix in stores
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of live indexed points."""
        return len(self._features)

    @property
    def feature_map(self) -> FeatureMap:
        """The indexed function ``phi``."""
        return self._phi

    @property
    def query_model(self) -> QueryModel:
        """The configured query-parameter domains."""
        return self._model

    @property
    def translator(self) -> Translator:
        """The octant translator shared by every collection."""
        return self._translator

    @property
    def n_indices(self) -> int:
        """Number of live Planar indices (per collection)."""
        return len(self._collections[0])

    def memory_bytes(self) -> int:
        """Footprint of every distinct store (a shard's view included) and all key structures."""
        stores = {self._features, self._points}
        stores.update(collection._store for collection in self._collections)
        return sum(store.memory_bytes() for store in stores) + sum(
            collection.memory_bytes() for collection in self._collections
        )

    def get_points(self, ids: np.ndarray) -> np.ndarray:
        """Raw data points for the given ids."""
        return self._points.get(ids)

    def get_features(self, ids: np.ndarray) -> np.ndarray:
        """Feature vectors ``phi(x)`` for the given ids."""
        return self._features.get(ids)

    def live_ids(self) -> np.ndarray:
        """All live point ids (ascending)."""
        return self._features.live_ids()

    # ------------------------------------------------------------------ #
    # Execution hooks
    # ------------------------------------------------------------------ #

    def _fan_out(
        self,
        kind: str,
        call: Callable[[int, Any], _T],
        ids: np.ndarray | None = None,
        recover: Callable[[Any], _T] | None = None,
        timeout_s: float | None = None,
    ) -> tuple[list[_T | None], DegradedInfo | None]:
        """Run ``call(i, rows)`` on every collection ``i`` owning some of
        ``ids`` (every collection when ``None``): ``(slices, degraded)``.

        ``rows`` selects the collection's share of ``ids``.  A query
        passes ``recover(store)``, the exact slice from a scan of a
        collection's store, so an implementation can replace a lost
        slice, and ``timeout_s`` bounds it; a write passes neither.  The
        one collection here owns every id and needs neither.
        """
        return [call(0, slice(None))], None

    def _choose(self, working: Sequence[WorkingQuery]) -> list[list[Choice]]:
        """Each collection's choices for one wave over ``working``.

        Every collection's selection snapshot is read once for the wave,
        and :meth:`PlanarIndexCollection.wave_choices` chooses one index
        per working query for all of them from one threshold matrix.
        While an ``add_index``/``drop_index`` is still reaching the
        collections one by one their normals differ, and each collection
        chooses over its own snapshot instead.
        """
        caches = [collection.snapshot for collection in self._collections]
        columns = caches[0].columns
        if all(np.array_equal(cache.columns, columns) for cache in caches[1:]):
            return self._collections[0].wave_choices(working, caches)
        return [
            collection.wave_choices(working, [cache])[0]
            for collection, cache in zip(self._collections, caches)
        ]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _traced(self, kind: str, body: Callable[..., _T], *args: Any) -> _T:
        """Run ``body(*args)`` as one ``kind`` trace (see :mod:`repro.obs.trace`).

        Completeness is observed for every trace, sampled or not, so the
        SLO completeness floor is evaluated over exact data; the summed
        cost counters ride the query-log record.
        """
        if not _ort.enabled():
            return body(*args)
        shards = len(self._collections)
        with _otr.root(kind, shards=shards) as trace:
            result = body(*args)
            if not trace:
                return result
            answers: list = result if isinstance(result, list) else [result]
            degraded = next(
                (answer.degraded for answer in answers if answer.degraded is not None),
                None,
            )
            if _ort.enabled():
                _om.answer_completeness().observe(
                    degraded.completeness if degraded is not None else 1.0, kind=kind
                )

            def cost() -> dict:
                parts = [answer.stats for answer in answers if answer.stats is not None]
                counters = QueryStats.merged(parts).to_dict() if parts else {}
                if isinstance(answers[0], TopKResult):
                    counters["lbs_checked"] = sum(int(a.n_checked) for a in answers)
                return counters

            trace.set(
                stats=cost,
                degraded=degraded,
                shards=shards,
                retries=degraded.retries if degraded is not None else 0,
                n_queries=len(answers),
                results=sum(int(answer.ids.size) for answer in answers),
            )
        return result

    def _working(self, spq: ScalarProductQuery) -> WorkingQuery | None:
        """Octant-translate ``spq`` once (the translator is shared).

        ``None`` when the query does not fit the octant and must be
        answered by the fallback scan.  A query of the wrong dimension
        raises :class:`~repro.exceptions.DimensionMismatchError` here,
        before anything records it.
        """
        try:
            return self._collections[0].working_query(spq)
        except InvalidQueryError:
            return None

    def _fallback(
        self, kind: str, queries: Sequence[ScalarProductQuery], k: int | None
    ) -> list:
        """Octant fallback: one scan over the shared store, its own route."""
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        answers = scan_store(self._features, kind, queries, k)
        if obs_on:
            label = kind if k is None else "topk"
            if k is None:
                _om.verified_points().inc(len(self), kind=label)
            _om.count_query(label, "octant-fallback", "none", started)
        if k is not None:
            return answers
        return [QueryAnswer(ids, None, True) for ids in answers]

    def _batch_inputs(
        self, normals: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shape-checked ``(normals, offsets)`` of a batch call."""
        normals = as_2d_float(normals, "normals")
        offsets = np.ascontiguousarray(offsets, dtype=np.float64)
        if offsets.ndim != 1 or offsets.size != normals.shape[0]:
            raise DimensionMismatchError(
                f"{offsets.size} offsets for {normals.shape[0]} normals"
            )
        return normals, offsets

    def _batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        op: Comparison | str,
        k: int | None,
        timeout_s: float | None,
    ) -> list:
        """Body of both batch calls; ``k`` selects top-k."""
        kind = "batch" if k is None else "batch_topk"
        queries = [
            ScalarProductQuery(normals[row], float(offsets[row]), op)
            for row in range(normals.shape[0])
        ]
        translated = [self._working(spq) for spq in queries]
        if _tnr.RECORDING:
            sketch_kind = "batch" if k is None else "topk"
            for spq in queries:
                _tnr.record_query(spq.normal, spq.offset, spq.op.value, sketch_kind, k or 0)
        member_kind = "inequality" if k is None else "topk"
        answers: list = [
            self._fallback(member_kind, [spq], k)[0] if wq is None else None
            for spq, wq in zip(queries, translated)
        ]
        plannable = [position for position, wq in enumerate(translated) if wq is not None]
        working = [translated[position] for position in plannable]
        if plannable:
            subset = [queries[position] for position in plannable]
            choices = self._choose(working)
            if k is None:
                def call(i, _rows):
                    return self._collections[i].query_batch(working, choices[i])
            else:
                cutoffs = (
                    [SharedCutoff() for _ in working] if len(self._collections) > 1 else None
                )

                def call(i, _rows):
                    return self._collections[i].topk_batch(working, k, choices[i], cutoffs)

            per_collection, degraded = self._fan_out(
                kind,
                call,
                recover=lambda store: _scanned(store, kind, subset, k),
                timeout_s=timeout_s,
            )
            for slot, position in enumerate(plannable):
                parts = [None if part is None else part[slot] for part in per_collection]
                answers[position] = (
                    _merge_answer(parts, degraded)
                    if k is None
                    else _merge_topk(parts, k, len(self._features), degraded)
                )
        return answers

    def query(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> QueryAnswer:
        """Answer the inequality query ``<normal, phi(x)> OP offset`` exactly."""
        return self._traced("inequality", self._query_one, normal, offset, op)

    def _query_one(
        self, normal: np.ndarray, offset: float, op: Comparison | str
    ) -> QueryAnswer:
        spq = ScalarProductQuery(normal, offset, op)
        wq = self._working(spq)
        if _tnr.RECORDING:
            _tnr.record_query(spq.normal, spq.offset, spq.op.value, "inequality")
        if wq is None:
            return self._fallback("inequality", [spq], None)[0]
        choices = self._choose([wq])
        parts, degraded = self._fan_out(
            "inequality",
            lambda i, _rows: self._collections[i].query(wq, choices[i][0]),
            recover=lambda store: _scanned(store, "inequality", [spq])[0],
        )
        return _merge_answer(parts, degraded)

    def query_range(
        self,
        normal: np.ndarray,
        low: float,
        high: float,
    ) -> QueryAnswer:
        """Exact BETWEEN query: ``low <= <normal, phi(x)> <= high``.

        Served by a single Planar index pass over both thresholds (see
        :meth:`PlanarIndexCollection.query_range`); falls back to a scan for
        octant-incompatible normals.
        """
        return self._traced("range", self._query_range, normal, low, high)

    def _query_range(self, normal: np.ndarray, low: float, high: float) -> QueryAnswer:
        if not low <= high:
            raise InvalidQueryError(f"empty range ({low}, {high})")
        low_q = ScalarProductQuery(normal, low, ">=")
        high_q = ScalarProductQuery(normal, high, "<=")
        wq_low, wq_high = self._working(low_q), self._working(high_q)
        if _tnr.RECORDING:
            # One sketch per bound (same normal, both operators).
            _tnr.record_query(low_q.normal, low, ">=", "range")
            _tnr.record_query(high_q.normal, high, "<=", "range")
        if wq_low is None or wq_high is None:
            return self._fallback("range", [low_q, high_q], None)[0]
        choices = self._choose([wq_high])
        parts, degraded = self._fan_out(
            "range",
            lambda i, _rows: self._collections[i].query_range(wq_low, wq_high, choices[i][0]),
            recover=lambda store: _scanned(store, "range", [low_q, high_q])[0],
        )
        return _merge_answer(parts, degraded)

    def query_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        op: Comparison | str = Comparison.LE,
        *,
        timeout_s: float | None = None,
    ) -> list[QueryAnswer]:
        """Answer a batch of inequality queries sharing one operator.

        ``normals`` is ``(m, d')`` and ``offsets`` has length ``m``.
        Each member is answered by the single-query path (see
        :meth:`PlanarIndexCollection.query_batch`), so the answers equal
        a loop of :meth:`query` calls; octant-incompatible queries fall
        back to scans individually.  The batch is one trace and, on a
        sharded engine, one fan-out wave.
        Validation and the empty-batch short-circuit run before the trace
        opens, so a malformed or empty batch emits no telemetry.

        ``timeout_s`` overrides a sharded engine's ``query_timeout_s`` for
        this call (the serving layer passes each batch's remaining
        deadline); a :class:`FunctionIndex` answers inline and ignores it.
        """
        normals, offsets = self._batch_inputs(normals, offsets)
        if normals.shape[0] == 0:
            return []
        return self._traced("batch", self._batch, normals, offsets, op, None, timeout_s)

    def topk(
        self,
        normal: np.ndarray,
        offset: float,
        k: int,
        op: Comparison | str = Comparison.LE,
    ) -> TopKResult:
        """Top-k satisfying points nearest the query hyperplane (Problem 2).

        With several collections, a :class:`~repro.core.topk.SharedCutoff`
        publishes the best k-th distance seen by any of them into every
        LBS termination test, and the slices merge through one
        :class:`~repro.core.topk.TopKBuffer`.
        """
        return self._traced("topk", self._topk_one, normal, offset, k, op)

    def _topk_one(
        self, normal: np.ndarray, offset: float, k: int, op: Comparison | str
    ) -> TopKResult:
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        spq = ScalarProductQuery(normal, offset, op)
        wq = self._working(spq)
        if _tnr.RECORDING:
            _tnr.record_query(spq.normal, spq.offset, spq.op.value, "topk", k)
        if wq is None:
            return self._fallback("topk", [spq], k)[0]
        cutoff = SharedCutoff() if len(self._collections) > 1 else None
        choices = self._choose([wq])
        parts, degraded = self._fan_out(
            "topk",
            lambda i, _rows: self._collections[i].topk(wq, k, cutoff, choices[i][0]),
            recover=lambda store: _scanned(store, "topk", [spq], k)[0],
        )
        return _merge_topk(parts, k, len(self._features), degraded)

    def topk_batch(
        self,
        normals: np.ndarray,
        offsets: np.ndarray,
        k: int,
        op: Comparison | str = Comparison.LE,
        *,
        timeout_s: float | None = None,
    ) -> list[TopKResult]:
        """Answer a batch of top-k queries sharing one operator and ``k``.

        Each member runs the single-query Algorithm 2 (see
        :meth:`PlanarIndexCollection.topk_batch`), so the answers equal a
        loop of :meth:`topk` calls.  Octant-incompatible queries fall
        back to sequential-scan top-k one by one.  Like
        :meth:`query_batch`: one trace, validated (``k`` included) and
        short-circuited when empty before it opens, same ``timeout_s``.
        """
        normals, offsets = self._batch_inputs(normals, offsets)
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if normals.shape[0] == 0:
            return []
        return self._traced("batch_topk", self._batch, normals, offsets, op, k, timeout_s)

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 4.4)
    # ------------------------------------------------------------------ #

    def _ingest(
        self, new_points: np.ndarray, rows: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(points, phi(points))``, ``rows`` of them when given,
        observed by the translator."""
        new_points = as_2d_float(new_points, "new_points")
        if rows is not None and new_points.shape[0] != rows:
            raise DimensionMismatchError(f"{new_points.shape[0]} new points for {rows} ids")
        require_finite_rows(new_points, "new_points")
        features = self._phi(new_points)
        # Validate *before* the translator observes the new extremes: a NaN
        # feature row would poison the translator's running min/max and
        # corrupt every later octant translation even though the store
        # rejects the row.
        require_finite_rows(features, "features(new_points)")
        # Growing the translator first keeps Claim 1 valid for the new
        # extremes; stored keys are translation-invariant so no rebuild.
        self._translator.observe(features)
        return new_points, features

    def _checked_ids(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` once every one is live, in range and unique.

        Runs before a write touches any store, the translator or an index,
        so a bad batch leaves them all unchanged.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        self._features.get(ids)
        require_unique(ids, "batch ids must be unique")
        return ids

    def update_points(self, ids: np.ndarray, new_points: np.ndarray) -> None:
        """Change the raw values of existing points and re-key every index."""
        ids = self._checked_ids(ids)
        new_points, features = self._ingest(new_points, ids.size)
        self._features.update(ids, features)
        if self._points is not self._features:
            self._points.update(ids, new_points)
        self._fan_out("update", lambda i, rows: self._collections[i].rekey(ids[rows]), ids)

    def insert_points(self, new_points: np.ndarray) -> np.ndarray:
        """Add new data points; returns their assigned ids."""
        new_points, features = self._ingest(new_points)
        ids = self._features.append(features)
        if self._points is not self._features:
            # Both stores assign ids at their common capacity.
            self._points.append(new_points)
        self._fan_out("insert", lambda i, rows: self._collections[i].insert(ids[rows]), ids)
        return ids

    def delete_points(self, ids: np.ndarray) -> None:
        """Remove points from the index."""
        # Fail before touching the collections: deleting from the indices
        # first and then hitting a read-only (memmap) store or a bad id
        # would leave the two out of lockstep.
        if not self._features.writable:
            self._features.delete(np.empty(0, dtype=np.int64))  # raises
        ids = self._checked_ids(ids)
        self._fan_out("delete", lambda i, rows: self._collections[i].delete(ids[rows]), ids)
        self._features.delete(ids)
        if self._points is not self._features:
            self._points.delete(ids)

    def merge_writes(self) -> None:
        """Merge every collection's write log into its indices now.

        Writes are otherwise merged once a log passes its cost-derived
        threshold (:mod:`repro.core.write_log`); answers are the same
        either way.  :func:`~repro.core.persistence.save_index` calls this
        first, so a saved index holds no log.
        """
        self._fan_out("merge", lambda i, _rows: self._collections[i].merge())

    def add_index(self, normal: np.ndarray) -> bool:
        """Dynamically add one more Planar index (Section 4.2 adaptation).

        Every collection applies the same cosine redundancy rule to the
        same normals, so their verdicts agree; the common one is returned.
        """
        verdicts, _ = self._fan_out(
            "add_index", lambda i, _rows: self._collections[i].add_index(normal)
        )
        if len(set(verdicts)) != 1:  # pragma: no cover - collections share normals
            raise RuntimeError("collections diverged on add_index redundancy verdict")
        return verdicts[0]

    def drop_index(self, position: int) -> None:
        """Drop the Planar index at ``position`` (Section 4.2 adaptation).

        At least one index must remain; see
        :meth:`~repro.core.collection.PlanarIndexCollection.drop_index`.
        The tuning advisor's :func:`~repro.tuning.advisor.apply_plan`
        retires workload-mismatched normals through this hook.
        """
        self._fan_out("drop_index", lambda i, _rows: self._collections[i].drop_index(position))


    @classmethod
    def _from_prebuilt(
        cls,
        points: np.ndarray,
        features: FeatureStore,
        translator: Translator,
        collection: PlanarIndexCollection,
        feature_map: FeatureMap,
        query_model: QueryModel,
    ) -> "FunctionIndex":
        """Bind a facade over already-constructed components.

        The persistence load path: format v3 stores the derived state
        (features, per-index sorted keys), so nothing here re-applies
        ``phi``, re-observes the translator, or re-keys indices.  The raw
        ``points`` are bound by :meth:`_raw_store`.
        """
        self = cls.__new__(cls)
        self._phi = feature_map
        self._model = query_model
        self._rng = as_rng(None)
        self._features = features
        self._points = self._raw_store(points)
        self._translator = translator
        self._collections = [collection]
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FunctionIndex(n={len(self)}, d={self._phi.in_dim}, "
            f"d'={self._phi.out_dim}, r={self.n_indices})"
        )

    @property
    def collection(self) -> PlanarIndexCollection:
        """The underlying Planar index collection."""
        return self._collections[0]


    def explain_report(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> ExplainReport:
        """Structured EXPLAIN report for a query, executing it once.

        Runs the query through the exact code path :meth:`query` takes and
        reports the chosen index and route, measured interval sizes,
        verification counts, and the pruning achieved.  Octant-incompatible
        queries produce a report for the sequential-scan fallback route.
        """
        spq = ScalarProductQuery(normal, offset, op)
        try:
            return self.collection.explain(spq)
        except InvalidQueryError as exc:
            ids = scan_store(self._features, "inequality", [spq])[0]
            if _ort.active():
                _om.explain_total().inc(route="octant-fallback")
            n = len(self)
            return ExplainReport(
                kind="inequality",
                route="octant-fallback",
                n_total=n,
                n_verified=n,
                n_results=int(ids.size),
                estimated_pruned=0.0,
                actual_pruned=0.0,
                notes=(str(exc),),
            )

    def _constraints(self, constraints) -> list[ScalarProductQuery]:
        return [
            c if isinstance(c, ScalarProductQuery) else ScalarProductQuery(*c)
            for c in constraints
        ]

    def query_disjunction(self, constraints) -> "ConstraintAnswer":
        """Exact disjunction (OR) of scalar product constraints.

        Same input conventions as :meth:`query_conjunction`.
        """
        from .constraints import DisjunctiveQuery, answer_disjunction

        query = DisjunctiveQuery(self._constraints(constraints))
        return answer_disjunction(self.collection, query, self._features)

    def query_conjunction(self, constraints) -> "ConstraintAnswer":
        """Exact conjunction (AND) of scalar product constraints.

        ``constraints`` is a sequence of ``(normal, offset)`` or
        ``(normal, offset, op)`` tuples, or ready
        :class:`~repro.core.query.ScalarProductQuery` objects.  See
        :mod:`repro.core.constraints` for the multi-index evaluation.
        """
        from .constraints import ConjunctiveQuery, answer_conjunction

        query = ConjunctiveQuery(self._constraints(constraints))
        return answer_conjunction(self.collection, query, self._features)
