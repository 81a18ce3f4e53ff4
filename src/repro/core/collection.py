"""Multiple Planar indices under one budget (Section 5).

A single Planar index only prunes well when its hyperplanes are nearly
parallel to the query hyperplane.  Because the exact query normal is
unknown, the paper maintains ``r`` indices whose normals are sampled
uniformly from the query-parameter domains (Section 5.2), removes redundant
(mutually parallel) normals, and picks the best index per query with an
``O(r d')`` heuristic (Section 5.1).  The default heuristic counts each
index's intermediate interval against a sketch of its sorted keys
(:func:`~repro.core.selection.choose`); the chosen index's exact
interval then decides between verifying it and scanning a float32 copy of
the features.  :meth:`PlanarIndexCollection.wave_choices` is the one
chooser, for one collection or for sibling collections over one data
set's shards; :meth:`PlanarIndexCollection.plan` ranks and routes its
:class:`Choice` into the :class:`Plan` every query kind and EXPLAIN run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .._util import as_rng
from ..analysis.contracts import array_contract
from ..exceptions import IndexBuildError, InvalidQueryError
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..obs.explain import ExplainReport, IndexCandidate
from . import exact
from .domains import QueryModel
from .feature_store import FeatureStore
from .planar import PlanarIndex, QueryResult, QueryStats, WorkingQuery
from .query import ScalarProductQuery
from .selection import (
    SKETCH_BUCKETS,
    SelectionStrategy,
    Thresholds,
    choose,
    interval_probes,
    key_offsets,
    key_sketch,
    pooled_counts,
    scores,
    sketch_counts,
    thresholds,
)
from .sorted_keys import ID_DTYPE
from .topk import TopKResult
from .write_log import WriteLog, merge_threshold

__all__ = ["Choice", "Plan", "PlanarIndexCollection", "dedupe_parallel_normals"]

# Two normals closer than this angle (radians) are considered parallel and
# therefore redundant (Section 5.2).  float64 cannot resolve angles below
# ~1e-8 near zero (arccos(1 - eps) ~ sqrt(2 eps)), so the tolerance sits
# safely above that.
_PARALLEL_TOL = 1e-7

# Verifying one intermediate-interval point (a scattered float64 row
# gather) costs several times a point of the float32 column scan, so once
# the interval exceeds this fraction of the data the scan is the cheaper
# *exact* plan — a database optimizer preferring a table scan over an
# unselective index.  Set at the measured crossover of the two routes'
# per-query costs (docs/algorithms.md section 7, EXPERIMENTS.md).
_SCAN_FALLBACK_FRACTION = 0.12


@array_contract("normals: (r, d) float64 cast", returns="(k,) int64")
def dedupe_parallel_normals(normals: np.ndarray, tol: float = _PARALLEL_TOL) -> np.ndarray:
    """Drop normals parallel to an earlier one (Section 5.2 redundancy rule).

    Returns the row indices of the kept normals, preserving order.  The
    check is vectorized: each candidate is compared against all kept unit
    normals at once.  Two normals are *parallel* iff
    ``|cos(angle)| >= cos(tol)``, evaluated directly on cosines (the
    arccos round trip loses resolution exactly where it matters, near
    angle 0).  :meth:`PlanarIndexCollection.add_index` applies it too.

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
    """Immutable snapshot of the member list plus its selection columns.

    Best-index selection needs the ``(d', r)`` stack of working normals
    (and its column minima, Eq. 15's divisor), the translation key
    offsets and the ``(SKETCH_BUCKETS + 1, r)`` key sketch; bundling them
    *with the member tuple they were computed from* into one object that
    is rebound atomically (a single attribute store) means a query thread
    that snapshots the cache once can never see columns from one index
    generation paired with the member list of another — the invariant
    that makes ``add_index``/``drop_index`` safe to run concurrently with
    queries (a racing query may route through the just-retired
    generation, but every generation answers exactly).  A merge of the
    write log is such a mutation too: it rebinds copies of every index
    over a fresh log, so a query holding the previous snapshot reads runs
    and a log that still match.  The sketch is rebuilt when the log
    merges; a stale one only chooses worse.

    The key offsets also rank the chosen interval, so they must follow
    the translation.  They are derived once per ``delta``: when the
    snapshot is built, and again by the first read after an insert grew
    ``delta``.  :attr:`offsets` keeps them paired with the
    :attr:`~repro.geometry.translation.Translator.delta_view` array they
    came from, one tuple rebound whole, and uses them only while that
    array is still the translator's.  Growth binds a new array and never
    writes an old one, so a grown translation is never read stale.
    Readers racing on the memo each derive it from the array they read
    and store a consistent pair; whichever store wins, the next read
    checks identity again.
    """

    __slots__ = ("indices", "columns", "column_min", "sketch", "_translator", "_offsets")

    def __init__(self, indices: Sequence[PlanarIndex], translator: Translator) -> None:
        self.indices: tuple[PlanarIndex, ...] = tuple(indices)
        self.columns = np.column_stack([index.working_normal for index in self.indices])
        self.column_min = self.columns.min(axis=0)
        self.sketch = np.column_stack(
            [key_sketch(index.sorted_keys) for index in self.indices]
        )
        self._translator = translator
        delta = translator.delta_view
        self._offsets = (delta, key_offsets(self.columns, delta))

    @property
    def offsets(self) -> np.ndarray:
        """Every column's key offset at the current translation (:func:`key_offsets`)."""
        delta = self._translator.delta_view
        memo = self._offsets
        if memo[0] is not delta:
            memo = (delta, key_offsets(self.columns, delta))
            self._offsets = memo
        return memo[1]


class Plan(NamedTuple):
    """One working query's plan; see :meth:`PlanarIndexCollection.plan`."""

    position: int
    index: PlanarIndex
    r_lo: int
    r_hi: int
    n: int
    route: str
    cache: _SelectionCache
    th: Thresholds


class Choice(NamedTuple):
    """The index chosen for one working query (:meth:`PlanarIndexCollection.wave_choices`).

    ``position`` is in the selection snapshot ``cache``; ``th`` is the
    Eq. 13 threshold matrix it was chosen from, over the same normals,
    and ``probes`` the rank probes of its column.
    """

    position: int
    cache: _SelectionCache
    th: Thresholds
    probes: tuple


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
        Best-index selection strategy (default: counted |II| against the
        key sketch; the paper's min-stretch, min-angle and random remain
        available).
    obs_prefix:
        Prefix prepended to every member's positional observability label
        (``repro_indexed_points{index=...}`` and friends).  The sharded
        engine passes ``"s<shard>:"`` so sibling shards' indices never
        collide in the metric label space.

    Writes are recorded once in a :class:`~repro.core.write_log.WriteLog`
    shared by every member and merged into all of them in one pass once it
    passes :func:`~repro.core.write_log.merge_threshold` (Section 4.4).
    """

    @array_contract("normals: (r, d) float64 cast")
    def __init__(
        self,
        store: FeatureStore,
        translator: Translator,
        normals: np.ndarray,
        strategy: SelectionStrategy | str = SelectionStrategy.COUNTED,
        rng: np.random.Generator | int | None = None,
        obs_prefix: str = "",
    ) -> None:
        normals = np.ascontiguousarray(normals, dtype=np.float64)
        if normals.ndim != 2 or normals.shape[0] == 0 or normals.shape[1] != store.dim:
            raise IndexBuildError(
                f"normals must be a non-empty (r, {store.dim}) matrix, got shape {normals.shape}"
            )
        keep = dedupe_parallel_normals(normals)
        self._store = store
        self._translator = translator
        self._obs_prefix = str(obs_prefix)
        self._log = WriteLog()
        # One matrix product computes every index's keys (Section 4.2's
        # <c, phi(x)> for all c at once); each index then only sorts.  The
        # ids are converted to the stored dtype once for all indices.
        ids, rows = store.get_all()
        ids = ids.astype(ID_DTYPE)
        key_matrix = rows @ normals[keep].T  # repro: noqa(REP001) — bulk build-time keying, one matmul by design
        self._indices = [
            PlanarIndex(
                normals[row],
                store,
                translator,
                (ids, key_matrix[:, position]),
                self._label(position),
                self._log,
            )
            for position, row in enumerate(keep)
        ]
        self._strategy = SelectionStrategy(strategy)
        self._rng = as_rng(rng)
        self._cache = _SelectionCache(self._indices, self._translator)

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

        The directory-format load path: normals were deduped at build time and
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
        self._log = WriteLog()
        self._indices = [
            PlanarIndex(
                normal,
                store,
                translator,
                (ids, keys),
                self._label(position),
                self._log,
                presorted=True,
            )
            for position, (normal, ids, keys) in enumerate(prebuilt)
        ]
        self._strategy = SelectionStrategy(strategy)
        self._rng = as_rng(rng)
        self._cache = _SelectionCache(self._indices, self._translator)
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
        strategy: SelectionStrategy | str = SelectionStrategy.COUNTED,
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

    @property
    def snapshot(self) -> _SelectionCache:
        """The current selection snapshot: the member list and its selection
        columns, rebound whole by every merge and lifecycle call."""
        return self._cache

    def memory_bytes(self) -> int:
        """Key-structure footprint across all indices and the write log (excludes features)."""
        return self._log.memory_bytes() + sum(index.memory_bytes() for index in self._indices)

    # ------------------------------------------------------------------ #
    # Query routing
    # ------------------------------------------------------------------ #

    def working_query(self, query: ScalarProductQuery) -> WorkingQuery:
        """Transform a query once for use across all indices."""
        return WorkingQuery.build(query, self._translator)

    def plan(self, wq: WorkingQuery, choice: Choice | None = None) -> Plan:
        """The one planner: ``(position, index, r_lo, r_hi, n, route, cache, th)``.

        Ranks and routes ``wq`` from a ``choice`` of :meth:`wave_choices`,
        which brings the position, the selection ``cache`` it indexes, the
        Eq. 13 threshold matrix ``th`` and the chosen column's rank probes:
        nothing is selected or computed here but the chosen index's two
        ranks.  Without a ``choice`` the collection makes one over its own
        snapshot.  ``n`` counts the live points.
        The one routing decision: verifying the chosen index's intermediate
        interval (the write log's pending ids included) costs several times
        a scanned point per point, so above ``_SCAN_FALLBACK_FRACTION`` of
        the data the route is ``"scan"``, else ``"intervals"``.  With obs
        armed, counted selection records how far its sketch estimate was
        from the exact |II| (``repro_ii_estimate_error``).
        """
        if choice is None:
            choice = self.wave_choices([wq], [self._cache])[0][0]
        position, cache, th, probes = choice
        index = cache.indices[position]
        r_lo, r_hi, n = index.interval_ranks(wq, probes)
        if n and self._strategy is SelectionStrategy.COUNTED and _ort.active():
            estimate = sketch_counts(th, cache.sketch)[position] * n / SKETCH_BUCKETS
            _om.ii_estimate_error().observe(abs(estimate - (r_hi - r_lo)) / n)
        verify = r_hi - r_lo
        state = index._log.state
        if state is not None:
            verify += state.pending.size
            n = state.n_live(n)
        route = "intervals" if verify <= _SCAN_FALLBACK_FRACTION * n else "scan"
        return Plan(position, index, r_lo, r_hi, n, route, cache, th)

    def _select_position(
        self,
        wq: WorkingQuery,
        cache: _SelectionCache,
        th: Thresholds,
        pooled: tuple[np.ndarray, np.ndarray] | None,
    ) -> int:
        """Position the configured strategy picks for ``wq``: the
        :func:`~repro.core.selection.choose` call over the snapshot
        ``cache`` and its threshold matrix ``th``.  Counted selection over
        sibling snapshots counts their ``pooled`` sketches
        (:func:`~repro.core.selection.pooled_counts`)."""
        counts = None if pooled is None else pooled_counts(th, *pooled)
        return choose(self._strategy, cache.columns, th, cache.sketch, wq, self._rng, counts)

    def wave_choices(
        self, working: Sequence[WorkingQuery], caches: Sequence[_SelectionCache]
    ) -> list[list[Choice]]:
        """The one chooser: one index per working query, for every snapshot.

        ``caches`` are this collection's :attr:`snapshot`, or the snapshot
        of every sibling (collections over disjoint shards of one data set,
        with this collection's strategy and normals), each read once for
        the wave.  One Eq. 13 threshold matrix per working query serves
        them all, since siblings share normals and the translator, and so
        do the rank probes of the chosen column.  Counted selection over
        several snapshots sums their sketch counts, each weighted by its
        sibling's size: an estimate of the whole data's |II|.  Returns one
        list of :class:`Choice` per cache, aligned with ``working``, for
        each sibling's :meth:`plan`.  A merge rebinds only its own
        collection's snapshot and never changes the normals, so it cannot
        skew a choice.
        """
        reference = caches[0]
        pooled = None
        if self._strategy is SelectionStrategy.COUNTED and len(caches) > 1:
            pooled = (
                np.concatenate([cache.sketch for cache in caches]),
                np.repeat([len(cache.indices[0]) for cache in caches], SKETCH_BUCKETS + 1),
            )
        obs_on = _ort.active()
        columns = reference.columns
        column_min = reference.column_min
        offsets = reference.offsets
        chosen = []
        for wq in working:
            started = time.perf_counter() if obs_on else 0.0
            th = thresholds(columns, offsets, wq, column_min)
            position = self._select_position(wq, reference, th, pooled)
            if obs_on:
                _osp.record("select", started, strategy=self._strategy.value, chosen=position)
                _om.selection_total().inc(strategy=self._strategy.value, index=str(position))
            chosen.append((position, th, interval_probes(th, wq, position)))
        return [
            [Choice(position, cache, th, probes) for position, th, probes in chosen]
            for cache in caches
        ]

    def _scan_result(
        self, wq: WorkingQuery, best: PlanarIndex, r_lo: int, r_hi: int, n: int
    ) -> QueryResult:
        """Cost-based scan fallback: exact answer by one streamed float32 scan.

        Pruning statistics stay interval-based (``si``/``ii``/``li`` of
        the chosen index's live partition) so Figures 9/10 metrics are
        unaffected by the routing decision; ``n_verified`` reflects the
        scan.  Rows within the scan's bound of ``b`` are re-decided from
        their float64 rows.  When the scan's positions are the ids, the
        store drops dead positions from the answer.
        """
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        ids, values, bound = self._store.scan_values(wq.query.normal)
        take = self._store.take_rows
        if ids is None:
            result_ids = self._store.live_only(exact.select(values, wq.query, bound, take))
        else:
            result_ids = ids[exact.select(values, wq.query, bound, lambda at: take(ids[at]))]
        part = best._split(best._log.state, r_lo, r_hi, middle=False)
        if obs_on:
            _osp.record("scan", started, n=n)
            best._record_partition("inequality", part.si, part.ii, part.li, n)
        stats = QueryStats(
            n_total=n,
            si_size=part.si,
            ii_size=part.ii,
            li_size=part.li,
            n_verified=n,
            n_results=int(result_ids.size),
        )
        return QueryResult(result_ids, stats)

    def _query_impl(self, wq: WorkingQuery, p: Plan) -> QueryResult:
        """Execute one working query by its plan's route."""
        if p.route == "intervals":
            return p.index.finish_query(wq, p.r_lo, p.r_hi)
        return self._scan_result(wq, p.index, p.r_lo, p.r_hi, p.n)

    def _topk_impl(
        self, wq: WorkingQuery, p: Plan, k: int, cutoff: "SharedCutoff | None"
    ) -> TopKResult:
        """Algorithm 2 on the planned index from the plan's ranks."""
        return p.index.topk(wq, k, (p.r_lo, p.r_hi), cutoff)

    def _range_impl(self, wq_high: WorkingQuery, p: Plan, wq_low: WorkingQuery) -> QueryResult:
        """The planned index's BETWEEN pass; it ranks ``wq_low`` itself."""
        return p.index._finish_range(wq_low, wq_high, (p.r_lo, p.r_hi))

    def _observed(
        self,
        kind: str,
        name: str,
        body: Callable[..., Any],
        wq: WorkingQuery,
        choice: Choice | None,
        *args: Any,
        **attrs: Any,
    ) -> Any:
        """``body(wq, plan(wq, choice), *args)``; with obs armed, inside one
        ``collection.<name>`` span, counted and timed by ``kind`` and route.

        Only an inequality query routes: top-k and range queries always
        walk the intervals.
        """
        if not _ort.active():
            return body(wq, self.plan(wq, choice), *args)
        started = time.perf_counter()
        strategy = self._strategy.value
        with _osp.span(f"collection.{name}", strategy=strategy, **attrs):
            p = self.plan(wq, choice)
            result = body(wq, p, *args)
        route = p.route if kind == "inequality" else "intervals"
        _om.count_query(kind, route, strategy, started)
        return result

    def query(
        self, query: ScalarProductQuery | WorkingQuery, choice: Choice | None = None
    ) -> QueryResult:
        """Answer an inequality query via the best index (or a scan).

        After best-index selection, :meth:`plan` routes on the size of
        the intermediate interval: an unselective index is answered by one
        scan over all live features instead — same answer, better worst
        case (the paper's "query time gets close to the baseline" regime).
        Pruning statistics stay interval-based.
        A :class:`WorkingQuery` (the facade's octant check) is used as is;
        ``choice`` is :meth:`plan`'s.
        """
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        return self._observed("inequality", "query", self._query_impl, wq, choice)

    def query_batch(
        self, queries: Sequence[WorkingQuery], choices: Sequence[Choice]
    ) -> list[QueryResult]:
        """Answer many inequality queries; positionally aligned with ``queries``.

        A loop over :meth:`query`, so every member is answered, routed and
        counted exactly as a single call would be; ``choices`` holds each
        member's ``choice``.
        """
        return [self.query(query, choice) for query, choice in zip(queries, choices)]

    def topk(
        self,
        query: ScalarProductQuery | WorkingQuery,
        k: int,
        cutoff: "SharedCutoff | None" = None,
        choice: Choice | None = None,
    ) -> TopKResult:
        """Answer a top-k nearest neighbor query via the best index.

        The planned index runs Algorithm 2 from the plan's ranks.
        ``cutoff`` threads a :class:`~repro.core.topk.SharedCutoff` into
        Algorithm 2's LBS termination test — the sharded engine shares one
        across sibling shards so the globally best k-th distance prunes
        every shard's scan (see :meth:`PlanarIndex.topk`).  ``choice`` is
        :meth:`plan`'s.
        """
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        return self._observed("topk", "topk", self._topk_impl, wq, choice, k, cutoff, k=k)

    def topk_batch(
        self,
        queries: Sequence[WorkingQuery],
        k: int,
        choices: Sequence[Choice],
        cutoffs: "Sequence[SharedCutoff] | None" = None,
    ) -> list[TopKResult]:
        """Answer many top-k queries; a loop over :meth:`topk`, with each
        member's entry of ``choices`` and of ``cutoffs`` when given."""
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if cutoffs is None:
            cutoffs = [None] * len(queries)
        return [
            self.topk(query, k, cutoff, choice)
            for query, choice, cutoff in zip(queries, choices, cutoffs)
        ]

    def query_range(
        self,
        wq_low: WorkingQuery,
        wq_high: WorkingQuery,
        choice: Choice | None = None,
    ) -> QueryResult:
        """Exact BETWEEN query routed through best-index selection.

        ``wq_low`` / ``wq_high`` are the ``>= low`` / ``<= high`` working
        queries over one shared normal (the facade builds them once for
        octant validation).  The high bound is planned (``choice`` is
        :meth:`plan`'s); the chosen index ranks the low bound itself.
        Metrics carry the collection's strategy label, as :meth:`query`
        and :meth:`topk` do.
        """
        return self._observed("range", "query_range", self._range_impl, wq_high, choice, wq_low)

    # ------------------------------------------------------------------ #
    # EXPLAIN (see docs/observability.md)
    # ------------------------------------------------------------------ #

    def explain(self, query: ScalarProductQuery) -> ExplainReport:
        """Execute ``query`` and report selection, partition, and pruning.

        The report scores *every* candidate index (stretch, |cos| angle,
        the intermediate-interval size its rank probes count and the one
        its key sketch estimates), all read from the plan's one threshold
        matrix, marks the one the configured strategy chose, then
        executes the query through exactly the same routing as
        :meth:`query` — so the reported SI/II/LI sizes, verification count
        and result count are identical to what :meth:`query` returns for
        the same query (deterministic strategies).  ``estimated_pruned``
        is the interval promise ``(|SI|+|LI|)/n``; ``actual_pruned`` is
        the measured fraction of points never verified (0 when the
        cost-based router chose the scan).
        """
        wq = self.working_query(query)
        plan = self.plan(wq)
        th = plan.th
        counts, stretch, cosines = scores(plan.cache.columns, th.offsets, plan.cache.sketch, wq, th)
        probe_lo, probe_hi = interval_probes(th, wq)
        candidates = []
        for position, index in enumerate(plan.cache.indices):
            r_lo_c, r_hi_c = index.probe_ranks(probe_lo[position], probe_hi[position])
            candidates.append(
                IndexCandidate(
                    position=position,
                    stretch=float(stretch[position]),
                    angle_cos=float(cosines[position]),
                    expected_ii=r_hi_c - r_lo_c,
                    chosen=position == plan.position,
                    estimated_ii=round(int(counts[position]) * len(index) / SKETCH_BUCKETS),
                )
            )
        stats = self._query_impl(wq, plan).stats
        if _ort.active():
            _om.explain_total().inc(route=plan.route)
        return ExplainReport(
            kind="inequality",
            route=plan.route,
            n_total=stats.n_total,
            index_normal=tuple(float(c) for c in plan.index.normal),
            rank_lo=plan.r_lo,
            rank_hi=plan.r_hi,
            si_size=stats.si_size,
            ii_size=stats.ii_size,
            li_size=stats.li_size,
            n_verified=stats.n_verified,
            n_results=stats.n_results,
            estimated_pruned=stats.pruned_fraction,
            actual_pruned=1.0 - stats.verified_fraction if stats.n_total else 1.0,
            strategy=self._strategy.value,
            chosen_index=plan.position,
            candidates=tuple(candidates),
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

        Redundancy is decided by :func:`dedupe_parallel_normals` over the
        current normals plus ``normal``, the rule construction applies; a
        zero or wrong-length normal raises :class:`~repro.exceptions.IndexBuildError`.
        """
        normal = np.ascontiguousarray(normal, dtype=np.float64)
        if normal.shape != (self._store.dim,):
            raise IndexBuildError(
                f"normal has shape {normal.shape}, features have dimension {self._store.dim}"
            )
        existing = self.normals
        keep = dedupe_parallel_normals(np.vstack([existing, normal]))
        if keep[-1] != existing.shape[0]:
            return False
        # The newcomer keys every live row, so the others must hold them too.
        self.merge()
        ids, rows = self._store.get_all()
        keys = rows @ normal  # repro: noqa(REP001) — build-time keying of the newcomer
        newcomer = PlanarIndex(
            normal,
            self._store,
            self._translator,
            (ids.astype(ID_DTYPE), keys),
            self._label(len(self._indices)),
            self._log,
        )
        # Rebind rather than append in place: a query thread holding the
        # previous member list (via its cache snapshot) keeps a stable view.
        self._indices = [*self._indices, newcomer]
        self._relabel()
        self._cache = _SelectionCache(self._indices, self._translator)
        return True

    def drop_index(self, position: int) -> None:
        """Remove the index at ``position``; at least one index must remain.

        Survivors are relabelled to their new positions (gauges carried,
        the dropped index's gauge series retired) so observability labels
        always equal positions — see :meth:`_relabel`.
        """
        if len(self._indices) <= 1:
            raise IndexBuildError("cannot drop the last index of a collection")
        self.merge()
        dropped = self._indices[position]
        # Rebind to a survivor list (never `del` in place) so concurrent
        # query threads keep the generation their cache snapshot names.
        self._indices = [
            index for index in self._indices if index is not dropped
        ]
        dropped.release_obs_label()
        self._relabel()
        self._cache = _SelectionCache(self._indices, self._translator)

    def merge(self) -> None:
        """Merge the write log into every index, in one pass each (Section 4.4).

        One matrix product keys the pending rows under every normal (their
        current rows are in the store); each index then drops its stale
        entries and adds the pending ones (:meth:`PlanarIndex.merged`).
        The merged copies and a fresh log are rebound like a lifecycle
        mutation (see :class:`_SelectionCache`), and the selection
        sketches are rebuilt here and only here.
        """
        state = self._log.state
        if state is None:
            return
        drop = np.flatnonzero(state.stale).astype(ID_DTYPE)
        pending = state.pending
        rows = self._store.take_rows(pending)
        keys = self.normals @ rows.T  # repro: noqa(REP001) — one keying matmul per merge
        log = WriteLog()
        self._indices = [
            index.merged(drop, pending, row, log) for index, row in zip(self._indices, keys)
        ]
        self._log = log
        self._cache = _SelectionCache(self._indices, self._translator)

    def _merge_if_due(self) -> None:
        """Merge once the log passes the cost-derived threshold."""
        state = self._log.state
        if state is not None and state.size > merge_threshold(
            len(self._indices[0]), len(self._indices)
        ):
            self.merge()

    @array_contract("ids: (m,) int64 cast")
    def rekey(self, ids: np.ndarray) -> None:
        """Record that the store rows of ``ids`` changed (already written there)."""
        self._log.rekey(ids)
        self._merge_if_due()

    @array_contract("ids: (m,) int64 cast")
    def insert(self, ids: np.ndarray) -> None:
        """Record points newly appended to the store."""
        self._log.insert(ids)
        self._merge_if_due()

    @array_contract("ids: (m,) int64 cast")
    def delete(self, ids: np.ndarray) -> None:
        """Record deletions of live points (before the store marks them dead)."""
        self._log.delete(ids)
        self._merge_if_due()
