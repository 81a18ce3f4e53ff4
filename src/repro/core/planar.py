"""A single Planar index (Sections 4 and 6 of the paper).

Construction (Section 4.2)
--------------------------
Pick a normal vector ``c`` compatible with the query-parameter domains and
store the scalar key ``<c, phi(x)>`` of every point in ascending order.
Geometrically each point gets the index hyperplane
``H(x): <c, Y> = <c, phi(x)>`` (Eq. 3), and sorting by key sorts the family
of parallel hyperplanes by axis intercept.

Query processing (Section 4.3, Algorithm 1)
-------------------------------------------
Work in the translated first octant where every coordinate, every effective
query parameter ``a''_i`` and the index normal ``c''`` are positive.  With
``T_i = c''_i * I(q, i) = c''_i * b'' / a''_i``, the paper's three intervals
collapse to two scalar key thresholds:

* ``SI`` (accept):  ``key'' <= min_i T_i``   — every intercept of ``H(x)``
  is at most the query's (Definition 1, Observation 2);
* ``LI`` (reject):  ``key'' >  max_i T_i``   — every intercept exceeds the
  query's (Definition 2, Observation 1);
* ``II`` (verify):  everything in between (Definition 3).

Proof sketch (first octant): ``<a'', y> = sum_i (a''_i / c''_i)(c''_i y_i)``
is bracketed by ``min_i (a''_i / c''_i) * key''`` and
``max_i (a''_i / c''_i) * key''`` because the weights ``c''_i y_i >= 0`` sum
to ``key''``.  ``key'' <= min_i T_i = b'' / max_i (a''_i / c''_i)`` therefore
forces ``<a'', y> <= b''`` and symmetrically for ``LI``.  Equality is only
possible on the ``key'' == min_i T_i`` boundary, which is what makes the
strict operators need a measure-zero re-verification slice.

Because the coordinate translation adds the same constant ``<c'', delta>``
to every key, keys are stored untranslated as plain ``<c, phi(x)>`` in the
original coordinates and thresholds are shifted instead — see
:mod:`repro.geometry.translation`.

Top-k queries (Section 6, Algorithm 2) verify the intermediate interval,
then walk the accepting interval away from the query hyperplane in key
order, cutting off once the lower-bound distance ``LBS`` (Definition 5)
exceeds the current k-th best distance (Claim 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._util import as_1d_float
from ..analysis.contracts import array_contract
from ..exceptions import IndexBuildError, InvalidQueryError
from ..geometry.octant import sign_vector
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..obs import trace as _otr
from ..obs.explain import ExplainReport
from .feature_store import FeatureStore
from .query import Comparison, ScalarProductQuery
from .sorted_keys import SortedKeyStore
from .stats import QueryStats
from .topk import SharedCutoff, TopKBuffer, TopKResult

__all__ = ["WorkingQuery", "QueryStats", "QueryResult", "PlanarIndex"]

# Points verified per batch during the pruned top-k scan.  Larger blocks
# amortize numpy call overhead; the scan may overshoot the exact Algorithm 2
# stopping point by at most one block (results stay exact).
_TOPK_BLOCK = 512


@dataclass(frozen=True)
class WorkingQuery:
    """A scalar product query transformed into working (first-octant) coordinates.

    Built once per incoming query and shared by all indices of a collection.

    Attributes
    ----------
    query:
        The query form actually used (original, or canonicalized when only
        the negated form fits the octant).
    normal_w / offset_w:
        ``a''`` (all positive) and ``b''`` from Eq. 12.  ``b''`` may be
        negative when the hyperplane misses the octant; the interval split
        then yields an empty SI/II.
    norm:
        ``|a|`` — reflections preserve norms, so this equals ``|a''|``.
    """

    query: ScalarProductQuery
    normal_w: np.ndarray
    offset_w: float
    norm: float

    @classmethod
    def build(cls, query: ScalarProductQuery, translator: Translator) -> "WorkingQuery":
        """Express ``query`` in ``translator``'s octant.

        The original sign pattern is tried first; when it is octant
        incompatible but the canonical form (negated normal for ``b < 0``)
        matches, that form is used instead.  Raises
        :class:`InvalidQueryError` when neither form fits the octant.
        """
        chosen = query
        try:
            normal_w, offset_w = translator.transform_query(query.normal, query.offset)
        except InvalidQueryError:
            chosen = query.canonical()
            if chosen is query:
                raise
            normal_w, offset_w = translator.transform_query(chosen.normal, chosen.offset)
        return cls(
            query=chosen,
            normal_w=normal_w,
            offset_w=offset_w,
            norm=float(np.linalg.norm(chosen.normal)),
        )

    @property
    def op(self) -> Comparison:
        """Inequality direction of the canonical query."""
        return self.query.op


@dataclass(frozen=True)
class QueryResult:
    """Result of an inequality query against one index."""

    ids: np.ndarray
    stats: QueryStats

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.ids.size)

    def to_dict(self) -> dict:
        """JSON-friendly summary (ids included as a list)."""
        return {"ids": self.ids.tolist(), "stats": self.stats.to_dict()}


class PlanarIndex:
    """One set of parallel index hyperplanes with normal ``c``.

    Parameters
    ----------
    normal:
        Index normal in *original* coordinates.  Its sign pattern must match
        ``translator``'s octant so the working normal ``c''`` is positive.
    store:
        Shared feature storage; the index keys exactly the live rows in
        ``ids`` (all live rows when ``ids`` is None).
    translator:
        Octant translator shared with sibling indices.  Must already have
        observed the indexed features.
    ids:
        Optional subset of store ids to index.
    obs_label:
        Label under which this index reports observability metrics
        (``repro_interval_points_total{index=...}`` and friends).
        Collections label their members by position; the default
        ``"solo"`` marks standalone indices.
    """

    @array_contract("normal: (d,) float64 cast", "ids: ?(n,) int64 cast")
    def __init__(
        self,
        normal: np.ndarray,
        store: FeatureStore,
        translator: Translator,
        ids: np.ndarray | None = None,
        precomputed: tuple[np.ndarray, np.ndarray] | None = None,
        obs_label: str = "solo",
        presorted: bool = False,
    ) -> None:
        normal = as_1d_float(normal, "normal")
        if normal.size != store.dim:
            raise IndexBuildError(
                f"normal has dimension {normal.size}, features have {store.dim}"
            )
        working = translator.reflect_normal(normal)
        if np.any(working <= 0.0) or not np.all(np.isfinite(working)):
            raise IndexBuildError(
                "index normal signs must match the translator octant "
                f"(working normal {working.tolist()})"
            )
        self._normal = normal.copy()
        self._normal.setflags(write=False)
        self._working_normal = working
        self._working_normal.setflags(write=False)
        self._store = store
        self._translator = translator
        # Keys are <c, phi(x)> in original coordinates: reflection cancels
        # (s_i * c_i)(s_i * phi_i) = c_i * phi_i and translation is a shared
        # constant applied to thresholds at query time.
        if precomputed is not None:
            # Bulk path used by collections: (ids, keys) computed once for
            # all sibling indices with a single matrix product; the shared
            # id array is already vetted.
            ids, keys = precomputed
            self._keys = SortedKeyStore(
                keys,
                np.ascontiguousarray(ids, np.int64),
                trusted=True,
                presorted=presorted,
            )
        else:
            if ids is None:
                ids, rows = store.get_all()
            else:
                ids = np.ascontiguousarray(ids, dtype=np.int64)
                rows = store.get(ids)
            # Build-time keying of the indexed rows: one deliberate matmul.
            self._keys = SortedKeyStore(rows @ self._normal, ids)  # repro: noqa(REP001)
        self._obs_label = str(obs_label)
        if _ort.active():
            _om.indexed_points().set(len(self._keys), index=self._obs_label)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanarIndex(n={len(self)}, normal={self._normal.tolist()})"

    @property
    def normal(self) -> np.ndarray:
        """Index normal ``c`` in original coordinates (read-only)."""
        return self._normal

    @property
    def obs_label(self) -> str:
        """Label under which this index reports observability metrics."""
        return self._obs_label

    def set_obs_label(self, label: str) -> None:
        """Relabel this index's observability series.

        Collections call this after lifecycle mutations (``drop_index`` /
        ``add_index``) so labels always equal current positions.  The
        ``repro_indexed_points`` gauge is *carried*: the stale series is
        removed and the new label set to the live key count, so two
        distinct indices can never alias one label.  Counter history
        (``repro_interval_points_total``) stays under the old label —
        counters record what happened, and what happened was attributed
        correctly at the time.
        """
        label = str(label)
        if label == self._obs_label:
            return
        if _ort.active():
            gauge = _om.indexed_points()
            gauge.remove(index=self._obs_label)
            gauge.set(len(self._keys), index=label)
        self._obs_label = label

    def release_obs_label(self) -> None:
        """Retire this index's gauge series (called when it is dropped)."""
        if _ort.active():
            _om.indexed_points().remove(index=self._obs_label)

    @property
    def working_normal(self) -> np.ndarray:
        """Index normal ``c''`` in working coordinates (all positive)."""
        return self._working_normal

    @property
    def dim(self) -> int:
        """Feature dimensionality ``d'``."""
        return int(self._normal.size)

    def memory_bytes(self) -> int:
        """Footprint of this index's key structures (excludes shared features)."""
        return self._keys.memory_bytes()

    @classmethod
    @array_contract("features: (n, d) float64 cast promote", "normal: (d,) float64 cast")
    def from_features(
        cls,
        features: np.ndarray,
        normal: np.ndarray,
        margin: float = 0.0,
    ) -> "PlanarIndex":
        """Standalone construction over a feature matrix.

        Builds a private :class:`FeatureStore` and a translator whose octant
        is the sign pattern of ``normal``; convenient for tests and for
        single-index usage outside a :class:`FunctionIndex` facade.
        """
        store = FeatureStore(features)
        translator = Translator(sign_vector(normal, "normal"), margin=margin)
        _, rows = store.get_all()
        translator.observe(rows)
        return cls(normal, store, translator, None)

    @property
    def translator(self) -> Translator:
        """The octant translator used by this index."""
        return self._translator

    def working_query(self, query: ScalarProductQuery) -> WorkingQuery:
        """Transform ``query`` for this index's octant (see :class:`WorkingQuery`)."""
        return WorkingQuery.build(query, self._translator)

    # ------------------------------------------------------------------ #
    # Interval geometry
    # ------------------------------------------------------------------ #

    def _thresholds(self, wq: WorkingQuery) -> tuple[float, float, float]:
        """Stored-key thresholds ``(t_lo, t_hi, tol)`` bounding SI and LI.

        ``T_i = c''_i * b'' / a''_i`` are the working-coordinate thresholds
        (Eq. 13 intercept products); subtracting the shared translation
        offset ``<c'', delta>`` converts them to stored-key space.

        ``tol`` is a numerical guard band.  ``T_i - <c'', delta>`` cancels
        catastrophically when a point sits exactly on the query hyperplane
        (both terms large, difference ~0), so certain-accept/certain-reject
        classification within ``tol`` of a threshold would be decided by
        rounding noise.  Keys inside the guard band are verified exactly
        against the original inequality instead, which keeps answers exact
        while inflating the intermediate interval by a measure-zero slice.
        """
        if wq.normal_w.size != self.dim:
            raise InvalidQueryError(
                f"query has dimension {wq.normal_w.size}, index has {self.dim}"
            )
        t = self._working_normal * (wq.offset_w / wq.normal_w)
        key_offset = self._translator.key_offset(self._working_normal)
        # Scale of the *intermediate* terms, before cancellation.
        scale = max(1.0, float(np.abs(t).max()), abs(key_offset))
        tol = 1e-9 * scale
        return float(t.min() - key_offset), float(t.max() - key_offset), tol

    def interval_ranks(self, wq: WorkingQuery) -> tuple[int, int, int]:
        """Sorted-rank boundaries ``(r_lo, r_hi, n)`` of the intervals.

        * ranks ``[0, r_lo)``   — SI: ``<a, phi(x)> < b`` certain,
        * ranks ``[r_lo, r_hi)`` — intermediate interval, must verify,
        * ranks ``[r_hi, n)``   — LI: ``<a, phi(x)> > b`` certain.

        Both certain intervals are strict (the guard band around each
        threshold is folded into the intermediate interval), so they are
        valid for the strict and non-strict operators alike.
        """
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        t_lo, t_hi, tol = self._thresholds(wq)
        r_lo = self._keys.rank_le(t_lo - tol)
        r_hi = self._keys.rank_le(t_hi + tol)
        if obs_on:
            _osp.record("binary_search", started, index=self._obs_label)
        return r_lo, r_hi, len(self._keys)

    def max_stretch(self, wq: WorkingQuery) -> float:
        """Maximum stretch of the intermediate interval (Problem 3, Eq. 15).

        ``Stretch(c, i) = (max_k T_k - min_k T_k) / c''_i`` is maximised by
        the smallest normal component, so the score reduces to a scalar.
        Zero iff the index is parallel to the query hyperplane
        (Corollary 1).
        """
        t = self._working_normal * (wq.offset_w / wq.normal_w)
        return float((t.max() - t.min()) / self._working_normal.min())

    def angle_cosine(self, wq: WorkingQuery) -> float:
        """|cos| of the angle between index and query normals (Section 5.1.2).

        1.0 iff parallel; reflections preserve angles so working coordinates
        give the same value as original ones.
        """
        c = self._working_normal
        a = wq.normal_w
        return float(abs(np.dot(a, c)) / (np.linalg.norm(a) * np.linalg.norm(c)))

    # ------------------------------------------------------------------ #
    # Problem 1: inequality query (Algorithm 1)
    # ------------------------------------------------------------------ #

    def query(self, query: ScalarProductQuery | WorkingQuery) -> QueryResult:
        """Exact evaluation of an inequality query.

        Accepts a raw :class:`ScalarProductQuery` (transformed internally)
        or a prebuilt :class:`WorkingQuery` (the collection path, which
        builds it once for all indices).

        Opens a ``query.inequality`` trace root when obs is armed and no
        outer facade already owns the trace, so standalone index usage
        gets the same head sampling and query-log records as the
        collection routes.
        """
        with _otr.root("inequality") as trace:
            result = self._query_impl(query)
            if trace:
                trace.set(stats=result.stats.to_dict, results=result.stats.n_results)
        return result

    def _query_impl(self, query: ScalarProductQuery | WorkingQuery) -> QueryResult:
        """Inequality evaluation body shared by traced and nested calls."""
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        if not _ort.active():
            r_lo, r_hi, _ = self.interval_ranks(wq)
            return self.finish_query(wq, r_lo, r_hi)
        started = time.perf_counter()
        with _osp.span("index.query", index=self._obs_label):
            r_lo, r_hi, _ = self.interval_ranks(wq)
            result = self.finish_query(wq, r_lo, r_hi)
        _om.queries_total().inc(kind="inequality", route="intervals", strategy="solo")
        _om.query_latency().observe(
            time.perf_counter() - started, kind="inequality", route="intervals"
        )
        return result

    def _record_partition(self, kind: str, si: int, ii: int, li: int, n_verified: int) -> None:
        """O(1) metric bookkeeping for one answered query (obs armed only)."""
        counts = _om.interval_points()
        label = self._obs_label
        counts.inc(si, interval="si", index=label)
        counts.inc(ii, interval="ii", index=label)
        counts.inc(li, interval="li", index=label)
        _om.verified_points().inc(n_verified, kind=kind)

    def finish_query(
        self,
        wq: WorkingQuery,
        r_lo: int,
        r_hi: int,
        precomputed: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> QueryResult:
        """Complete an inequality query from precomputed interval ranks.

        Split out of :meth:`query` so batch evaluation can compute the
        ranks of many queries with one vectorized binary search and then
        finish each query individually.  ``precomputed`` optionally
        carries ``(verify_ids, values)`` — the sorted intermediate-interval
        ids and their scalar products ``<a, phi(x)>`` under the canonical
        query normal — produced by the collection's batched GEMM so the
        per-query finish only applies the operator mask.
        """
        obs_on = _ort.active()
        n = len(self._keys)
        if wq.op.is_upper_bound:
            accepted = [self._keys.ids_in_rank_range(0, r_lo)]
        else:
            accepted = [self._keys.ids_in_rank_range(r_hi, n)]

        # Sorting the candidate ids first makes the row gather largely
        # sequential (np.take over ascending ids), which is the dominant
        # cost of verification at numpy speeds.
        started = time.perf_counter() if obs_on else 0.0
        if precomputed is None:
            verify_ids = np.sort(self._keys.ids_in_rank_range(r_lo, r_hi))
            n_verified = int(verify_ids.size)
            if n_verified:
                feats = self._store.take_rows(verify_ids)
                mask = wq.query.evaluate(feats)
                accepted.append(verify_ids[mask])
        else:
            verify_ids, values = precomputed
            n_verified = int(verify_ids.size)
            if n_verified:
                mask = wq.op.evaluate(values, wq.query.offset)
                accepted.append(verify_ids[mask])
        if obs_on:
            _osp.record("verify_II", started, n_verified=n_verified)
            started = time.perf_counter()

        result_ids = np.sort(np.concatenate(accepted))
        if obs_on:
            _osp.record("materialize", started, n_results=int(result_ids.size))
            self._record_partition(
                "inequality", r_lo, r_hi - r_lo, n - r_hi, n_verified
            )
        stats = QueryStats(
            n_total=n,
            si_size=r_lo,
            ii_size=r_hi - r_lo,
            li_size=n - r_hi,
            n_verified=n_verified,
            n_results=int(result_ids.size),
        )
        return QueryResult(result_ids, stats)

    def explain(self, query: ScalarProductQuery | WorkingQuery) -> ExplainReport:
        """Execute ``query`` through this index and report how it went.

        Unlike the collection-level EXPLAIN there is no candidate set — the
        report covers the partition and verification work of *this* index.
        The query is actually executed so ``actual_pruned`` (and the
        reported sizes) are measured, not estimated; the report's
        SI/II/LI sizes are therefore exactly :meth:`query`'s stats.
        """
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        r_lo, r_hi, n = self.interval_ranks(wq)
        stats = self.finish_query(wq, r_lo, r_hi).stats
        if _ort.active():
            _om.explain_total().inc(route="intervals")
        return ExplainReport(
            kind="inequality",
            route="intervals",
            n_total=n,
            chosen_index=None,
            index_normal=tuple(float(c) for c in self._normal),
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

    def query_range(
        self,
        wq_low: WorkingQuery,
        wq_high: WorkingQuery,
    ) -> QueryResult:
        """Exact BETWEEN query: ``low <= <a, phi(x)> <= high``.

        ``wq_low`` must be the ``>= low`` working query and ``wq_high`` the
        ``<= high`` one, both over the same normal.  One index serves both
        bounds: keys certainly above ``low`` *and* certainly below ``high``
        are accepted outright; the two guard bands around the thresholds
        are verified against the exact conjunction.

        This is the *standalone* entry point and reports query metrics
        under ``strategy="solo"``; collection-routed range queries go
        through :meth:`PlanarIndexCollection.query_range`, which labels
        them with the real selection strategy (matching how ``query`` and
        ``topk`` label).
        """
        if not _ort.active():
            return self._query_range_impl(wq_low, wq_high)
        started = time.perf_counter()
        result = self._query_range_impl(wq_low, wq_high)
        _om.queries_total().inc(kind="range", route="intervals", strategy="solo")
        _om.query_latency().observe(
            time.perf_counter() - started, kind="range", route="intervals"
        )
        return result

    def _query_range_impl(
        self,
        wq_low: WorkingQuery,
        wq_high: WorkingQuery,
    ) -> QueryResult:
        """Range evaluation shared by the solo and collection routes.

        Records the per-index span and partition counters but *not*
        ``repro_queries_total`` / latency — the caller owns those labels
        (``strategy="solo"`` standalone, the collection's strategy when
        routed), so one executed range query is counted exactly once.
        """
        if not np.array_equal(wq_low.query.normal, wq_high.query.normal):
            raise InvalidQueryError("range bounds must share one query normal")
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        # Certain-satisfy rank range of each bound, by its own operator
        # (bounds may have been canonicalized with a negated normal, which
        # flips which side of the key order satisfies them).
        bands = []
        regions = []
        n = len(self._keys)
        for wq in (wq_low, wq_high):
            r_lo, r_hi, _ = self.interval_ranks(wq)
            bands.append((r_lo, r_hi))
            regions.append((0, r_lo) if wq.op.is_upper_bound else (r_hi, n))
        in_start = max(region[0] for region in regions)
        in_stop = min(region[1] for region in regions)
        accepted = (
            self._keys.ids_in_rank_range(in_start, in_stop)
            if in_start < in_stop
            else np.empty(0, dtype=np.int64)
        )
        # Verify both uncertainty bands (they may overlap for tight ranges).
        band_ids = [
            self._keys.ids_in_rank_range(start, stop)
            for start, stop in bands
            if start < stop
        ]
        verify_ids = (
            np.unique(np.concatenate(band_ids)) if band_ids else np.empty(0, np.int64)
        )
        # Guard against double counting: certain-in ids never overlap the
        # bands by construction (disjoint rank ranges), but overlapping
        # bands may repeat ids between themselves — np.unique handled it.
        n_verified = int(verify_ids.size)
        if n_verified:
            feats = self._store.take_rows(verify_ids)
            mask = wq_low.query.evaluate(feats) & wq_high.query.evaluate(feats)
            verified = verify_ids[mask]
        else:
            verified = verify_ids
        result_ids = np.sort(np.concatenate([accepted, verified]))
        stats = QueryStats(
            n_total=n,
            si_size=max(0, in_stop - in_start),
            ii_size=n_verified,
            li_size=n - max(0, in_stop - in_start) - n_verified,
            n_verified=n_verified,
            n_results=int(result_ids.size),
        )
        if obs_on:
            _osp.record(
                "index.query_range", started, index=self._obs_label,
                n_verified=n_verified,
            )
            self._record_partition(
                "range", stats.si_size, stats.ii_size, stats.li_size, n_verified
            )
        return QueryResult(result_ids, stats)

    # ------------------------------------------------------------------ #
    # Problem 2: top-k nearest neighbors (Algorithm 2)
    # ------------------------------------------------------------------ #

    def topk(
        self,
        query: ScalarProductQuery | WorkingQuery,
        k: int,
        cutoff: SharedCutoff | None = None,
    ) -> TopKResult:
        """Exact top-k points satisfying the query, closest to ``H(q)`` first.

        Implements Algorithm 2: verify the intermediate interval into a
        bounded buffer, then scan the certain interval (SI for upper-bound
        operators, LI for lower-bound ones) moving away from the query
        hyperplane, stopping once the lower-bound distance ``LBS``
        (Definition 5 / its LI mirror) exceeds the buffered k-th distance.

        ``cutoff`` (optional) is a :class:`~repro.core.topk.SharedCutoff`
        published to and read by sibling shard scans of the sharded
        engine: the effective pruning threshold becomes the minimum of
        the local k-th distance and the best bound any shard has
        published.  Because the bound is always a valid upper bound on
        the *global* k-th distance and the cutoff test stays strict, the
        merged result is still exact — a shard may merely stop scanning
        points that can no longer make the global top-k.

        Opens a ``query.topk`` trace root when obs is armed and no outer
        facade already owns the trace (shard scans dispatched by the
        sharded engine join the engine's trace instead).
        """
        with _otr.root("topk") as trace:
            result = self._topk_impl(query, k, cutoff)
            if trace:

                def cost() -> dict:
                    counters = result.stats.to_dict()
                    counters["lbs_checked"] = int(result.n_checked)
                    return counters

                trace.set(stats=cost, results=int(result.ids.size))
        return result

    def _topk_impl(
        self,
        query: ScalarProductQuery | WorkingQuery,
        k: int,
        cutoff: SharedCutoff | None = None,
    ) -> TopKResult:
        """Algorithm 2 body shared by traced and nested top-k calls."""
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        wq = query if isinstance(query, WorkingQuery) else self.working_query(query)
        r_lo, r_hi, n = self.interval_ranks(wq)
        ids_ii = np.sort(self._keys.ids_in_rank_range(r_lo, r_hi))
        return self._topk_from_ii(wq, k, cutoff, r_lo, r_hi, n, ids_ii, None)

    def _topk_from_ii(
        self,
        wq: WorkingQuery,
        k: int,
        cutoff: SharedCutoff | None,
        r_lo: int,
        r_hi: int,
        n: int,
        ids_ii: np.ndarray,
        values_ii: np.ndarray | None,
    ) -> TopKResult:
        """Algorithm 2 from precomputed interval ranks and II candidates.

        ``ids_ii`` must be the sorted intermediate-interval ids.
        ``values_ii`` optionally carries their scalar products
        ``<a, phi(x)>`` under the canonical query normal (the collection's
        batched GEMM supplies them); when None they are computed here.
        The LBS cutoff scan that follows is inherently sequential per
        query, so only the II verification is batchable.
        """
        obs_on = _ort.active()
        op = wq.op
        buffer = TopKBuffer(k)
        n_checked = 0

        started = time.perf_counter() if obs_on else 0.0
        if ids_ii.size:
            n_checked += int(ids_ii.size)
            if values_ii is None:
                feats = self._store.take_rows(ids_ii)
                values = feats @ wq.query.normal
            else:
                values = values_ii
            mask = op.evaluate(values, wq.query.offset)
            distances = np.abs(values[mask] - wq.query.offset) / wq.norm
            buffer.offer_many(distances, ids_ii[mask])
            if cutoff is not None and buffer.is_full:
                cutoff.publish(buffer.max_distance)
        if obs_on:
            _osp.record("verify_II", started, n_verified=int(ids_ii.size))
            started = time.perf_counter()

        key_offset = self._translator.key_offset(self._working_normal)
        ratio = wq.normal_w / self._working_normal

        if op.is_upper_bound:
            # Certain interval is SI: every point there satisfies the strict
            # inequality, so no operator re-check is needed during the scan.
            max_ratio = float(ratio.max())
            position = r_lo
            while position > 0:
                start = max(0, position - _TOPK_BLOCK)
                keys = self._keys.keys_in_rank_range(start, position)[::-1]
                ids_blk = self._keys.ids_in_rank_range(start, position)[::-1]
                # LBS (Definition 5): working key * max(a''/c'') is the
                # largest possible <a, phi>, so b'' minus it lower-bounds the
                # distance of this point and of every point below it
                # (Claim 3).
                lbs_head = (wq.offset_w - (float(keys[0]) + key_offset) * max_ratio) / wq.norm
                limit = buffer.max_distance
                if cutoff is not None:
                    limit = min(limit, cutoff.get())
                if lbs_head > limit:
                    break
                n_checked += int(ids_blk.size)
                ids_blk = np.sort(ids_blk)
                feats = self._store.take_rows(ids_blk)
                values = feats @ wq.query.normal
                distances = np.abs(values - wq.query.offset) / wq.norm
                buffer.offer_many(distances, ids_blk)
                if cutoff is not None and buffer.is_full:
                    cutoff.publish(buffer.max_distance)
                position = start
        else:
            # Certain interval is LI: every point satisfies > b, scan ascending.
            min_ratio = float(ratio.min())
            position = r_hi
            while position < n:
                stop = min(n, position + _TOPK_BLOCK)
                keys = self._keys.keys_in_rank_range(position, stop)
                ids_blk = self._keys.ids_in_rank_range(position, stop)
                lbs_head = ((float(keys[0]) + key_offset) * min_ratio - wq.offset_w) / wq.norm
                limit = buffer.max_distance
                if cutoff is not None:
                    limit = min(limit, cutoff.get())
                if lbs_head > limit:
                    break
                n_checked += int(ids_blk.size)
                ids_blk = np.sort(ids_blk)
                feats = self._store.take_rows(ids_blk)
                values = feats @ wq.query.normal
                distances = np.abs(values - wq.query.offset) / wq.norm
                buffer.offer_many(distances, ids_blk)
                if cutoff is not None and buffer.is_full:
                    cutoff.publish(buffer.max_distance)
                position = stop

        stats = QueryStats(
            n_total=n,
            si_size=r_lo,
            ii_size=r_hi - r_lo,
            li_size=n - r_hi,
            n_verified=n_checked,
            n_results=len(buffer),
        )
        if obs_on:
            # One span for the whole LBS cutoff scan (O(1) bookkeeping per
            # query regardless of how many blocks the scan visited).
            _osp.record(
                "scan_LBS", started, index=self._obs_label,
                n_scanned=n_checked - int(ids_ii.size),
            )
            self._record_partition("topk", r_lo, r_hi - r_lo, n - r_hi, n_checked)
        ids, distances = buffer.as_sorted()
        return TopKResult(
            ids=ids, distances=distances, n_checked=n_checked, n_total=n, stats=stats
        )

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 4.4)
    # ------------------------------------------------------------------ #

    def _compute_keys(self, rows: np.ndarray) -> np.ndarray:
        """Scalar keys ``<c, phi(x)>`` for maintenance-supplied feature rows.

        Single shared implementation (layout normalization included) so
        :meth:`rekey` and :meth:`insert` cannot drift apart in how they
        key rows — both must match the build-time keying exactly or
        maintained indices would return different answers than rebuilt
        ones.
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        return rows @ self._normal

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def rekey(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Update keys after the features of existing points changed.

        ``rows`` holds only the changed feature rows (one per id), never the
        full matrix.  The caller (usually :class:`FunctionIndex`) is
        responsible for having already updated the shared store and grown
        the translator.
        """
        self._keys.update_batch(
            np.ascontiguousarray(ids, dtype=np.int64), self._compute_keys(rows)
        )

    @array_contract("ids: (m,) int64 cast", "rows: (m, d) float64 cast")
    def insert(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Index newly appended points (one feature row per id)."""
        self._keys.insert(
            np.ascontiguousarray(ids, dtype=np.int64), self._compute_keys(rows)
        )
        if _ort.active():
            _om.indexed_points().set(len(self._keys), index=self._obs_label)

    @array_contract("ids: (m,) int64 cast")
    def delete(self, ids: np.ndarray) -> None:
        """Drop points from this index."""
        self._keys.delete(np.ascontiguousarray(ids, dtype=np.int64))
        if _ort.active():
            _om.indexed_points().set(len(self._keys), index=self._obs_label)
