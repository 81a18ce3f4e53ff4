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

import copy
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .._util import as_1d_float
from ..analysis.contracts import array_contract
from ..exceptions import IndexBuildError, InvalidQueryError
from ..geometry.translation import Translator
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from . import exact
from .feature_store import FeatureStore
from .query import Comparison, ScalarProductQuery
from .selection import interval_probes, key_offsets, thresholds
from .sorted_keys import SortedKeyStore
from .stats import QueryStats
from .topk import SharedCutoff, TopKBuffer, TopKResult
from .write_log import LogState, WriteLog

__all__ = ["WorkingQuery", "QueryStats", "QueryResult", "PlanarIndex", "Partition"]

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
        # np.linalg.norm of a vector is this square root of its dot product.
        normal = chosen.normal
        return cls(chosen, normal_w, offset_w, math.sqrt(normal.dot(normal)))

    @property
    def op(self) -> Comparison:
        """Inequality direction of the canonical query."""
        return self.query.op


class Partition(NamedTuple):
    """The live points of one run split at ranks ``r_lo <= r_hi``.

    ``below`` / ``above`` are the live ids of ranks ``[0, r_lo)`` /
    ``[r_hi, n)`` when asked for, else None; ``middle`` holds the live ids
    of ranks ``[r_lo, r_hi)`` followed by the pending ids.  ``si``, ``ii``
    and ``li`` count the three parts; they sum to the live points.
    """

    below: np.ndarray | None
    middle: np.ndarray
    above: np.ndarray | None
    si: int
    ii: int
    li: int

    @property
    def n(self) -> int:
        """Live points of the run plus the pending ones."""
        return self.si + self.ii + self.li


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

    A :class:`~repro.core.collection.PlanarIndexCollection` builds, plans
    for and writes through its indices; an index only ranks its keys,
    verifies, walks Algorithm 2 and merges the collection's write log.

    Parameters
    ----------
    normal:
        Index normal in *original* coordinates.  Its sign pattern must match
        ``translator``'s octant so the working normal ``c''`` is positive.
    store:
        Shared feature storage.
    translator:
        Octant translator shared with sibling indices.  Must already have
        observed the indexed features.
    keyed:
        ``(ids, keys)``: the indexed store ids (stored id dtype, vetted by
        the collection) and their float64 keys ``<c, phi(x)>``.
    obs_label:
        Label under which this index reports observability metrics
        (``repro_interval_points_total{index=...}`` and friends): the
        collection's label for its position.
    log:
        The collection's shared :class:`~repro.core.write_log.WriteLog`:
        queries skip its stale entries and decide its pending ids.
    presorted:
        ``keyed`` is already in ascending key order (a persisted index).
    """

    @array_contract("normal: (d,) float64 cast")
    def __init__(
        self,
        normal: np.ndarray,
        store: FeatureStore,
        translator: Translator,
        keyed: tuple[np.ndarray, np.ndarray],
        obs_label: str,
        log: WriteLog,
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
        self._log = log
        # Keys are <c, phi(x)> in original coordinates: reflection cancels
        # (s_i * c_i)(s_i * phi_i) = c_i * phi_i and translation is a shared
        # constant applied to thresholds at query time.  The collection
        # keys all its indices with one matrix product.
        ids, keys = keyed
        self._keys = SortedKeyStore(keys, ids, trusted=True, presorted=presorted)
        self._obs_label = str(obs_label)
        self._count_indexed()

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
    def sorted_keys(self) -> np.ndarray:
        """Stored float32 keys in ascending order (read-only view)."""
        return self._keys.sorted_keys

    def memory_bytes(self) -> int:
        """Footprint of this index's key structures (excludes shared features)."""
        return self._keys.memory_bytes()

    # ------------------------------------------------------------------ #
    # Interval geometry
    # ------------------------------------------------------------------ #

    def interval_ranks(
        self, wq: WorkingQuery, probes: tuple | None = None
    ) -> tuple[int, int, int]:
        """Sorted-rank boundaries ``(r_lo, r_hi, n)`` of the intervals.

        * ranks ``[0, r_lo)``   — SI: ``<a, phi(x)> < b`` certain,
        * ranks ``[r_lo, r_hi)`` — intermediate interval, must verify,
        * ranks ``[r_hi, n)``   — LI: ``<a, phi(x)> > b`` certain.

        The Eq. 13 thresholds, shifted by the translation key offset
        ``<c'', delta>``, bound the stored keys; the probes of
        :func:`~repro.core.selection.interval_probes` fold the guard band
        around each threshold into the intermediate interval and round
        away from the certain intervals, so both certain intervals are
        strict and valid for the strict and non-strict operators alike.
        ``probes`` are those of this index's column of the chooser's
        threshold matrix (:class:`~repro.core.collection.Choice`); without
        them (a range query's low bound) the index computes its column.
        """
        obs_on = _ort.active()
        started = time.perf_counter() if obs_on else 0.0
        if probes is None:
            column = self._working_normal
            th = thresholds(column, key_offsets(column, self._translator.delta_view), wq)
            probes = interval_probes(th, wq)
        r_lo, r_hi = self._keys.probe_ranks(*probes)
        if obs_on:
            _osp.record("binary_search", started, index=self._obs_label)
        return r_lo, r_hi, len(self._keys)

    def probe_ranks(self, probe_lo, probe_hi) -> tuple[int, int]:
        """Ranks of two float32 rank probes: the stored keys at most each."""
        return self._keys.probe_ranks(probe_lo, probe_hi)

    def _split(
        self,
        state: LogState | None,
        r_lo: int,
        r_hi: int,
        below: bool = False,
        above: bool = False,
        middle: bool = True,
    ) -> Partition:
        """Live :class:`Partition` of the run at ranks ``r_lo <= r_hi`` under ``state``.

        The one place a query reads the write log: stale entries leave
        every part and the pending ids join the intermediate interval.
        The parts not asked for are None (``middle`` then holds only the
        pending ids).  With an empty log it is one branch over plain
        slices.  Otherwise each part costs one mask gather over its ids;
        the sizes need two parts, so the smallest parts not asked for are
        counted and the last follows from the log's count of stale entries.
        """
        ids = self._keys.sorted_ids
        n = ids.size
        if state is None:
            return Partition(
                ids[:r_lo] if below else None,
                ids[r_lo:r_hi] if middle else ids[:0],
                ids[r_hi:] if above else None,
                r_lo,
                r_hi - r_lo,
                n - r_hi,
            )
        low = state.live(ids[:r_lo]) if below else None
        mid = state.live(ids[r_lo:r_hi]) if middle else None
        high = state.live(ids[r_hi:]) if above else None
        # Two of the three live sizes are counted, the smallest parts not
        # asked for first; the third is what the live run entries leave.
        parts = ((0, r_lo), (r_lo, r_hi), (r_hi, n))
        sizes = [None if part is None else part.size for part in (low, mid, high)]
        missing = sorted(
            (p for p in range(3) if sizes[p] is None),
            key=lambda p: parts[p][1] - parts[p][0],
        )
        for p in missing[:-1]:
            sizes[p] = state.count(ids[parts[p][0]:parts[p][1]])
        if missing:
            last = missing[-1]
            sizes[last] = n - state.n_stale - sum(sizes[p] for p in range(3) if p != last)
        si, ii, li = sizes
        pending = state.pending
        return Partition(
            low,
            pending if mid is None else np.concatenate([mid, pending]),
            high,
            si,
            ii + pending.size,
            li,
        )

    # ------------------------------------------------------------------ #
    # Problem 1: inequality query (Algorithm 1)
    # ------------------------------------------------------------------ #

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
    ) -> QueryResult:
        """Complete an inequality query from its interval ranks.

        The collection plans the ranks and routes on the interval size
        (see :meth:`PlanarIndexCollection.plan`) before paying for
        verification.
        """
        obs_on = _ort.active()
        upper = wq.op.is_upper_bound
        part = self._split(self._log.state, r_lo, r_hi, below=upper, above=not upper)
        accepted = [part.below if upper else part.above]

        started = time.perf_counter() if obs_on else 0.0
        verify_ids = part.middle
        n_verified = int(verify_ids.size)
        if n_verified:
            feats = self._store.take_rows(verify_ids)
            keep, _ = exact.satisfying(feats, wq.query, exact.octant_bound(wq))
            accepted.append(verify_ids[keep])
        if obs_on:
            _osp.record("verify_II", started, n_verified=n_verified)
            started = time.perf_counter()

        result_ids = np.concatenate(accepted)
        result_ids.sort()
        if obs_on:
            _osp.record("materialize", started, n_results=int(result_ids.size))
            self._record_partition("inequality", part.si, part.ii, part.li, n_verified)
        stats = QueryStats(
            n_total=part.n,
            si_size=part.si,
            ii_size=part.ii,
            li_size=part.li,
            n_verified=n_verified,
            n_results=int(result_ids.size),
        )
        return QueryResult(result_ids, stats)

    def _finish_range(
        self,
        wq_low: WorkingQuery,
        wq_high: WorkingQuery,
        high_ranks: tuple[int, int],
    ) -> QueryResult:
        """Exact BETWEEN query: ``low <= <a, phi(x)> <= high``.

        ``wq_low`` must be the ``>= low`` working query and ``wq_high`` the
        ``<= high`` one, both over the same normal; ``high_ranks`` are
        ``wq_high``'s planned ranks, and this index ranks ``wq_low``.  One
        index serves both bounds: keys certainly above ``low`` *and*
        certainly below ``high`` are accepted outright; the two guard bands
        around the thresholds are verified against the exact conjunction.
        Records the per-index span and partition counters; the collection
        counts the query.
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
        for wq, ranks in ((wq_low, None), (wq_high, high_ranks)):
            r_lo, r_hi = self.interval_ranks(wq)[:2] if ranks is None else ranks
            bands.append((r_lo, r_hi))
            regions.append((0, r_lo) if wq.op.is_upper_bound else (r_hi, n))
        in_start = max(region[0] for region in regions)
        in_stop = min(region[1] for region in regions)
        accepted = self._keys.ids_in_rank_range(in_start, max(in_start, in_stop))
        # Verify both uncertainty bands (they may overlap for tight ranges,
        # so np.unique drops repeats; certain-in ids never overlap them).
        band_ids = [self._keys.ids_in_rank_range(start, stop) for start, stop in bands]
        state = self._log.state
        if state is not None:
            # The same skip and join as _split, for two bands.
            accepted = state.live(accepted)
            band_ids = [state.live(ids) for ids in band_ids] + [state.pending]
            n = state.n_live(n)
        verify_ids = np.unique(np.concatenate(band_ids))
        n_verified = int(verify_ids.size)
        verified = verify_ids
        if n_verified:
            feats = self._store.take_rows(verify_ids)
            keep, _ = exact.satisfying(feats, wq_low.query, exact.octant_bound(wq_low))
            inside, _ = exact.satisfying(
                feats[keep], wq_high.query, exact.octant_bound(wq_high)
            )
            verified = verify_ids[keep[inside]]
        result_ids = np.sort(np.concatenate([accepted, verified]))
        stats = QueryStats(
            n_total=n,
            si_size=int(accepted.size),
            ii_size=n_verified,
            li_size=n - int(accepted.size) - n_verified,
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
        wq: WorkingQuery,
        k: int,
        ranks: tuple[int, int],
        cutoff: SharedCutoff | None = None,
    ) -> TopKResult:
        """Exact top-k points satisfying ``wq``, closest to ``H(q)`` first.

        Implements Algorithm 2 from the query's planned ranks
        ``(r_lo, r_hi)``: verify the intermediate interval into a bounded
        buffer, then scan the certain interval (SI for upper-bound
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
        """
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        r_lo, r_hi = ranks
        n = len(self._keys)
        obs_on = _ort.active()
        upper = wq.op.is_upper_bound
        bound = exact.octant_bound(wq)
        buffer = TopKBuffer(k)

        def offer(ids: np.ndarray) -> None:
            # Certain-interval blocks pass the exact decision untouched;
            # buffer order uses BLAS distances, the reported ones are exact.
            keep, values = exact.satisfying(self._store.take_rows(ids), wq.query, bound)
            buffer.offer_many(np.abs(values[keep] - wq.query.offset) / wq.norm, ids[keep])
            if cutoff is not None and buffer.is_full:
                cutoff.publish(buffer.max_distance)

        # The live intermediate interval and the pending ids go first, so
        # the walk below only ever prunes run entries.
        started = time.perf_counter() if obs_on else 0.0
        state = self._log.state
        part = self._split(state, r_lo, r_hi)
        n_ii = part.ii
        if n_ii:
            offer(part.middle)
        if obs_on:
            _osp.record("verify_II", started, n_verified=n_ii)
            started = time.perf_counter()

        # Walk the certain interval away from the query hyperplane: SI
        # downward from r_lo for upper-bound operators, LI upward from r_hi
        # otherwise.  LBS (Definition 5 / its LI mirror) of a block's head
        # key lower-bounds the distance of that point and of every point
        # beyond it (Claim 3): working key * max(a''/c'') bounds <a'', y>
        # from above in SI, working key * min(a''/c'') from below in LI.
        # The float32 head is widened toward the hyperplane by its rounding
        # so the bound holds for the float64 key it stands for.
        key_offset = key_offsets(self._working_normal, self._translator.delta_view)
        ratio = wq.normal_w / self._working_normal
        if upper:
            edge_ratio, side = float(ratio.max()), 1.0
            stops = range(r_lo, 0, -_TOPK_BLOCK)
            blocks = ((max(0, stop - _TOPK_BLOCK), stop) for stop in stops)
        else:
            edge_ratio, side = float(ratio.min()), -1.0
            starts = range(r_hi, n, _TOPK_BLOCK)
            blocks = ((start, min(n, start + _TOPK_BLOCK)) for start in starts)
        n_checked = n_ii
        for start, stop in blocks:
            head = float(self._keys.keys_in_rank_range(start, stop)[-1 if upper else 0])
            head += side * exact.key_rounding(abs(head))
            lbs_head = side * (wq.offset_w - (head + key_offset) * edge_ratio) / wq.norm
            limit = buffer.max_distance
            if cutoff is not None:
                limit = min(limit, cutoff.get())
            if lbs_head > limit:
                break
            block = self._keys.ids_in_rank_range(start, stop)
            if state is not None:
                block = state.live(block)
            n_checked += block.size
            if block.size:
                offer(block)

        stats = QueryStats(
            n_total=part.n,
            si_size=part.si,
            ii_size=n_ii,
            li_size=part.li,
            n_verified=n_checked,
            n_results=len(buffer),
        )
        if obs_on:
            # One span for the whole LBS cutoff scan (O(1) bookkeeping per
            # query regardless of how many blocks the scan visited).
            _osp.record(
                "scan_LBS", started, index=self._obs_label,
                n_scanned=n_checked - n_ii,
            )
            self._record_partition("topk", part.si, n_ii, part.li, n_checked)
        ids, _ = buffer.as_sorted()
        ids, distances = exact.sorted_by_distance(ids, self._store.take_rows(ids), wq.query)
        return TopKResult(
            ids=ids, distances=distances, n_checked=n_checked, n_total=part.n, stats=stats
        )

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 4.4)
    # ------------------------------------------------------------------ #

    def _count_indexed(self) -> None:
        """Set the ``repro_indexed_points`` gauge to the key count (obs armed only)."""
        if _ort.active():
            _om.indexed_points().set(len(self._keys), index=self._obs_label)

    def merged(
        self, drop: np.ndarray, ids: np.ndarray, keys: np.ndarray, log: WriteLog
    ) -> "PlanarIndex":
        """A copy with the entries of ``drop`` dropped and ``(ids, keys)`` added, in one pass.

        A collection's merge of its write log: ``drop`` are the stale
        entries, ``ids`` the pending points and ``keys`` their float64
        keys under this index's normal.  The copy reads ``log``, the
        collection's next write log; this index and the log it reads stay
        as they are, so a query holding them still answers exactly.
        """
        twin = copy.copy(self)
        twin._keys = copy.copy(self._keys)
        twin._keys.update_batch(drop, ids, keys)
        twin._log = log
        twin._count_indexed()
        return twin
