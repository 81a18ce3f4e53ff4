"""Property tests: ``query_batch`` is exactly the loop of single queries.

Satellite regression for the batch path: hypothesis drives dataset size,
dimension, operator, and query geometry, and every example asserts that
``index.query_batch(normals, offsets, op)`` returns *bit-identical* ids
and stats to ``[index.query(n, o, op) for ...]``.  The suite pins the
``_SCAN_FALLBACK_FRACTION`` router boundary explicitly — forcing the
all-scan and all-interval extremes must not change a single id — and
the degenerate empty batch.  A second suite plants real-valued offsets
on and within a few ulps of the query hyperplane, where a batch path
that summed products in another order would answer differently.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ScalarProductQuery
from repro.parallel.engine import ShardedFunctionIndex
from repro.reliability import faults as _flt
from repro.scan.baseline import SequentialScan


@st.composite
def batch_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=200))
    m = draw(st.integers(min_value=0, max_value=8))
    n_indices = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    op = draw(st.sampled_from(["<=", "<", ">=", ">"]))
    offset_scale = draw(st.floats(min_value=0.0, max_value=1.5))
    return dim, n, m, n_indices, seed, op, offset_scale


def _build(case):
    dim, n, m, n_indices, seed, op, offset_scale = case
    rng = np.random.default_rng(seed)
    # Integer-valued inputs keep every scalar product exact in float64,
    # so "identical" includes tie-breaks and boundary membership.
    points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    index = FunctionIndex(points, model, n_indices=n_indices, rng=seed)
    normals = rng.integers(1, 6, size=(m, dim)).astype(np.float64)
    column_max = points.max(axis=0)
    offsets = np.asarray(
        [float(np.round(offset_scale * normal @ column_max)) for normal in normals]
    )
    return index, normals, offsets, op


def _assert_batch_equals_singles(index, normals, offsets, op):
    batch = index.query_batch(normals, offsets, op)
    assert len(batch) == normals.shape[0]
    for row, answer in enumerate(batch):
        single = index.query(normals[row], float(offsets[row]), op)
        assert np.array_equal(answer.ids, single.ids)
        assert answer.used_fallback == single.used_fallback
        if answer.stats is not None:
            assert answer.stats == single.stats


class TestBatchEqualsSingles:
    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_batch_is_loop_of_singles(self, case):
        index, normals, offsets, op = _build(case)
        _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=25, deadline=None)
    @given(case=batch_cases())
    def test_router_forced_to_scan(self, case):
        """With the fallback fraction at 1.0 every plannable query routes
        to the interval-scan arm; batch and singles must still agree."""
        index, normals, offsets, op = _build(case)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 1.0):
            _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=25, deadline=None)
    @given(case=batch_cases())
    def test_router_forced_to_intervals(self, case):
        """With the fallback fraction at 0.0 every plannable query takes
        the three-interval path; batch and singles must still agree."""
        index, normals, offsets, op = _build(case)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            _assert_batch_equals_singles(index, normals, offsets, op)

    @settings(max_examples=20, deadline=None)
    @given(case=batch_cases())
    def test_router_split_matches_either_route(self, case):
        """At the boundary the router's choice is an implementation detail;
        the *answer* must match both forced routes bit for bit."""
        index, normals, offsets, op = _build(case)
        default = index.query_batch(normals, offsets, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 1.0):
            scanned = index.query_batch(normals, offsets, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            intervals = index.query_batch(normals, offsets, op)
        for chosen, scan_side, interval_side in zip(default, scanned, intervals):
            assert np.array_equal(chosen.ids, scan_side.ids)
            assert np.array_equal(chosen.ids, interval_side.ids)


class TestTopkBatchEqualsSingles:
    """``topk_batch`` vs the loop of single ``topk`` calls."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=batch_cases(),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_topk_batch_is_loop_of_singles(self, case, k):
        index, normals, offsets, op = _build(case)
        batch = index.topk_batch(normals, offsets, k, op)
        assert len(batch) == normals.shape[0]
        for row, result in enumerate(batch):
            single = index.topk(normals[row], float(offsets[row]), k, op)
            assert np.array_equal(result.ids, single.ids)
            assert np.array_equal(result.distances, single.distances)

    @settings(max_examples=15, deadline=None)
    @given(case=batch_cases(), k=st.integers(min_value=1, max_value=8))
    def test_topk_batch_forced_routes_agree(self, case, k):
        index, normals, offsets, op = _build(case)
        default = index.topk_batch(normals, offsets, k, op)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            intervals = index.topk_batch(normals, offsets, k, op)
        for chosen, interval_side in zip(default, intervals):
            assert np.array_equal(chosen.ids, interval_side.ids)
            assert np.array_equal(chosen.distances, interval_side.distances)


class TestAwkwardInputLayouts:
    """Mixed-dtype / non-contiguous batch inputs answer identically to
    clean float64 C-order arrays (the batch path must canonicalize
    before multiplying, not assume layout)."""

    def _index(self, dim=3, seed=3):
        rng = np.random.default_rng(seed)
        points = rng.integers(1, 30, size=(120, dim)).astype(np.float64)
        model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=3, rng=seed)
        normals = rng.integers(1, 6, size=(6, dim)).astype(np.float64)
        offsets = np.asarray(
            [float(np.round(0.5 * n @ points.max(axis=0))) for n in normals]
        )
        return index, normals, offsets

    def _assert_same_answers(self, index, normals, offsets, alt_normals, alt_offsets):
        clean = index.query_batch(normals, offsets)
        awkward = index.query_batch(alt_normals, alt_offsets)
        for a, b in zip(clean, awkward):
            assert np.array_equal(a.ids, b.ids)
        clean_topk = index.topk_batch(normals, offsets, 7)
        awkward_topk = index.topk_batch(alt_normals, alt_offsets, 7)
        for a, b in zip(clean_topk, awkward_topk):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_float32_inputs(self):
        index, normals, offsets = self._index()
        # Integer-valued, so the float32 round-trip is exact.
        self._assert_same_answers(
            index,
            normals,
            offsets,
            normals.astype(np.float32),
            offsets.astype(np.float32),
        )

    def test_fortran_order_normals(self):
        index, normals, offsets = self._index()
        fortran = np.asfortranarray(normals)
        assert not fortran.flags["C_CONTIGUOUS"]
        self._assert_same_answers(index, normals, offsets, fortran, offsets)

    def test_strided_views(self):
        index, normals, offsets = self._index()
        doubled = np.repeat(normals, 2, axis=0)
        view = doubled[::2]
        assert not view.flags["OWNDATA"]
        offsets_view = np.repeat(offsets, 2)[::2]
        self._assert_same_answers(index, normals, offsets, view, offsets_view)

    def test_reversed_column_view(self):
        index, normals, offsets = self._index()
        reversed_copy = normals[:, ::-1].copy()
        view = reversed_copy[:, ::-1]  # negative column stride, equals normals
        assert not view.flags["C_CONTIGUOUS"]
        self._assert_same_answers(index, normals, offsets, view, offsets)


class TestEmptyBatch:
    def test_empty_batch_returns_empty_list(self):
        rng = np.random.default_rng(0)
        points = rng.integers(1, 30, size=(50, 3)).astype(np.float64)
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=2, rng=0)
        assert index.query_batch(np.empty((0, 3)), np.empty(0)) == []


@st.composite
def boundary_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=50, max_value=400))
    m = draw(st.integers(min_value=4, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    op = draw(st.sampled_from(["<=", "<", ">=", ">"]))
    ulps = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return dim, n, seed, op, ulps


def _boundary_batch(case):
    """Real-valued points over six decades per column, and offsets set to
    ``<a, phi(x_j)>`` of a random point ``x_j``, nudged by a few ulps."""
    dim, n, seed, op, ulps = case
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(1, dim))
    points = rng.uniform(0.0, 10.0, size=(n, dim)) * scales
    normals = rng.uniform(1.0, 5.0, size=(len(ulps), dim))
    offsets = np.empty(len(ulps))
    for row, planted in enumerate(rng.integers(0, n, size=len(ulps))):
        offset = float(points[planted] @ normals[row])
        toward = np.inf if ulps[row] > 0 else -np.inf
        for _ in range(abs(ulps[row])):
            offset = float(np.nextafter(offset, toward))
        offsets[row] = offset
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0)
    return points, model, normals, offsets, op


class _Rational:
    """Exact answers from ``Fraction`` arithmetic on the stored float64 values."""

    _HOLDS = {
        "<=": lambda r: r <= 0,
        "<": lambda r: r < 0,
        ">=": lambda r: r >= 0,
        ">": lambda r: r > 0,
    }

    def __init__(self, points):
        self._rows = [[Fraction(x) for x in row] for row in points.tolist()]

    def _residuals(self, normal, offset):
        weights = [Fraction(a) for a in np.asarray(normal).tolist()]
        bound = Fraction(float(offset))
        return [sum(x * w for x, w in zip(row, weights)) - bound for row in self._rows]

    def query(self, normal, offset, op):
        holds = self._HOLDS[op]
        residuals = self._residuals(normal, offset)
        return np.array([i for i, r in enumerate(residuals) if holds(r)], dtype=np.int64)

    def query_range(self, normal, low, high):
        weights = [Fraction(a) for a in np.asarray(normal).tolist()]
        values = [sum(x * w for x, w in zip(row, weights)) for row in self._rows]
        return np.array(
            [i for i, v in enumerate(values) if Fraction(low) <= v <= Fraction(high)],
            dtype=np.int64,
        )

    def topk_ids(self, normal, offset, k, op):
        holds = self._HOLDS[op]
        residuals = self._residuals(normal, offset)
        ranked = sorted((abs(r), i) for i, r in enumerate(residuals) if holds(r))
        return np.array([i for _, i in ranked[:k]], dtype=np.int64)


def _nudged(value, ulps):
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, toward))
    return value


class TestBoundaryPointExactness:
    """Points on, or a few ulps off, the query hyperplane answer as
    ``Fraction`` arithmetic on the stored values does, and as
    ``SequentialScan`` does, on every path: single and batched
    ``query``, ``query_range``, top-k, a 2-shard engine, a shard recovered
    by a scan after an injected fault, and the octant-fallback scan."""

    def _check(self, engine, points, normals, offsets, op, seed):
        rational = _Rational(points)
        scan = SequentialScan(points)
        rng = np.random.default_rng(seed)
        batch = engine.query_batch(normals, offsets, op)
        topk_batch = engine.topk_batch(normals, offsets, 5, op)
        for row, normal in enumerate(normals):
            offset = float(offsets[row])
            query = ScalarProductQuery(normal, offset, op)
            truth = rational.query(normal, offset, op)
            single = engine.query(normal, offset, op)
            assert np.array_equal(single.ids, truth)
            assert np.array_equal(scan.query(query), truth)
            assert np.array_equal(batch[row].ids, single.ids)
            assert batch[row].stats == single.stats

            single_topk = engine.topk(normal, offset, 5, op)
            scan_topk = scan.topk(query, 5)
            assert np.array_equal(single_topk.ids, rational.topk_ids(normal, offset, 5, op))
            assert np.array_equal(single_topk.ids, scan_topk.ids)
            assert np.array_equal(single_topk.distances, scan_topk.distances)
            assert np.array_equal(topk_batch[row].ids, single_topk.ids)
            assert np.array_equal(topk_batch[row].distances, single_topk.distances)

            # A BETWEEN range with both ends planted on points.
            ends = [
                _nudged(float(points[j] @ normal), int(u))
                for j, u in zip(rng.integers(0, len(points), 2), rng.integers(-3, 4, 2))
            ]
            low, high = min(ends), max(ends)
            ranged = engine.query_range(normal, low, high)
            assert np.array_equal(ranged.ids, rational.query_range(normal, low, high))
            both = np.intersect1d(
                scan.query(ScalarProductQuery(normal, low, ">=")),
                scan.query(ScalarProductQuery(normal, high, "<=")),
            )
            assert np.array_equal(ranged.ids, both)

            # A normal outside the indexed octant takes the fallback scan.
            outside = normal.copy()
            outside[0] = -outside[0]
            planted = int(rng.integers(0, len(points)))
            offset_out = _nudged(float(points[planted] @ outside), int(rng.integers(-3, 4)))
            fallback = engine.query(outside, offset_out, op)
            assert fallback.used_fallback
            assert np.array_equal(fallback.ids, rational.query(outside, offset_out, op))

    @settings(max_examples=30, deadline=None)
    @given(case=boundary_cases())
    def test_function_index(self, case):
        points, model, normals, offsets, op = _boundary_batch(case)
        index = FunctionIndex(points, model, n_indices=4, rng=case[2])
        self._check(index, points, normals, offsets, op, case[2])

    @settings(max_examples=15, deadline=None)
    @given(case=boundary_cases())
    def test_two_shards(self, case):
        points, model, normals, offsets, op = _boundary_batch(case)
        engine = ShardedFunctionIndex(
            points, model, n_indices=4, rng=case[2], n_shards=2
        )
        try:
            self._check(engine, points, normals, offsets, op, case[2])
        finally:
            engine.close()

    @settings(max_examples=10, deadline=None)
    @given(case=boundary_cases())
    def test_recovered_shard(self, case):
        """Shard 1 fails every call and is answered by its recovery scan."""
        points, model, normals, offsets, op = _boundary_batch(case)
        engine = ShardedFunctionIndex(
            points, model, n_indices=4, rng=case[2], n_shards=2, failure_policy="degrade"
        )
        try:
            with _flt.injected("shard.query:error:shard=1"):
                answer = engine.query(normals[0], float(offsets[0]), op)
                assert answer.degraded is not None
                assert answer.degraded.recovered_shards
                self._check(engine, points, normals, offsets, op, case[2])
        finally:
            engine.close()
