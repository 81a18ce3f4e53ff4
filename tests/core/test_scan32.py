"""The float32 scan route and counted selection.

Three groups:

* the float32 column scan decides every row as ``Fraction`` arithmetic on
  the stored float64 values does: rows beyond the float32 range and below
  its smallest subnormal, query normals whose float32 rounding would
  overflow or underflow, and a row whose two float32 input roundings add
  up to nearly twice the rounding of the dot product itself;
* the real-valued boundary suite with every query forced through the
  scan (route fraction 0) and through the intervals (1), on a monolithic
  index and a 2-shard engine, with dead rows, and after a ``mmap`` and a
  ``copy`` load;
* counted selection after each kind of write picks what a freshly built
  collection picks, EXPLAIN reports its estimate, and the estimate-error
  histogram records only when obs is armed.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro import FunctionIndex, QueryModel, ScalarProductQuery, load_index, save_index
from repro.core import exact
from repro.core.collection import PlanarIndexCollection
from repro.core.feature_store import FeatureStore
from repro.core.selection import SKETCH_BUCKETS
from repro.geometry.translation import Translator
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.parallel.engine import ShardedFunctionIndex

from ..conftest import fraction_values
from .test_batch_property import _boundary_batch, _Rational, boundary_cases

_OPS = ("<=", "<", ">=", ">")
_HOLDS = {
    "<=": lambda r: r <= 0,
    "<": lambda r: r < 0,
    ">=": lambda r: r >= 0,
    ">": lambda r: r > 0,
}


def _scan_decision(store: FeatureStore, normal, offset, op) -> np.ndarray:
    """Ids the scan route accepts: float32 scan values plus ``exact.select``.

    The store scans every row, dead ones too, and drops dead positions
    from the answer only.
    """
    query = ScalarProductQuery(np.asarray(normal, dtype=np.float64), offset, op)
    ids, values, bound = store.scan_values(query.normal)
    assert ids is None and values.size == store.capacity
    return store.live_only(exact.select(values, query, bound, store.take_rows))


def _truth(rows, ids, normal, offset, op) -> np.ndarray:
    bound = Fraction(float(offset))
    holds = _HOLDS[op]
    values = fraction_values(rows, np.asarray(normal, dtype=np.float64))
    return np.array(
        [i for i, v in zip(ids, values) if holds(v - bound)], dtype=np.int64
    )


class TestScanKernel:
    def test_input_rounding_is_covered(self):
        """``a`` and ``x`` both round down by almost half a float32 ulp, so
        the float32 product misses the exact one by nearly ``2 u``, twice
        the rounding of a length-1 dot product: ``E32`` must cover both."""
        near = 1.0 + 2.0 ** -24 - 2.0 ** -40
        store = FeatureStore(np.array([[near]]))
        _, values, bound = store.scan_values(np.array([near]))
        error = abs(Fraction(float(values[0])) - Fraction(near) ** 2)
        assert error > Fraction(2.0 ** -24)
        assert error <= Fraction(bound)
        offset = 1.0 + 1.5 * 2.0 ** -24
        for op in _OPS:
            got = _scan_decision(store, [near], offset, op)
            assert np.array_equal(got, _truth([[near]], [0], [near], offset, op)), op

    def test_thresholds_round_outward(self):
        """The float32 thresholds bracket ``b -+ E32`` as real numbers."""
        rng = np.random.default_rng(3)
        offsets = rng.normal(size=400) * 10.0 ** rng.integers(-45, 39, size=400)
        bounds = np.abs(offsets) * 10.0 ** rng.uniform(-9, -5, size=400)
        for offset, bound in zip(offsets.tolist(), bounds.tolist()):
            low, high = exact._scan_thresholds(offset, bound)
            assert Fraction(float(low)) <= Fraction(offset) - Fraction(bound)
            assert Fraction(float(high)) >= Fraction(offset) + Fraction(bound)

    def test_rows_beyond_the_float32_range_are_band_rows(self):
        """A float32 copy that overflows gives an infinite value whose row
        may still satisfy the query; it is re-decided from float64."""
        rows = np.array([[2.0 ** 130, 1.0], [1e300, 2.0], [1.0, 1.0], [3e38, 1.0]])
        store = FeatureStore(rows)
        for normal in ([2.0 ** -140, 1.0], [1e-300, 1.0], [0.0, 1.0]):
            for offset in (1.5, 1.0009765625, 2.5):
                for op in _OPS:
                    got = _scan_decision(store, normal, offset, op)
                    truth = _truth(rows, range(4), normal, offset, op)
                    assert np.array_equal(got, truth), (normal, offset, op)

    def test_rows_below_the_smallest_subnormal(self):
        rows = np.array(
            [[1e-50, 0.0], [1e-46, 1e-47], [3e-45, 0.0], [0.0, 1e-44], [7e-46, 7e-46]]
        )
        store = FeatureStore(rows)
        for offset in (0.0, 1e-46, 7.006492321624085e-46, 2e-45, 1e-60):
            for op in _OPS:
                got = _scan_decision(store, [1.0, 1.0], offset, op)
                assert np.array_equal(got, _truth(rows, range(5), [1.0, 1.0], offset, op))

    @pytest.mark.parametrize(
        "normal",
        [[1e39, 3e39], [1e150, 1.0], [1e-50, 2e-50], [1e-150, 3e-155], [3.0, 1e-46]],
    )
    def test_normals_whose_float32_rounding_overflows_or_underflows(self, normal):
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.0, 10.0, size=(60, 2)) * np.array([1.0, 1e3])
        store = FeatureStore(rows)
        normal = np.asarray(normal)
        for planted in rng.integers(0, rows.shape[0], size=4):
            offset = float(rows[planted] @ normal)
            for nudge in (-1, 0, 1):
                nudged = float(np.nextafter(offset, np.inf * nudge)) if nudge else offset
                for op in _OPS:
                    got = _scan_decision(store, normal, nudged, op)
                    truth = _truth(rows, range(rows.shape[0]), normal, nudged, op)
                    assert np.array_equal(got, truth), (nudged, op)

    def test_bound_covers_every_finite_value(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-10.0, 10.0, size=(200, 5)) * 10.0 ** rng.uniform(-20, 20, size=5)
        normal = rng.uniform(-5.0, 5.0, size=5) * 10.0 ** rng.uniform(-20, 20, size=5)
        columns, magnitudes = exact.scan_columns(rows)
        values, bound = exact.scan(columns, magnitudes, normal)
        scale = Fraction(exact.scan_scale(normal))
        for value, true in zip(values.tolist(), fraction_values(rows, normal)):
            assert abs(Fraction(value) - scale * true) <= Fraction(bound)

    def test_dead_rows_are_skipped(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(1.0, 100.0, size=(50, 3))
        store = FeatureStore(rows)
        store.delete(np.arange(0, 50, 3))
        live = store.live_ids()
        normal = np.array([1.0, 2.0, 3.0])
        offset = float(rows[live[5]] @ normal)
        for op in _OPS:
            got = _scan_decision(store, normal, offset, op)
            assert np.array_equal(got, _truth(rows[live], live, normal, offset, op))


class TestScanCopy:
    def test_built_on_first_scan_and_counted(self):
        store = FeatureStore(np.arange(12.0).reshape(4, 3))
        before = store.memory_bytes()
        assert store._scan is None
        store.scan_values(np.ones(3))
        assert store.memory_bytes() == before + 4 * 3 * 4 + 3 * 8

    def test_raw_point_store_never_holds_one(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=3, rng=0)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            index.query(uniform_model.sample_normal(1), 500.0)
        assert index._features._scan is not None
        assert index._points._scan is None

    def test_writes_keep_the_copy_current(self):
        rng = np.random.default_rng(6)
        store = FeatureStore(rng.uniform(1.0, 10.0, size=(20, 3)))
        store.scan_values(np.ones(3))
        store.update(np.array([2, 7]), np.array([[1e39, 1.0, 2.0], [5.0, 6.0, 7.0]]))
        store.append(rng.uniform(1.0, 10.0, size=(5, 3)))
        store.delete(np.array([3]))
        fresh_columns, fresh_magnitudes = exact.scan_columns(store._data)
        columns, magnitudes = store._scan
        assert np.array_equal(columns, fresh_columns)
        assert np.all(magnitudes >= fresh_magnitudes)


def _check_forced(engine, points, normals, offsets, op, live):
    rational = _Rational(points[live])
    for row, normal in enumerate(normals):
        offset = float(offsets[row])
        assert np.array_equal(
            engine.query(normal, offset, op).ids, live[rational.query(normal, offset, op)]
        )
        assert np.array_equal(
            engine.topk(normal, offset, 3, op).ids,
            live[rational.topk_ids(normal, offset, 3, op)],
        )
        low, high = sorted((offset, float(points[live[0]] @ normal)))
        assert np.array_equal(
            engine.query_range(normal, low, high).ids,
            live[rational.query_range(normal, low, high)],
        )


class TestForcedRoutes:
    """The boundary generator against ``Fraction`` with every query forced
    through the scan (0) or through the intervals (1)."""

    @pytest.mark.parametrize("route_fraction", [0.0, 1.0])
    @settings(max_examples=8, deadline=None)
    @given(case=boundary_cases())
    def test_monolithic_with_dead_rows(self, route_fraction, case):
        points, model, normals, offsets, op = _boundary_batch(case)
        index = FunctionIndex(points, model, n_indices=4, rng=case[2])
        dead = np.arange(0, points.shape[0], 7)
        index.delete_points(dead)
        live = np.setdiff1d(np.arange(points.shape[0]), dead)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", route_fraction):
            _check_forced(index, points, normals, offsets, op, live)

    @settings(max_examples=8, deadline=None)
    @given(case=boundary_cases())
    def test_forced_scan_over_merged_dead_rows(self, case):
        """The store scans dead rows too and drops them from the answer only.

        With the write log merged, the only record of the deletions is the
        store's liveness; every query is forced through the scan.
        """
        points, model, normals, offsets, op = _boundary_batch(case)
        index = FunctionIndex(points, model, n_indices=4, rng=case[2])
        dead = np.arange(1, points.shape[0], 3)
        index.delete_points(dead)
        index.merge_writes()
        assert index.collection._log.state is None
        live = np.setdiff1d(np.arange(points.shape[0]), dead)
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            _check_forced(index, points, normals, offsets, op, live)

    @pytest.mark.parametrize("route_fraction", [0.0, 1.0])
    @settings(max_examples=6, deadline=None)
    @given(case=boundary_cases())
    def test_two_shards(self, route_fraction, case):
        points, model, normals, offsets, op = _boundary_batch(case)
        engine = ShardedFunctionIndex(points, model, n_indices=4, rng=case[2], n_shards=2)
        try:
            engine.delete_points(np.array([1, 2]))
            live = np.setdiff1d(np.arange(points.shape[0]), [1, 2])
            with mock.patch(
                "repro.core.collection._SCAN_FALLBACK_FRACTION", route_fraction
            ):
                _check_forced(engine, points, normals, offsets, op, live)
        finally:
            engine.close()

    @pytest.mark.parametrize("mode", ["mmap", "copy"])
    @settings(max_examples=4, deadline=None)
    @given(case=boundary_cases())
    def test_loaded_index(self, mode, case, tmp_path_factory):
        points, model, normals, offsets, op = _boundary_batch(case)
        index = FunctionIndex(points, model, n_indices=4, rng=case[2])
        path = save_index(index, tmp_path_factory.mktemp("scan32") / "idx")
        loaded = load_index(path, mode=mode)
        live = np.arange(points.shape[0])
        with mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0):
            _check_forced(loaded, points, normals, offsets, op, live)


def _fresh_positions(collection, rows, queries) -> list[int]:
    translator = Translator(collection._translator.octant)
    translator.observe(rows)
    fresh = PlanarIndexCollection(FeatureStore(rows), translator, collection.normals)
    assert len(fresh) == len(collection)
    return [fresh._select_position(fresh.working_query(q)) for q in queries]


class TestCountedSelection:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(12)
        points = rng.integers(1, 100, size=(3000, 4)).astype(np.float64)
        model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=12, rng=3)
        maxima = points.max(axis=0)
        queries = [
            ScalarProductQuery(normal, float(fraction * normal @ maxima))
            for normal, fraction in zip(
                model.sample_normals(40, rng), rng.uniform(0.05, 0.6, size=40)
            )
        ]
        return index, rng, queries

    def _assert_fresh(self, index, queries):
        collection = index.collection
        got = [collection._select_position(collection.working_query(q)) for q in queries]
        rows = index.get_features(index.live_ids())
        assert got == _fresh_positions(collection, rows, queries)

    def test_default_strategy_is_counted(self, setup):
        index, _, _ = setup
        assert index.collection.strategy.value == "counted"

    def test_matches_fresh_build_after_every_write(self, setup):
        index, rng, queries = setup
        self._assert_fresh(index, queries)
        index.insert_points(rng.integers(1, 100, size=(400, 4)).astype(np.float64))
        self._assert_fresh(index, queries)
        ids = rng.choice(index.live_ids(), size=300, replace=False)
        index.update_points(ids, rng.integers(1, 100, size=(300, 4)).astype(np.float64))
        self._assert_fresh(index, queries)
        index.delete_points(rng.choice(index.live_ids(), size=500, replace=False))
        self._assert_fresh(index, queries)
        assert index.add_index(np.array([1.0, 4.0, 2.0, 3.0]))
        self._assert_fresh(index, queries)
        index.drop_index(0)
        self._assert_fresh(index, queries)

    def test_picks_smaller_intervals_than_min_stretch(self, setup):
        index, _, queries = setup
        counted = index.collection
        stretch = FunctionIndex(
            index.get_points(index.live_ids()),
            index.query_model,
            normals=counted.normals,
            strategy="min_stretch",
        ).collection
        sizes = {}
        for name, collection in (("counted", counted), ("min_stretch", stretch)):
            total = 0
            for query in queries:
                wq = collection.working_query(query)
                r_lo, r_hi, _ = collection.select(wq).interval_ranks(wq)
                total += r_hi - r_lo
            sizes[name] = total
        assert sizes["counted"] <= sizes["min_stretch"]

    def test_explain_reports_the_estimate(self, setup):
        index, _, queries = setup
        report = index.collection.explain(queries[0])
        n = len(index)
        chosen = [c for c in report.candidates if c.chosen]
        assert len(chosen) == 1
        for candidate in report.candidates:
            assert candidate.estimated_ii is not None
            assert 0 <= candidate.estimated_ii <= n * (SKETCH_BUCKETS + 1) / SKETCH_BUCKETS
        least = min(c.estimated_ii for c in report.candidates)
        assert chosen[0].estimated_ii == least
        assert "estimated_ii" in report.to_dict()["candidates"][0]

    @pytest.mark.parametrize("armed", [True, False])
    def test_estimate_error_recorded_only_when_armed(self, setup, armed):
        index, _, queries = setup
        histogram = obs_metrics.ii_estimate_error()
        previous = obs_runtime.enable() if armed else obs_runtime.disable()
        try:
            before = histogram.count()
            index.query(queries[0].normal, queries[0].offset)
            assert histogram.count() == before + int(armed)
        finally:
            obs_runtime.enable(previous)
