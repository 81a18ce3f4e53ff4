"""Tests for the single Planar index: intervals, Algorithm 1, maintenance.

Each index is the one index of a collection (:func:`~tests.conftest.one_index`),
answered on its intervals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    FeatureStore,
    ScalarProductQuery,
)
from repro.exceptions import DimensionMismatchError, IndexBuildError
from repro.core.collection import PlanarIndexCollection
from repro.core.sorted_keys import ID_DTYPE, as_keys
from repro.geometry import Translator

from ..conftest import brute_force_ids, one_index

pytestmark = pytest.mark.usefixtures("intervals_route")


def score_card(features: np.ndarray, normal: np.ndarray, query: ScalarProductQuery):
    """EXPLAIN's selection score card of ``normal`` in a one-index collection."""
    return one_index(features, normal).explain(query).candidates[0]


class TestConstruction:
    def test_one_index_build(self, rng):
        features = rng.uniform(1, 100, size=(100, 3))
        index = one_index(features, np.array([1.0, 2.0, 3.0]))[0]
        assert len(index) == 100
        assert index.normal.shape == (3,)

    def test_dimension_mismatch(self, rng):
        """A persisted index whose normal does not fit the features."""
        store = FeatureStore(rng.uniform(1, 2, (10, 3)))
        translator = Translator(np.ones(3))
        ids = np.arange(10, dtype=ID_DTYPE)
        with pytest.raises(IndexBuildError):
            PlanarIndexCollection._from_prebuilt(
                store, translator, [(np.array([1.0, 2.0]), ids, np.zeros(10))], "counted"
            )

    def test_octant_incompatible_normal(self, rng):
        store = FeatureStore(rng.uniform(1, 2, (10, 2)))
        translator = Translator(np.ones(2))
        with pytest.raises(IndexBuildError):
            PlanarIndexCollection(store, translator, np.array([[1.0, -1.0]]))

    def test_normal_read_only(self, rng):
        index = one_index(rng.uniform(1, 2, (10, 2)), np.array([1.0, 1.0]))[0]
        with pytest.raises(ValueError):
            index.normal[0] = 5.0

    def test_memory_scales_with_n(self, rng):
        small = one_index(rng.uniform(1, 2, (100, 2)), np.array([1.0, 1.0]))
        large = one_index(rng.uniform(1, 2, (1000, 2)), np.array([1.0, 1.0]))
        assert large.memory_bytes() > small.memory_bytes()


class TestIntervalGeometry:
    def test_parallel_index_empty_intermediate(self, rng):
        """Corollary 1: a parallel index has zero-size intermediate interval
        (up to the floating-point guard band around the threshold)."""
        features = rng.uniform(1, 100, size=(500, 3))
        normal = np.array([2.0, 3.0, 4.0])
        collection = one_index(features, normal)
        query = ScalarProductQuery(normal, 250.0)
        r_lo, r_hi, n = collection[0].interval_ranks(collection.working_query(query))
        assert r_hi - r_lo <= 1
        card = score_card(features, normal, query)
        assert card.stretch == pytest.approx(0.0, abs=1e-9)
        assert card.angle_cos == pytest.approx(1.0)

    def test_example4_stretch(self):
        """The paper's Example 4: max stretch of index (1,1,2) vs
        query Y1 + 2 Y2 + 5 Y3 = 10 is 6."""
        features = np.array([[1.0, 1.0, 1.0]])
        query = ScalarProductQuery(np.array([1.0, 2.0, 5.0]), 10.0)
        card = score_card(features, np.array([1.0, 1.0, 2.0]), query)
        assert card.stretch == pytest.approx(6.0)

    def test_interval_partition_covers_everything(self, rng):
        features = rng.uniform(1, 100, size=(300, 4))
        collection = one_index(features, np.array([1.0, 2.0, 1.5, 3.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0, 3.0, 1.0]), 300.0)
        r_lo, r_hi, n = collection[0].interval_ranks(collection.working_query(query))
        assert 0 <= r_lo <= r_hi <= n == 300

    def test_si_points_satisfy_and_li_points_violate(self, rng):
        """Observations 1 and 2: SI certain-accept (strictly), LI
        certain-reject (strictly)."""
        features = rng.uniform(1, 100, size=(1000, 3))
        collection = one_index(features, np.array([1.0, 3.0, 2.0]))
        index = collection[0]
        query = ScalarProductQuery(np.array([2.0, 1.0, 4.0]), 350.0)
        r_lo, r_hi, n = index.interval_ranks(collection.working_query(query))
        si_ids = index._keys.ids_in_rank_range(0, r_lo)
        li_ids = index._keys.ids_in_rank_range(r_hi, n)
        assert np.all(features[si_ids] @ query.normal < query.offset)
        assert np.all(features[li_ids] @ query.normal > query.offset)


class TestInequalityCorrectness:
    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    def test_matches_bruteforce_first_octant(self, rng, op):
        features = rng.uniform(1, 100, size=(800, 4))
        collection = one_index(features, np.array([1.0, 2.0, 3.0, 4.0]))
        for _ in range(10):
            normal = rng.uniform(1.0, 5.0, 4)
            offset = float(rng.uniform(50, 800))
            query = ScalarProductQuery(normal, offset, op)
            result = collection.query(query)
            assert np.array_equal(result.ids, brute_force_ids(features, query))

    def test_boundary_points_exact(self):
        """Points exactly on the query hyperplane split correctly per op."""
        features = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        collection = one_index(features, np.array([1.0, 1.0]))
        query_le = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, "<=")
        query_lt = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, "<")
        query_ge = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, ">=")
        query_gt = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, ">")
        assert np.array_equal(collection.query(query_le).ids, [0, 1])
        assert np.array_equal(collection.query(query_lt).ids, [0])
        assert np.array_equal(collection.query(query_ge).ids, [1, 2])
        assert np.array_equal(collection.query(query_gt).ids, [2])

    def test_stats_consistency(self, rng):
        features = rng.uniform(1, 100, size=(500, 3))
        collection = one_index(features, np.array([1.0, 1.0, 1.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0, 3.0]), 300.0)
        result = collection.query(query)
        stats = result.stats
        assert stats.n_total == 500
        assert stats.si_size + stats.ii_size + stats.li_size == 500
        assert stats.n_verified == stats.ii_size
        assert stats.n_results == len(result)
        assert 0.0 <= stats.pruned_fraction <= 1.0

    def test_query_dimension_mismatch(self, rng):
        collection = one_index(rng.uniform(1, 2, (10, 3)), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            collection.query(ScalarProductQuery(np.array([1.0, 1.0]), 1.0))

    def test_empty_result(self, rng):
        features = rng.uniform(1, 100, size=(100, 2))
        collection = one_index(features, np.array([1.0, 1.0]))
        result = collection.query(ScalarProductQuery(np.array([1.0, 1.0]), 0.5))
        assert len(result) == 0

    def test_all_satisfying(self, rng):
        features = rng.uniform(1, 2, size=(100, 2))
        collection = one_index(features, np.array([1.0, 1.0]))
        result = collection.query(ScalarProductQuery(np.array([1.0, 1.0]), 1e9))
        assert len(result) == 100


class TestMixedSignData:
    @pytest.mark.parametrize("op", ["<=", ">="])
    def test_negative_coordinates(self, rng, op):
        features = rng.normal(0, 5, size=(400, 3))
        collection = one_index(features, np.array([1.0, 2.0, 1.0]))
        for _ in range(10):
            query = ScalarProductQuery(
                rng.uniform(0.5, 3.0, 3), float(rng.uniform(-10, 10)), op
            )
            result = collection.query(query)
            assert np.array_equal(result.ids, brute_force_ids(features, query))

    def test_negative_octant_normal(self, rng):
        features = rng.normal(0, 5, size=(300, 2))
        collection = one_index(features, np.array([-1.0, -2.0]))
        query = ScalarProductQuery(np.array([-1.5, -1.0]), 3.0)
        result = collection.query(query)
        assert np.array_equal(result.ids, brute_force_ids(features, query))


class TestDynamicMaintenance:
    """Writes go through the collection's write log; answers are exact with
    the writes pending and after ``merge``, which keys every pending row
    once under each normal."""

    N = 4000  # merges past 44 log entries, so the writes below stay pending

    def _assert_merged_keys(self, collection, ids):
        """The run holds ``ids`` under the keys ``merge`` computes from their rows."""
        index = collection[0]
        expected = as_keys(collection.normals @ collection._store.take_rows(ids).T)[0]
        position = {int(i): p for p, i in enumerate(index._keys.sorted_ids)}
        held = index._keys.sorted_keys[[position[int(i)] for i in ids]]
        assert np.array_equal(held, expected)

    def _assert_exact(self, collection, store, query):
        live_ids, live_rows = store.get_all()
        expected = brute_force_ids(live_rows, query, live_ids)
        assert np.array_equal(collection.query(query).ids, expected)

    def test_rekey_reflects_updates(self, rng):
        store = FeatureStore(rng.uniform(1, 100, size=(self.N, 2)))
        collection = one_index(store, np.array([1.0, 1.0]))
        ids = np.arange(20, dtype=np.int64)
        store.update(ids, rng.uniform(1, 100, size=(20, 2)))
        collection.rekey(ids)
        assert collection._log.state is not None
        query = ScalarProductQuery(np.array([1.0, 2.0]), 150.0)
        self._assert_exact(collection, store, query)
        collection.merge()
        assert collection._log.state is None
        self._assert_exact(collection, store, query)
        self._assert_merged_keys(collection, ids)

    def test_insert_and_delete(self, rng):
        store = FeatureStore(rng.uniform(1, 100, size=(self.N, 2)))
        collection = one_index(store, np.array([1.0, 1.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0]), 170.0)

        new_ids = store.append(rng.uniform(1, 100, size=(30, 2)))
        collection.insert(new_ids)
        doomed = np.arange(10, dtype=np.int64)
        collection.delete(doomed)
        store.delete(doomed)
        assert collection._log.state is not None
        self._assert_exact(collection, store, query)

        collection.merge()
        assert len(collection[0]) == self.N + 30 - 10
        self._assert_exact(collection, store, query)
        self._assert_merged_keys(collection, new_ids)

    def test_rekey_and_insert_share_key_computation(self, rng):
        """Re-keyed and inserted rows are keyed by ``merge``'s one product
        over the store's float64 rows, whether they were written as
        float32, in Fortran order or as a strided view: the stored keys
        are the float64 products rounded once (``as_keys``)."""
        store = FeatureStore(rng.uniform(1, 100, size=(self.N, 3)))
        normal = np.array([2.0, 1.0, 3.0])
        collection = one_index(store, normal)

        moved = np.asfortranarray(rng.uniform(1, 100, size=(12, 3)).astype(np.float32))
        ids = np.arange(12, dtype=np.int64)
        store.update(ids, moved)
        collection.rekey(ids)
        fresh = rng.uniform(1, 100, size=(20, 3))[::2]
        new_ids = store.append(fresh)
        collection.insert(new_ids)
        assert collection._log.state is not None
        query = ScalarProductQuery(np.array([1.0, 2.0, 1.0]), 250.0)
        self._assert_exact(collection, store, query)

        collection.merge()
        self._assert_exact(collection, store, query)
        for written, rows in ((ids, moved), (new_ids, fresh)):
            self._assert_merged_keys(collection, written)
            rows64 = np.ascontiguousarray(rows, dtype=np.float64)
            assert np.array_equal(store.take_rows(written), rows64)


@given(
    features=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 60), st.integers(1, 4)),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_property_exactness_all_ops(features, data):
    """Property: index answers equal brute force for random data and queries."""
    dim = features.shape[1]
    normal_signs = data.draw(hnp.arrays(np.int8, dim, elements=st.sampled_from([-1, 1])))
    magnitudes = data.draw(
        hnp.arrays(np.float64, dim, elements=st.floats(0.1, 10.0, allow_nan=False))
    )
    index_normal = normal_signs * magnitudes
    query_mags = data.draw(
        hnp.arrays(np.float64, dim, elements=st.floats(0.1, 10.0, allow_nan=False))
    )
    query_normal = normal_signs * query_mags
    offset = data.draw(st.floats(-500, 500, allow_nan=False))
    op = data.draw(st.sampled_from(["<=", "<", ">=", ">"]))

    query = ScalarProductQuery(query_normal, offset, op)
    result = one_index(features, index_normal).query(query)
    # Both sides decide exactly, so ulp-level ties of the offset agree too.
    assert np.array_equal(result.ids, brute_force_ids(features, query))
