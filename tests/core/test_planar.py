"""Tests for the single Planar index: intervals, Algorithm 1, maintenance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    Comparison,
    FeatureStore,
    PlanarIndex,
    ScalarProductQuery,
)
from repro.exceptions import DimensionMismatchError, IndexBuildError
from repro.core.collection import PlanarIndexCollection
from repro.core.sorted_keys import as_keys
from repro.geometry import Translator

from ..conftest import brute_force_ids


def make_index(features: np.ndarray, normal: np.ndarray) -> PlanarIndex:
    return PlanarIndex.from_features(features, normal)


def score_card(features: np.ndarray, normal: np.ndarray, query: ScalarProductQuery):
    """EXPLAIN's selection score card of ``normal`` in a one-index collection."""
    translator = Translator(np.ones(features.shape[1]))
    translator.observe(features)
    collection = PlanarIndexCollection(
        FeatureStore(features), translator, normal[np.newaxis]
    )
    return collection.explain(query).candidates[0]


class TestConstruction:
    def test_standalone_build(self, rng):
        features = rng.uniform(1, 100, size=(100, 3))
        index = make_index(features, np.array([1.0, 2.0, 3.0]))
        assert len(index) == 100
        assert index.dim == 3

    def test_dimension_mismatch(self, rng):
        store = FeatureStore(rng.uniform(1, 2, (10, 3)))
        translator = Translator(np.ones(3))
        with pytest.raises(IndexBuildError):
            PlanarIndex(np.array([1.0, 2.0]), store, translator)

    def test_octant_incompatible_normal(self, rng):
        store = FeatureStore(rng.uniform(1, 2, (10, 2)))
        translator = Translator(np.ones(2))
        with pytest.raises(IndexBuildError):
            PlanarIndex(np.array([1.0, -1.0]), store, translator)

    def test_normal_read_only(self, rng):
        index = make_index(rng.uniform(1, 2, (10, 2)), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            index.normal[0] = 5.0

    def test_memory_scales_with_n(self, rng):
        small = make_index(rng.uniform(1, 2, (100, 2)), np.array([1.0, 1.0]))
        large = make_index(rng.uniform(1, 2, (1000, 2)), np.array([1.0, 1.0]))
        assert large.memory_bytes() > small.memory_bytes()


class TestIntervalGeometry:
    def test_parallel_index_empty_intermediate(self, rng):
        """Corollary 1: a parallel index has zero-size intermediate interval
        (up to the floating-point guard band around the threshold)."""
        features = rng.uniform(1, 100, size=(500, 3))
        normal = np.array([2.0, 3.0, 4.0])
        index = make_index(features, normal)
        query = ScalarProductQuery(normal, 250.0)
        wq = index.working_query(query)
        r_lo, r_hi, n = index.interval_ranks(wq)
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
        index = make_index(features, np.array([1.0, 2.0, 1.5, 3.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0, 3.0, 1.0]), 300.0)
        r_lo, r_hi, n = index.interval_ranks(index.working_query(query))
        assert 0 <= r_lo <= r_hi <= n == 300

    def test_si_points_satisfy_and_li_points_violate(self, rng):
        """Observations 1 and 2: SI certain-accept (strictly), LI
        certain-reject (strictly)."""
        features = rng.uniform(1, 100, size=(1000, 3))
        index = make_index(features, np.array([1.0, 3.0, 2.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0, 4.0]), 350.0)
        wq = index.working_query(query)
        r_lo, r_hi, n = index.interval_ranks(wq)
        si_ids = index._keys.ids_in_rank_range(0, r_lo)
        li_ids = index._keys.ids_in_rank_range(r_hi, n)
        assert np.all(features[si_ids] @ query.normal < query.offset)
        assert np.all(features[li_ids] @ query.normal > query.offset)


class TestInequalityCorrectness:
    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    def test_matches_bruteforce_first_octant(self, rng, op):
        features = rng.uniform(1, 100, size=(800, 4))
        index = make_index(features, np.array([1.0, 2.0, 3.0, 4.0]))
        for _ in range(10):
            normal = rng.uniform(1.0, 5.0, 4)
            offset = float(rng.uniform(50, 800))
            query = ScalarProductQuery(normal, offset, op)
            result = index.query(query)
            assert np.array_equal(result.ids, brute_force_ids(features, query))

    def test_boundary_points_exact(self):
        """Points exactly on the query hyperplane split correctly per op."""
        features = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        index = make_index(features, np.array([1.0, 1.0]))
        query_le = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, "<=")
        query_lt = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, "<")
        query_ge = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, ">=")
        query_gt = ScalarProductQuery(np.array([1.0, 1.0]), 4.0, ">")
        assert np.array_equal(index.query(query_le).ids, [0, 1])
        assert np.array_equal(index.query(query_lt).ids, [0])
        assert np.array_equal(index.query(query_ge).ids, [1, 2])
        assert np.array_equal(index.query(query_gt).ids, [2])

    def test_stats_consistency(self, rng):
        features = rng.uniform(1, 100, size=(500, 3))
        index = make_index(features, np.array([1.0, 1.0, 1.0]))
        query = ScalarProductQuery(np.array([2.0, 1.0, 3.0]), 300.0)
        result = index.query(query)
        stats = result.stats
        assert stats.n_total == 500
        assert stats.si_size + stats.ii_size + stats.li_size == 500
        assert stats.n_verified == stats.ii_size
        assert stats.n_results == len(result)
        assert 0.0 <= stats.pruned_fraction <= 1.0

    def test_query_dimension_mismatch(self, rng):
        index = make_index(rng.uniform(1, 2, (10, 3)), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            index.query(ScalarProductQuery(np.array([1.0, 1.0]), 1.0))

    def test_empty_result(self, rng):
        features = rng.uniform(1, 100, size=(100, 2))
        index = make_index(features, np.array([1.0, 1.0]))
        result = index.query(ScalarProductQuery(np.array([1.0, 1.0]), 0.5))
        assert len(result) == 0

    def test_all_satisfying(self, rng):
        features = rng.uniform(1, 2, size=(100, 2))
        index = make_index(features, np.array([1.0, 1.0]))
        result = index.query(ScalarProductQuery(np.array([1.0, 1.0]), 1e9))
        assert len(result) == 100


class TestMixedSignData:
    @pytest.mark.parametrize("op", ["<=", ">="])
    def test_negative_coordinates(self, rng, op):
        features = rng.normal(0, 5, size=(400, 3))
        index = make_index(features, np.array([1.0, 2.0, 1.0]))
        for _ in range(10):
            query = ScalarProductQuery(
                rng.uniform(0.5, 3.0, 3), float(rng.uniform(-10, 10)), op
            )
            result = index.query(query)
            assert np.array_equal(result.ids, brute_force_ids(features, query))

    def test_negative_octant_normal(self, rng):
        features = rng.normal(0, 5, size=(300, 2))
        index = make_index(features, np.array([-1.0, -2.0]))
        query = ScalarProductQuery(np.array([-1.5, -1.0]), 3.0)
        result = index.query(query)
        assert np.array_equal(result.ids, brute_force_ids(features, query))


class TestDynamicMaintenance:
    def test_rekey_reflects_updates(self, rng):
        features = rng.uniform(1, 100, size=(200, 2)).copy()
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        translator.observe(features)
        index = PlanarIndex(np.array([1.0, 1.0]), store, translator)
        new_rows = rng.uniform(1, 100, size=(20, 2))
        ids = np.arange(20, dtype=np.int64)
        old_rows = store.get(ids)
        store.update(ids, new_rows)
        index.rekey(ids, new_rows, old_rows)
        features[:20] = new_rows
        query = ScalarProductQuery(np.array([1.0, 2.0]), 150.0)
        assert np.array_equal(index.query(query).ids, brute_force_ids(features, query))

    def test_insert_and_delete(self, rng):
        features = rng.uniform(1, 100, size=(100, 2))
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        translator.observe(features)
        index = PlanarIndex(np.array([1.0, 1.0]), store, translator)

        extra = rng.uniform(1, 100, size=(30, 2))
        new_ids = store.append(extra)
        index.insert(new_ids, extra)
        assert len(index) == 130

        doomed = np.arange(10, dtype=np.int64)
        index.delete(doomed, store.get(doomed))
        store.delete(doomed)
        assert len(index) == 120

        live_ids, live_rows = store.get_all()
        query = ScalarProductQuery(np.array([2.0, 1.0]), 170.0)
        expected = brute_force_ids(live_rows, query, live_ids)
        assert np.array_equal(index.query(query).ids, expected)

    def test_rekey_and_insert_share_key_computation(self, rng):
        """Both maintenance entry points rebuild keys through one helper
        (``_compute_keys``); this drives each with awkward inputs —
        float32 rows, Fortran order, strided views — and checks the
        stored keys are the float64 ``rows @ normal`` products, rounded
        once to the stored float32 (``as_keys``).
        """
        features = rng.uniform(1, 100, size=(80, 3)).copy()
        store = FeatureStore(features)
        translator = Translator(np.ones(3))
        translator.observe(features)
        normal = np.array([2.0, 1.0, 3.0])
        index = PlanarIndex(normal, store, translator)

        # rekey with a float32 Fortran-order matrix.
        moved = np.asfortranarray(
            rng.uniform(1, 100, size=(12, 3)).astype(np.float32)
        )
        ids = np.arange(12, dtype=np.int64)
        old_rows = store.get(ids)
        store.update(ids, moved)
        index.rekey(ids, moved, old_rows)
        expected_keys = as_keys(np.ascontiguousarray(moved, dtype=np.float64) @ normal)
        rank = np.searchsorted(index._keys.sorted_keys, expected_keys)
        # Every rekeyed id sits at a position whose stored key equals the
        # float64 product rounded once to float32.
        for row, point_id in enumerate(ids):
            positions = np.nonzero(index._keys.sorted_ids == point_id)[0]
            assert index._keys.sorted_keys[positions[0]] == expected_keys[row]
        del rank

        # insert with a strided (every-other-row) view.
        block = rng.uniform(1, 100, size=(20, 3))
        fresh = block[::2]
        new_ids = store.append(fresh)
        index.insert(new_ids, fresh)
        inserted_keys = as_keys(np.ascontiguousarray(fresh, dtype=np.float64) @ normal)
        for row, point_id in enumerate(new_ids):
            positions = np.nonzero(index._keys.sorted_ids == point_id)[0]
            assert index._keys.sorted_keys[positions[0]] == inserted_keys[row]

        # And the index still answers exactly over the churned store.
        live_ids, live_rows = store.get_all()
        query = ScalarProductQuery(np.array([1.0, 2.0, 1.0]), 250.0)
        expected = brute_force_ids(live_rows, query, live_ids)
        assert np.array_equal(index.query(query).ids, expected)


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

    index = PlanarIndex.from_features(features, index_normal)
    query = ScalarProductQuery(query_normal, offset, op)
    result = index.query(query)
    # Both sides decide exactly, so ulp-level ties of the offset agree too.
    assert np.array_equal(result.ids, brute_force_ids(features, query))
