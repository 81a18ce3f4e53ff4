"""Tests for the top-k buffer and Algorithm 2 (Problem 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ScalarProductQuery, TopKBuffer
from repro.exceptions import InvalidQueryError

from ..conftest import brute_force_topk, one_index


class TestTopKBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TopKBuffer(0)

    def test_fill_and_max_distance(self):
        buffer = TopKBuffer(2)
        assert buffer.max_distance == float("inf")
        buffer.offer(3.0, 1)
        assert not buffer.is_full
        buffer.offer(1.0, 2)
        assert buffer.is_full
        assert buffer.max_distance == 3.0

    def test_better_candidate_evicts_worst(self):
        buffer = TopKBuffer(2)
        buffer.offer(3.0, 1)
        buffer.offer(1.0, 2)
        assert buffer.offer(2.0, 3) is True
        assert buffer.max_distance == 2.0
        ids, dists = buffer.as_sorted()
        assert np.array_equal(ids, [2, 3])
        assert np.array_equal(dists, [1.0, 2.0])

    def test_worse_candidate_rejected(self):
        buffer = TopKBuffer(1)
        buffer.offer(1.0, 5)
        assert buffer.offer(2.0, 6) is False
        ids, _ = buffer.as_sorted()
        assert np.array_equal(ids, [5])

    def test_distance_ties_broken_by_smaller_id(self):
        buffer = TopKBuffer(2)
        buffer.offer(1.0, 9)
        buffer.offer(1.0, 3)
        assert buffer.offer(1.0, 1) is True  # evicts id 9 (same dist, larger id)
        ids, _ = buffer.as_sorted()
        assert np.array_equal(ids, [1, 3])

    def test_offer_many(self):
        buffer = TopKBuffer(3)
        buffer.offer_many(np.array([5.0, 1.0, 3.0, 2.0]), np.array([0, 1, 2, 3]))
        ids, dists = buffer.as_sorted()
        assert np.array_equal(ids, [1, 3, 2])
        assert np.array_equal(dists, [1.0, 2.0, 3.0])


class TestAlgorithm2:
    @pytest.fixture
    def index_and_features(self, rng):
        features = rng.uniform(1, 100, size=(2000, 4))
        index = one_index(features, np.array([1.0, 2.0, 1.5, 3.0]))
        return index, features

    @pytest.mark.parametrize("k", [1, 10, 100])
    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    def test_matches_bruteforce(self, index_and_features, rng, k, op):
        index, features = index_and_features
        query = ScalarProductQuery(rng.uniform(1, 5, 4), 400.0, op)
        result = index.topk(query, k)
        expected_ids, expected_dists = brute_force_topk(features, query, k)
        assert np.allclose(result.distances, expected_dists)
        assert np.array_equal(result.ids, expected_ids)

    def test_prunes_most_points(self, index_and_features, rng):
        """The Table 3 behaviour: only a small fraction is checked."""
        index, _ = index_and_features
        query = ScalarProductQuery(np.array([1.0, 2.0, 1.5, 3.0]) * 1.01, 400.0)
        result = index.topk(query, 10)
        assert result.n_checked < result.n_total * 0.3

    def test_k_larger_than_result_set(self, index_and_features, rng):
        index, features = index_and_features
        query = ScalarProductQuery(rng.uniform(1, 5, 4), 250.0)
        n_satisfying = int(query.evaluate(features).sum())
        result = index.topk(query, n_satisfying + 50)
        assert len(result) == n_satisfying

    def test_no_satisfying_points(self, index_and_features):
        index, _ = index_and_features
        query = ScalarProductQuery(np.array([1.0, 1.0, 1.0, 1.0]), 1.0)
        result = index.topk(query, 5)
        assert len(result) == 0

    def test_invalid_k(self, index_and_features):
        index, _ = index_and_features
        with pytest.raises(InvalidQueryError):
            index.topk(ScalarProductQuery(np.ones(4), 10.0), 0)

    def test_distances_sorted_ascending(self, index_and_features, rng):
        index, _ = index_and_features
        query = ScalarProductQuery(rng.uniform(1, 5, 4), 500.0)
        result = index.topk(query, 50)
        assert np.all(np.diff(result.distances) >= 0)

    def test_checked_fraction_bounds(self, index_and_features, rng):
        index, _ = index_and_features
        result = index.topk(ScalarProductQuery(rng.uniform(1, 5, 4), 400.0), 10)
        assert 0.0 <= result.checked_fraction <= 1.0


class TestMixedSignTopK:
    @pytest.mark.parametrize("op", ["<=", ">="])
    def test_negative_data(self, rng, op):
        features = rng.normal(0, 5, size=(800, 3))
        index = one_index(features, np.array([1.0, 2.0, 1.0]))
        for _ in range(5):
            query = ScalarProductQuery(
                rng.uniform(0.5, 3.0, 3), float(rng.uniform(-10, 10)), op
            )
            result = index.topk(query, 15)
            expected_ids, expected_dists = brute_force_topk(features, query, 15)
            assert np.allclose(result.distances, expected_dists)
            assert np.array_equal(result.ids, expected_ids)


@given(
    features=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 50), st.integers(1, 3)),
        elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_topk_matches_bruteforce(features, data):
    dim = features.shape[1]
    index_normal = data.draw(
        hnp.arrays(np.float64, dim, elements=st.floats(0.1, 5.0, allow_nan=False))
    )
    query_normal = data.draw(
        hnp.arrays(np.float64, dim, elements=st.floats(0.1, 5.0, allow_nan=False))
    )
    offset = data.draw(st.floats(-100, 100, allow_nan=False))
    op = data.draw(st.sampled_from(["<=", "<", ">=", ">"]))
    k = data.draw(st.integers(1, 20))

    index = one_index(features, index_normal)
    query = ScalarProductQuery(query_normal, offset, op)
    result = index.topk(query, k)
    expected_ids, expected_dists = brute_force_topk(features, query, k)
    assert np.allclose(result.distances, expected_dists, atol=1e-9)
    # Ids may differ on exact distance ties between distinct points; the
    # multiset of distances is the contract there.
    if np.unique(np.round(expected_dists, 12)).size == expected_dists.size:
        assert np.array_equal(result.ids, expected_ids)
