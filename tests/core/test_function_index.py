"""Tests for the FunctionIndex facade: phi handling, fallback, dynamics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FunctionIndex,
    ParameterDomain,
    QueryModel,
    ScalarProductQuery,
    product_map,
)
from repro.exceptions import DimensionMismatchError

from ..conftest import brute_force_ids, churn


class TestConstruction:
    def test_identity_default(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, rng=0)
        assert len(index) == len(uniform_points)
        assert index.feature_map.in_dim == index.feature_map.out_dim == 4

    def test_feature_map_dim_checked(self, uniform_points):
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0)
        fmap = product_map(4, [(0,), (1, 2), (3,)])  # out_dim 3 != model dim 2
        with pytest.raises(DimensionMismatchError):
            FunctionIndex(uniform_points, model, feature_map=fmap)

    def test_points_dim_checked(self, uniform_points):
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0)
        fmap = product_map(3, [(0,), (1, 2)])
        with pytest.raises(DimensionMismatchError):
            FunctionIndex(uniform_points, model, feature_map=fmap)

    def test_repr_mentions_sizes(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=5, rng=0)
        assert "n=2000" in repr(index)


class TestQueries:
    def test_query_with_product_phi(self, rng):
        """The Example 1 pipeline: phi = (active, voltage * current)."""
        points = rng.uniform(1, 10, size=(500, 4))
        fmap = product_map(4, [(0,), (2, 3)])
        model = QueryModel(
            [ParameterDomain(values=[1.0]), ParameterDomain(low=-1.0, high=-0.1)]
        )
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=10, rng=0)
        threshold = 0.4
        answer = index.query(np.array([1.0, -threshold]), 0.0)
        expected = points[:, 0] - threshold * points[:, 2] * points[:, 3] <= 0
        assert np.array_equal(answer.ids, np.nonzero(expected)[0])

    def test_wrong_query_dim(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, rng=0)
        with pytest.raises(DimensionMismatchError):
            index.query(np.array([1.0, 1.0]), 5.0)

    def test_fallback_for_octant_mismatch(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, rng=0)
        # Negative parameters against all-positive domains: not plannable.
        answer = index.query(np.array([-1.0, -1.0, -1.0, -1.0]), 100.0)
        assert answer.used_fallback
        query = ScalarProductQuery(np.array([-1.0, -1.0, -1.0, -1.0]), 100.0)
        assert np.array_equal(answer.ids, brute_force_ids(uniform_points, query))

    def test_topk_fallback(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, rng=0)
        result = index.topk(np.array([-1.0, -1.0, -1.0, -1.0]), 100.0, 5)
        assert result.n_checked == len(uniform_points)
        assert len(result) <= 5

    def test_topk_happy_path(self, uniform_points, uniform_model, rng):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=20, rng=0)
        normal = uniform_model.sample_normal(rng)
        result = index.topk(normal, 400.0, 10)
        values = uniform_points @ normal
        sat = values[values <= 400.0]
        expected = np.sort(np.abs(sat - 400.0))[:10] / np.linalg.norm(normal)
        assert np.allclose(result.distances, expected)


class TestDynamics:
    def test_update_points(self, rng, uniform_model):
        points = rng.uniform(1, 100, size=(300, 4)).copy()
        index = FunctionIndex(points, uniform_model, n_indices=5, rng=0)
        ids = np.arange(40, dtype=np.int64)
        new_values = rng.uniform(1, 100, size=(40, 4))
        index.update_points(ids, new_values)
        points[:40] = new_values
        normal = uniform_model.sample_normal(rng)
        query = ScalarProductQuery(normal, 500.0)
        assert np.array_equal(index.query(normal, 500.0).ids, brute_force_ids(points, query))
        assert np.allclose(index.get_points(ids), new_values)

    def test_insert_points(self, rng, uniform_model):
        points = rng.uniform(1, 100, size=(200, 4))
        index = FunctionIndex(points, uniform_model, n_indices=5, rng=0)
        extra = rng.uniform(1, 100, size=(50, 4))
        new_ids = index.insert_points(extra)
        assert np.array_equal(new_ids, np.arange(200, 250))
        assert len(index) == 250
        full = np.vstack([points, extra])
        normal = uniform_model.sample_normal(rng)
        query = ScalarProductQuery(normal, 600.0)
        assert np.array_equal(index.query(normal, 600.0).ids, brute_force_ids(full, query))

    def test_insert_beyond_observed_range_stays_exact(self, rng):
        """Inserting points more extreme than anything seen at build time
        must grow the translation, not corrupt answers."""
        points = rng.normal(0, 1, size=(200, 3))
        model = QueryModel.uniform(dim=3, low=1.0, high=2.0)
        index = FunctionIndex(points, model, n_indices=5, rng=0)
        extreme = np.array([[-500.0, -500.0, -500.0], [500.0, 500.0, 500.0]])
        index.insert_points(extreme)
        full = np.vstack([points, extreme])
        query = ScalarProductQuery(np.array([1.5, 1.0, 2.0]), 0.5)
        assert np.array_equal(index.query(query.normal, 0.5).ids, brute_force_ids(full, query))

    def test_delete_points(self, rng, uniform_model):
        points = rng.uniform(1, 100, size=(200, 4))
        index = FunctionIndex(points, uniform_model, n_indices=5, rng=0)
        index.delete_points(np.arange(50, dtype=np.int64))
        assert len(index) == 150
        normal = uniform_model.sample_normal(rng)
        query = ScalarProductQuery(normal, 500.0)
        expected = brute_force_ids(points[50:], query, np.arange(50, 200))
        assert np.array_equal(index.query(normal, 500.0).ids, expected)

    def test_add_index(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=2, rng=0)
        before = index.n_indices
        assert index.add_index(np.array([1.01, 2.02, 3.03, 4.04]))
        assert index.n_indices == before + 1

    def test_memory_accounts_for_everything(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=3, rng=0)
        # One store (the points are the features) + 3 key arrays.
        assert index.memory_bytes() == (
            index._features.memory_bytes() + index.collection.memory_bytes()
        )
        assert index.memory_bytes() > uniform_points.nbytes + 3 * len(uniform_points) * 8

    def test_live_ids_and_getters(self, uniform_points, uniform_model):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=2, rng=0)
        ids = index.live_ids()
        assert np.array_equal(ids, np.arange(len(uniform_points)))
        assert np.allclose(index.get_features(ids[:3]), uniform_points[:3])


class TestOneStore:
    """Under the identity map the raw points are the feature store."""

    def test_identity_index_holds_one_store(self, rng, uniform_model):
        points = rng.uniform(1, 100, size=(200, 4))
        index = FunctionIndex(points, uniform_model, n_indices=4, rng=0)
        assert index._points is index._features
        rows = churn(index, points, rng)
        ids = np.array(sorted(rows), dtype=np.int64)
        written = np.array([rows[point_id] for point_id in ids.tolist()])
        assert np.array_equal(index.live_ids(), ids)
        assert np.array_equal(index.get_points(ids), written)
        assert np.array_equal(index.get_features(ids), written)
        assert index.memory_bytes() == (
            index._features.memory_bytes() + index.collection.memory_bytes()
        )
        normal = uniform_model.sample_normal(rng)
        query = ScalarProductQuery(normal, 500.0)
        assert np.array_equal(
            index.query(normal, 500.0).ids, brute_force_ids(written, query, ids)
        )

    def test_product_map_keeps_its_raw_store(self, rng):
        points = rng.uniform(1, 100, size=(200, 4))
        fmap = product_map(4, [(0,), (1, 2), (3,)])
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0)
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=4, rng=0)
        assert index._points is not index._features
        rows = churn(index, points, rng)
        ids = np.array(sorted(rows), dtype=np.int64)
        written = np.array([rows[point_id] for point_id in ids.tolist()])
        assert np.array_equal(index.get_points(ids), written)
        assert np.array_equal(index.get_features(ids), fmap(written))
        assert index.memory_bytes() == (
            index._points.memory_bytes()
            + index._features.memory_bytes()
            + index.collection.memory_bytes()
        )
