"""Tests for PlanarIndexCollection (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FeatureStore,
    PlanarIndexCollection,
    QueryModel,
    ScalarProductQuery,
)
from repro.core.collection import dedupe_parallel_normals
from repro.exceptions import IndexBuildError
from repro.geometry import Translator

from ..conftest import brute_force_ids


def make_collection(rng, n=500, dim=3, budget=10, **kwargs):
    features = rng.uniform(1, 100, size=(n, dim))
    store = FeatureStore(features)
    translator = Translator(np.ones(dim))
    translator.observe(features)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    collection = PlanarIndexCollection.from_model(
        store, translator, model, budget, rng=rng, **kwargs
    )
    return collection, features, model


class TestDedupeParallelNormals:
    def test_exact_duplicates_removed(self):
        normals = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(dedupe_parallel_normals(normals), [0, 2])

    def test_scaled_duplicates_removed(self):
        normals = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 1.0]])
        assert np.array_equal(dedupe_parallel_normals(normals), [0, 2])

    def test_all_distinct_kept(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(dedupe_parallel_normals(normals), [0, 1, 2])


class TestConstruction:
    def test_from_model_respects_budget(self, rng):
        collection, _, _ = make_collection(rng, budget=10)
        assert 1 <= len(collection) <= 10

    def test_discrete_domains_drop_duplicates(self, rng):
        """With RQ=2 in 2-D there are only 4 possible normals; a budget of 50
        must collapse to at most 4 non-parallel ones (often fewer)."""
        features = rng.uniform(1, 100, size=(100, 2))
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        translator.observe(features)
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0, rq=2)
        collection = PlanarIndexCollection.from_model(store, translator, model, 50, rng=rng)
        assert len(collection) <= 4

    def test_zero_budget_rejected(self, rng):
        features = rng.uniform(1, 2, size=(10, 2))
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        translator.observe(features)
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0)
        with pytest.raises(IndexBuildError):
            PlanarIndexCollection.from_model(store, translator, model, 0)

    def test_empty_normals_rejected(self, rng):
        features = rng.uniform(1, 2, size=(10, 2))
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        with pytest.raises(IndexBuildError):
            PlanarIndexCollection(store, translator, np.empty((0, 2)))

    def test_wrong_dimension_normals_rejected(self, rng):
        features = rng.uniform(1, 2, size=(10, 3))
        store = FeatureStore(features)
        translator = Translator(np.ones(3))
        translator.observe(features)
        with pytest.raises(IndexBuildError, match="got shape"):
            PlanarIndexCollection(store, translator, np.ones((1, 2)))
        collection = PlanarIndexCollection(store, translator, np.ones((1, 3)))
        with pytest.raises(IndexBuildError, match="features have dimension 3"):
            collection.add_index(np.ones(2))
        assert len(collection) == 1

    def test_iteration_and_getitem(self, rng):
        collection, _, _ = make_collection(rng, budget=5)
        assert len(list(collection)) == len(collection)
        assert collection[0] is list(collection)[0]


class TestQueryRouting:
    def test_query_matches_bruteforce(self, rng):
        collection, features, model = make_collection(rng, budget=20)
        for _ in range(10):
            normal = model.sample_normal(rng)
            offset = float(rng.uniform(100, 900))
            query = ScalarProductQuery(normal, offset)
            result = collection.query(query)
            assert np.array_equal(result.ids, brute_force_ids(features, query))

    def test_select_returns_member(self, rng):
        collection, _, model = make_collection(rng, budget=5)
        query = ScalarProductQuery(model.sample_normal(rng), 300.0)
        assert collection.plan(collection.working_query(query)).index in list(collection)

    def test_exact_normal_match_gives_best_pruning(self, rng):
        """Querying with a normal equal to an index normal gives a
        near-empty intermediate interval."""
        collection, _, _ = make_collection(rng, budget=10)
        normal = collection[3].normal
        query = ScalarProductQuery(normal, 400.0)
        result = collection.query(query)
        assert result.stats.ii_size <= 1

    def test_topk_matches_single_index_semantics(self, rng):
        collection, features, model = make_collection(rng, budget=10)
        query = ScalarProductQuery(model.sample_normal(rng), 500.0)
        result = collection.topk(query, 10)
        values = features @ query.normal
        mask = values <= query.offset
        dists = np.sort(np.abs(values[mask] - query.offset))[:10] / np.linalg.norm(
            query.normal
        )
        assert np.allclose(np.sort(result.distances), dists)

    def test_memory_accumulates(self, rng):
        small, _, _ = make_collection(rng, budget=2)
        big, _, _ = make_collection(np.random.default_rng(1), budget=40)
        if len(big) > len(small):
            assert big.memory_bytes() > small.memory_bytes()


class TestMaintenance:
    def test_add_index(self, rng):
        collection, _, _ = make_collection(rng, budget=3)
        before = len(collection)
        added = collection.add_index(np.array([1.13, 2.77, 3.91]))
        assert added and len(collection) == before + 1

    def test_add_parallel_index_skipped(self, rng):
        collection, _, _ = make_collection(rng, budget=3)
        existing = collection[0].normal
        assert collection.add_index(existing * 2.0) is False

    def test_drop_index(self, rng):
        collection, _, _ = make_collection(rng, budget=5)
        if len(collection) > 1:
            before = len(collection)
            collection.drop_index(0)
            assert len(collection) == before - 1

    def test_drop_last_index_rejected(self, rng):
        features = rng.uniform(1, 2, size=(10, 2))
        store = FeatureStore(features)
        translator = Translator(np.ones(2))
        translator.observe(features)
        collection = PlanarIndexCollection(store, translator, np.array([[1.0, 2.0]]))
        with pytest.raises(IndexBuildError):
            collection.drop_index(0)

    def test_rekey_propagates_to_all_indices(self, rng):
        collection, features, model = make_collection(rng, budget=5)
        store = collection._store
        new_rows = rng.uniform(1, 100, size=(50, 3))
        ids = np.arange(50, dtype=np.int64)
        store.update(ids, new_rows)
        collection.rekey(ids)
        features = features.copy()
        features[:50] = new_rows
        query = ScalarProductQuery(model.sample_normal(rng), 400.0)
        wq = collection.working_query(query)
        for index in collection:
            r_lo, r_hi, _ = index.interval_ranks(wq)
            assert np.array_equal(
                index.finish_query(wq, r_lo, r_hi).ids, brute_force_ids(features, query)
            )


def _tiny_collection(rng, normals):
    features = rng.uniform(1, 100, size=(50, 2))
    store = FeatureStore(features)
    translator = Translator(np.ones(2))
    translator.observe(features)
    return PlanarIndexCollection(store, translator, np.asarray(normals), rng=0)


class TestZeroNormalRejection:
    """A zero normal can never index anything; it must fail loudly up
    front, not deep inside ``PlanarIndex`` with an octant-sign error."""

    def test_dedupe_rejects_zero_rows(self):
        normals = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]])
        with pytest.raises(IndexBuildError, match="nonzero"):
            dedupe_parallel_normals(normals)

    def test_dedupe_error_names_the_offending_rows(self):
        normals = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0], [0.0, 0.0]])
        with pytest.raises(IndexBuildError, match=r"\[1, 3\]"):
            dedupe_parallel_normals(normals)

    def test_constructor_rejects_zero_normal(self, rng):
        with pytest.raises(IndexBuildError, match="nonzero"):
            _tiny_collection(rng, [[1.0, 2.0], [0.0, 0.0]])

    def test_add_index_rejects_zero_normal(self, rng):
        collection = _tiny_collection(rng, [[1.0, 2.0]])
        with pytest.raises(IndexBuildError, match="nonzero"):
            collection.add_index(np.zeros(2))


class TestRedundancyRuleConsistency:
    """``add_index`` and ``dedupe_parallel_normals`` must apply the *same*
    parallel test (``|cos| >= cos(tol)`` on cosines).  The old
    ``angle_between(...) <= tol`` formulation round-tripped through
    ``arccos``, whose resolution collapses near angle 0, so
    near-threshold normals were classified differently at construction
    and at ``add_index`` time."""

    @staticmethod
    def _rotated(angle):
        base_angle = np.pi / 4.0
        base = np.array([np.cos(base_angle), np.sin(base_angle)])
        turned = np.array(
            [np.cos(base_angle + angle), np.sin(base_angle + angle)]
        )
        return base, turned

    @pytest.mark.parametrize(
        "angle_factor, expect_kept",
        [
            (0.25, False),  # well inside the parallel cone
            (0.5, False),  # inside
            (2.0, True),  # outside
            (8.0, True),  # well outside
        ],
    )
    def test_both_paths_agree_near_the_boundary(
        self, rng, angle_factor, expect_kept
    ):
        from repro.core.collection import _PARALLEL_TOL

        base, turned = self._rotated(angle_factor * _PARALLEL_TOL)
        kept_by_dedupe = (
            dedupe_parallel_normals(np.vstack([base, turned])).size == 2
        )
        collection = _tiny_collection(rng, [base])
        added = collection.add_index(turned)
        assert kept_by_dedupe == added == expect_kept

    def test_scale_invariance_at_the_boundary(self, rng):
        """The rule compares unit normals, so scaling must not flip the
        verdict on either path."""
        from repro.core.collection import _PARALLEL_TOL

        base, turned = self._rotated(0.5 * _PARALLEL_TOL)
        scaled = 1_000.0 * turned
        assert dedupe_parallel_normals(np.vstack([base, scaled])).size == 1
        collection = _tiny_collection(rng, [base])
        assert collection.add_index(scaled) is False
