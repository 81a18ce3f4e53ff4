"""Tests for the batched inequality-query API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel, ScalarProductQuery
from repro.exceptions import DimensionMismatchError, InvalidQueryError
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime

from ..conftest import brute_force_ids


@pytest.fixture
def setup(rng):
    points = rng.uniform(1, 100, size=(4000, 4))
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    index = FunctionIndex(points, model, n_indices=30, rng=0)
    return points, model, index


class TestCollectionBatch:
    def test_matches_individual_queries(self, setup, rng):
        points, model, index = setup
        normals = model.sample_normals(15, rng)
        offsets = rng.uniform(100, 900, 15)
        batch = index.query_batch(normals, offsets)
        assert len(batch) == 15
        for row, answer in enumerate(batch):
            single = index.query(normals[row], float(offsets[row]))
            assert np.array_equal(answer.ids, single.ids)
            assert answer.stats.n_verified == single.stats.n_verified

    def test_matches_bruteforce(self, setup, rng):
        points, model, index = setup
        normals = model.sample_normals(10, rng)
        offsets = rng.uniform(100, 900, 10)
        for row, answer in enumerate(index.query_batch(normals, offsets)):
            query = ScalarProductQuery(normals[row], float(offsets[row]))
            assert np.array_equal(answer.ids, brute_force_ids(points, query))

    @pytest.mark.parametrize("op", ["<", ">=", ">"])
    def test_other_operators(self, setup, rng, op):
        points, model, index = setup
        normals = model.sample_normals(6, rng)
        offsets = rng.uniform(100, 900, 6)
        for row, answer in enumerate(index.query_batch(normals, offsets, op)):
            query = ScalarProductQuery(normals[row], float(offsets[row]), op)
            assert np.array_equal(answer.ids, brute_force_ids(points, query))

    def test_scan_router_inside_batch(self, rng):
        """Queries whose intermediate interval is huge must route to the
        scan inside the batch path too."""
        points = rng.uniform(1, 100, size=(3000, 2))
        model = QueryModel.uniform(dim=2, low=1.0, high=50.0)
        index = FunctionIndex(points, model, normals=np.array([[1.0, 50.0]]), rng=0)
        normals = np.array([[50.0, 1.0], [1.0, 50.0]])
        offsets = np.array([2000.0, 2000.0])
        hostile, friendly = index.query_batch(normals, offsets)
        assert hostile.stats.n_verified == hostile.stats.n_total  # scanned
        assert friendly.stats.n_verified < friendly.stats.n_total
        for row, answer in enumerate((hostile, friendly)):
            query = ScalarProductQuery(normals[row], float(offsets[row]))
            assert np.array_equal(answer.ids, brute_force_ids(points, query))

    def test_octant_fallback_per_query(self, setup, rng):
        points, model, index = setup
        normals = np.vstack(
            [model.sample_normal(rng), -np.abs(model.sample_normal(rng))]
        )
        offsets = np.array([500.0, 500.0])
        good, fallback = index.query_batch(normals, offsets)
        assert not good.used_fallback
        assert fallback.used_fallback
        query = ScalarProductQuery(normals[1], 500.0)
        assert np.array_equal(fallback.ids, brute_force_ids(points, query))

    def test_shape_validation(self, setup):
        _, _, index = setup
        with pytest.raises(DimensionMismatchError):
            index.query_batch(np.ones((3, 4)), np.ones(2))

    def test_empty_batch(self, setup):
        _, _, index = setup
        empty_normals, empty_offsets = np.empty((0, 4)), np.empty(0)
        traces = obs_metrics.traces_total()
        samples = [(kind, sampled) for kind in ("batch", "batch_topk") for sampled in "01"]
        was_enabled = obs_runtime.ENABLED
        obs_runtime.enable()
        try:
            before = [traces.value(kind=kind, sampled=s) for kind, s in samples]
            assert index.query_batch(empty_normals, empty_offsets) == []
            assert index.topk_batch(empty_normals, empty_offsets, 3) == []
            # Validation runs before the empty-batch short-circuit, as on
            # the sharded engine: k=0 is rejected with nothing to answer.
            with pytest.raises(InvalidQueryError, match="k must be positive"):
                index.topk_batch(empty_normals, empty_offsets, 0)
            # ... and an empty batch opens no trace.
            assert [traces.value(kind=kind, sampled=s) for kind, s in samples] == before
        finally:
            if not was_enabled:
                obs_runtime.disable()
