"""Sharded ``topk_batch`` identity: batch ≡ loop ≡ monolithic.

The serving layer leans on ``ShardedFunctionIndex.topk_batch`` for every
coalesced /topk window, so its bit-identity guarantees are pinned here
at the engine level: the sharded batch call must return exactly the ids,
distances, and tie-breaks of (a) a loop of sharded single ``topk`` calls
and (b) the monolithic ``FunctionIndex.topk_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel
from repro.exceptions import InvalidQueryError
from repro.parallel.engine import ShardedFunctionIndex


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    points = rng.integers(1, 30, size=(600, 4)).astype(np.float64)
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    normals = rng.integers(1, 6, size=(9, 4)).astype(np.float64)
    column_max = points.max(axis=0)
    offsets = np.asarray(
        [float(np.round(0.4 * normal @ column_max)) for normal in normals]
    )
    return points, model, normals, offsets


@pytest.fixture(scope="module")
def sharded(dataset, n_shards):
    points, model, _, _ = dataset
    engine = ShardedFunctionIndex(
        points, model, n_indices=8, rng=42, n_shards=n_shards
    )
    yield engine
    engine.close()


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
@pytest.mark.parametrize("k", [1, 5, 12])
def test_batch_equals_loop_of_singles(dataset, sharded, k, op):
    _, _, normals, offsets = dataset
    batch = sharded.topk_batch(normals, offsets, k, op)
    assert len(batch) == normals.shape[0]
    for row, answer in enumerate(batch):
        single = sharded.topk(normals[row], float(offsets[row]), k=k, op=op)
        assert np.array_equal(answer.ids, single.ids)
        assert np.array_equal(answer.distances, single.distances)


def test_batch_equals_monolithic(dataset, sharded):
    points, model, normals, offsets = dataset
    mono = FunctionIndex(points, model, n_indices=8, rng=42)
    sharded_batch = sharded.topk_batch(normals, offsets, 7)
    mono_batch = mono.topk_batch(normals, offsets, 7)
    for ours, theirs in zip(sharded_batch, mono_batch):
        assert np.array_equal(ours.ids, theirs.ids)
        assert np.array_equal(ours.distances, theirs.distances)


def test_validation_and_degenerate_batch(dataset, sharded):
    _, _, normals, offsets = dataset
    with pytest.raises(InvalidQueryError, match="k must be positive"):
        sharded.topk_batch(normals, offsets, 0)
    assert sharded.topk_batch(normals[:0], offsets[:0], 3) == []
