"""Property tests: sharded and monolithic execution are interchangeable.

Hypothesis drives dataset size, dimensionality, shard count, and query
geometry; every example asserts *bit-identical* ids and distances
between :class:`~repro.parallel.engine.ShardedFunctionIndex` and
:class:`~repro.core.function_index.FunctionIndex` for inequality, range,
and top-k queries.  Integer-valued float64 inputs make every scalar
product exact, so "identical" really means identical — including
tie-breaks by id.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ShardedFunctionIndex


@st.composite
def sharded_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=150))
    n_shards = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_indices = draw(st.integers(min_value=1, max_value=4))
    offset_scale = draw(st.floats(min_value=0.0, max_value=1.5))
    k = draw(st.integers(min_value=1, max_value=12))
    return dim, n, n_shards, seed, n_indices, offset_scale, k


def _build(case):
    dim, n, n_shards, seed, n_indices, offset_scale, k = case
    rng = np.random.default_rng(seed)
    # Integer-valued points and query parameters: scalar products are
    # exact in float64, ties happen often, and both paths must break them
    # the same way.
    points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    mono = FunctionIndex(points, model, n_indices=n_indices, rng=seed)
    sharded = ShardedFunctionIndex(
        points,
        model,
        n_indices=n_indices,
        rng=seed,
        n_shards=n_shards,
    )
    normal = np.asarray(rng.integers(1, 6, size=dim), dtype=np.float64)
    offset = float(np.round(offset_scale * normal @ points.max(axis=0)))
    return mono, sharded, normal, offset, k


class TestShardedEqualsMonolithic:
    @settings(max_examples=60, deadline=None)
    @given(case=sharded_cases())
    def test_inequality_bit_identical(self, case):
        mono, sharded, normal, offset, _ = _build(case)
        with sharded:
            expected = mono.query(normal, offset)
            got = sharded.query(normal, offset)
            assert np.array_equal(expected.ids, got.ids)

    @settings(max_examples=40, deadline=None)
    @given(case=sharded_cases())
    def test_range_bit_identical(self, case):
        mono, sharded, normal, offset, _ = _build(case)
        low = np.floor(0.5 * offset)
        with sharded:
            expected = mono.query_range(normal, low, offset)
            got = sharded.query_range(normal, low, offset)
            assert np.array_equal(expected.ids, got.ids)

    @settings(max_examples=60, deadline=None)
    @given(case=sharded_cases())
    def test_topk_bit_identical(self, case):
        mono, sharded, normal, offset, k = _build(case)
        with sharded:
            expected = mono.topk(normal, offset, k)
            got = sharded.topk(normal, offset, k)
            assert np.array_equal(expected.ids, got.ids)
            # Exact integer arithmetic: distances must match to the bit.
            assert np.array_equal(expected.distances, got.distances)
