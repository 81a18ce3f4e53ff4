"""Tests for BETWEEN (range) queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel
from repro.exceptions import InvalidQueryError

from ..conftest import fraction_values


@pytest.fixture
def setup(rng):
    points = rng.uniform(1, 100, size=(4000, 4))
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    index = FunctionIndex(points, model, n_indices=30, rng=0)
    return points, model, index


def oracle(points, normal, low, high):
    values = fraction_values(points, normal)
    return np.array(
        [row for row, value in enumerate(values) if low <= value <= high], dtype=np.int64
    )


class TestQueryRange:
    def test_matches_oracle(self, setup, rng):
        points, model, index = setup
        for _ in range(10):
            normal = model.sample_normal(rng)
            low = float(rng.uniform(100, 500))
            high = low + float(rng.uniform(0, 400))
            answer = index.query_range(normal, low, high)
            assert np.array_equal(answer.ids, oracle(points, normal, low, high))
            assert not answer.used_fallback

    def test_equals_conjunction_of_bounds(self, setup, rng):
        points, model, index = setup
        normal = model.sample_normal(rng)
        ranged = index.query_range(normal, 300.0, 600.0)
        conj = index.query_conjunction([(normal, 300.0, ">="), (normal, 600.0, "<=")])
        assert np.array_equal(ranged.ids, conj.ids)

    def test_degenerate_range(self, setup, rng):
        points, model, _ = setup
        # Integer row 0 and normal: <normal, row 0> is exact in float64, so
        # the degenerate range at that value holds row 0.
        points = points.copy()
        points[0] = np.round(points[0])
        normal = np.round(model.sample_normal(rng))
        index = FunctionIndex(points, model, n_indices=30, rng=0)
        value = float(points[0] @ normal)
        answer = index.query_range(normal, value, value)
        expected = oracle(points, normal, value, value)
        assert np.array_equal(answer.ids, expected)
        assert 0 in set(answer.ids.tolist())

    def test_empty_range_rejected(self, setup, rng):
        _, model, index = setup
        with pytest.raises(InvalidQueryError):
            index.query_range(model.sample_normal(rng), 10.0, 5.0)

    def test_prunes_with_matched_index(self, setup):
        points, _, index = setup
        normal = index.collection[0].normal
        answer = index.query_range(normal, 300.0, 500.0)
        assert answer.stats.n_verified <= 2  # only the guard bands

    def test_negated_normal_served_by_canonical_form(self, setup):
        """A fully negated normal canonicalizes into the indexed octant:
        no fallback needed, answer exact."""
        points, _, index = setup
        normal = np.array([-1.0, -1.0, -1.0, -1.0])
        answer = index.query_range(normal, -500.0, -100.0)
        assert not answer.used_fallback
        assert np.array_equal(answer.ids, oracle(points, normal, -500.0, -100.0))

    def test_fallback_for_mixed_sign_normal(self, setup):
        """Mixed signs fit neither the octant nor its mirror: scan."""
        points, _, index = setup
        normal = np.array([1.0, -1.0, 1.0, 1.0])
        answer = index.query_range(normal, -100.0, 100.0)
        assert answer.used_fallback
        assert np.array_equal(answer.ids, oracle(points, normal, -100.0, 100.0))

    def test_whole_domain_range(self, setup, rng):
        points, model, index = setup
        normal = model.sample_normal(rng)
        answer = index.query_range(normal, -1e12, 1e12)
        assert len(answer) == len(points)


@given(seed=st.integers(0, 500), width=st.floats(0.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_property_range_exact(seed, width):
    rng = np.random.default_rng(seed)
    points = rng.uniform(1, 50, size=(400, 3))
    model = QueryModel.uniform(dim=3, low=1.0, high=4.0)
    index = FunctionIndex(points, model, n_indices=6, rng=seed)
    normal = model.sample_normal(rng)
    low = float(rng.uniform(0, 300))
    answer = index.query_range(normal, low, low + width)
    assert np.array_equal(answer.ids, oracle(points, normal, low, low + width))
