"""Tests for best-index selection (Section 5.1) through the collection's router."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FeatureStore, FunctionIndex, QueryModel, ScalarProductQuery, SelectionStrategy
from repro.core.collection import PlanarIndexCollection
from repro.core.selection import key_sketch, scores
from repro.exceptions import IndexBuildError
from repro.geometry import Translator

NORMALS = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 5.0], [5.0, 1.0, 1.0]])


@pytest.fixture
def features(rng):
    return rng.uniform(1, 100, size=(200, 3))


def build(features, strategy, normals=NORMALS, rng=None) -> PlanarIndexCollection:
    translator = Translator(np.ones(normals.shape[1]))
    translator.observe(features)
    return PlanarIndexCollection(FeatureStore(features), translator, normals, strategy, rng)


def pick(collection: PlanarIndexCollection, normal, offset: float = 10.0) -> int:
    """Position of the index the collection selects for ``<normal, x> <= offset``."""
    query = ScalarProductQuery(np.asarray(normal, dtype=np.float64), offset)
    return collection.plan(collection.working_query(query)).position


class TestCounted:
    def test_parallel_index_selected(self, features):
        """Corollary 1: the parallel index's intermediate interval is empty."""
        collection = build(features, "counted")
        for pos, normal in enumerate(NORMALS):
            assert pick(collection, normal, 150.0) == pos

    def test_scaled_parallel_also_wins(self, features):
        assert pick(build(features, "counted"), [2.0, 4.0, 10.0], 300.0) == 1


class TestMinStretch:
    def test_parallel_index_selected(self, features):
        """Corollary 1: a parallel index has zero stretch and must win."""
        assert pick(build(features, "min_stretch"), [1.0, 2.0, 5.0]) == 1

    def test_scaled_parallel_also_wins(self, features):
        assert pick(build(features, "min_stretch"), [2.0, 4.0, 10.0]) == 1

    def test_empty_collection_raises(self, features):
        with pytest.raises(IndexBuildError):
            build(features, "min_stretch", normals=np.empty((0, 3)))


class TestMinAngle:
    def test_parallel_index_selected(self, features):
        assert pick(build(features, "min_angle"), [5.0, 1.0, 1.0]) == 2

    def test_agrees_with_stretch_on_parallel(self, features):
        by_angle = build(features, "min_angle")
        by_stretch = build(features, "min_stretch")
        for pos, normal in enumerate(NORMALS):
            assert pick(by_angle, normal, 25.0) == pos
            assert pick(by_stretch, normal, 25.0) == pos


class TestRandom:
    def test_in_range_and_reproducible(self, features):
        picks_a = [pick(build(features, "random", rng=7), [1.0, 1.0, 1.0]) for _ in range(5)]
        seeded = build(features, "random", rng=7)
        picks_b = [pick(seeded, [1.0, 1.0, 1.0]) for _ in range(5)]
        draws = np.random.default_rng(7)
        assert picks_b == [int(draws.integers(0, 3)) for _ in range(5)]
        assert picks_a == picks_b[:1] * 5
        assert all(0 <= p < 3 for p in picks_b)


class TestStrategyNames:
    def test_strategy_round_trip(self, features):
        stretch = build(features, SelectionStrategy.MIN_STRETCH)
        assert stretch.strategy is SelectionStrategy.MIN_STRETCH
        assert pick(stretch, [1.0, 2.0, 5.0]) == 1
        angle = build(features, "min_angle")
        assert angle.strategy is SelectionStrategy.MIN_ANGLE
        assert pick(angle, [1.0, 2.0, 5.0]) == 1
        assert 0 <= pick(build(features, "random", rng=0), [1.0, 2.0, 5.0]) < 3

    def test_unknown_strategy(self, features):
        with pytest.raises(ValueError):
            build(features, "best_guess")


class TestStretchValues:
    def test_stretch_decreases_with_alignment(self, rng):
        """An index closer to parallel yields a smaller max stretch."""
        features = rng.uniform(1, 100, size=(50, 3))
        collection = build(features, "min_stretch", np.array([[1.0, 2.0, 4.5], [5.0, 1.0, 1.0]]))
        aligned, skewed = collection.explain(
            ScalarProductQuery(np.array([1.0, 2.0, 5.0]), 10.0)
        ).candidates
        assert aligned.stretch < skewed.stretch
        assert aligned.chosen


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_scores_match_per_index_reference(seed, dim):
    """The vectorized scores over the selection cache equal, index by index,
    Eq. 15, |cos| and a loop counting the index's own sketch keys between its
    thresholds — on real-valued data after an insert and a delete — and the
    planner's choice under each of the four strategies is the reference's."""
    rng = np.random.default_rng(seed)
    model = QueryModel.uniform(dim=dim, low=0.5, high=4.0, rq=4)
    index = FunctionIndex(rng.uniform(-50.0, 50.0, size=(300, dim)), model, n_indices=8, rng=seed)
    index.insert_points(rng.uniform(-80.0, 60.0, size=(40, dim)))
    index.delete_points(rng.choice(index.live_ids(), size=30, replace=False))
    collection = index.collection
    cache = collection._cache
    delta = [float(v) for v in index.translator.delta]
    live = index.get_features(index.live_ids())
    others = {
        strategy: PlanarIndexCollection(
            index._features, index.translator, collection.normals, strategy, seed
        )
        for strategy in ("min_stretch", "min_angle", "random")
    }
    for normal in model.sample_normals(6, rng):
        offset = float(live[rng.integers(0, live.shape[0])] @ normal) + rng.normal()
        wq = collection.working_query(ScalarProductQuery(normal, offset))
        counts, stretch, cosines = scores(cache.columns, cache.offsets, cache.sketch, wq)
        a = [float(v) for v in wq.normal_w]
        reference = []
        for position, planar in enumerate(collection):
            c = [float(v) for v in planar.working_normal]
            t = [(c[k] / a[k]) * wq.offset_w for k in range(dim)]
            eq15 = max((max(t) - min(t)) / c[k] for k in range(dim))
            cos = abs(sum(x * y for x, y in zip(a, c))) / (
                math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in c))
            )
            key_offset = c[0] * delta[0]
            for k in range(1, dim):
                key_offset = key_offset + c[k] * delta[k]
            lo, hi = min(t) - key_offset, max(t) - key_offset
            count = 0
            for key in key_sketch(planar.sorted_keys):
                if lo < key <= hi:
                    count += 1
            assert counts[position] == count
            assert stretch[position] == pytest.approx(eq15, rel=1e-12, abs=1e-300)
            assert cosines[position] == pytest.approx(cos, rel=1e-12)
            reference.append((count, eq15, position, cos))
        assert collection.plan(wq).position == min(reference)[2]
        assert others["min_stretch"].plan(wq).position == min(reference, key=lambda r: r[1:3])[2]
        by_angle = others["min_angle"].plan(wq).position
        assert reference[by_angle][3] == pytest.approx(max(r[3] for r in reference), rel=1e-12)
        draw = int(copy.deepcopy(others["random"]._rng).integers(0, len(collection)))
        assert others["random"].plan(wq).position == draw
