"""Regression tests: index-lifecycle metric labels and range-query labels.

Two bugs pinned here:

1. **Label aliasing after ``drop_index`` + ``add_index``.**  Dropping
   index 0 of three left survivors labelled {"1", "2"}; a subsequent
   ``add_index`` labelled the newcomer ``str(len)`` — colliding with a
   survivor, so two distinct indices aliased one
   ``repro_indexed_points`` / ``repro_interval_points_total`` series.
   The collection now relabels after every mutation (label == position)
   and carries the gauge values across the rename.

2. **``query_range`` mislabelled ``strategy="solo"``.**  Collection-routed
   range queries used to call the member index's own entry point,
   recording ``repro_queries_total{strategy="solo"}`` while inequality
   and top-k recorded the real selection strategy.  The collection now
   owns the metrics of every query kind, so no query records ``"solo"``.

Label assertions use a test-unique ``obs_prefix`` so the global metrics
registry (shared across the whole test session) cannot pollute them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FeatureStore,
    FunctionIndex,
    PlanarIndexCollection,
    QueryModel,
    ShardedFunctionIndex,
)
from repro.geometry.translation import Translator
from repro.obs import metrics as obs_metrics


@pytest.fixture
def model() -> QueryModel:
    return QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)


def _collection(model, prefix, n_points=64):
    rng = np.random.default_rng(11)
    features = rng.uniform(1.0, 50.0, size=(n_points, 3))
    store = FeatureStore(features)
    translator = Translator(model.octant())
    translator.observe(features)
    normals = np.asarray(
        [[1.0, 2.0, 3.0], [3.0, 1.0, 1.0], [1.0, 5.0, 2.0]], dtype=np.float64
    )
    return PlanarIndexCollection(
        store, translator, normals, rng=0, obs_prefix=prefix
    )


def _labels(collection):
    return [index.obs_label for index in collection]


def _series_for_prefix(gauge, prefix):
    return {
        key[0]: value
        for key, value in gauge.series().items()
        if key[0].startswith(prefix)
    }


class TestLifecycleLabels:
    def test_labels_track_positions_through_drop(self, model, obs_enabled):
        prefix = "lifecycle_a:"
        collection = _collection(model, prefix)
        assert _labels(collection) == [f"{prefix}{i}" for i in range(3)]
        collection.drop_index(0)
        # Survivors are relabelled to their new positions, not left at
        # their construction-time labels {"1", "2"}.
        assert _labels(collection) == [f"{prefix}0", f"{prefix}1"]

    def test_add_after_drop_does_not_alias(self, model, obs_enabled):
        prefix = "lifecycle_b:"
        collection = _collection(model, prefix)
        collection.drop_index(0)
        assert collection.add_index(np.asarray([2.0, 2.0, 7.0]))
        labels = _labels(collection)
        # The regression: the newcomer used to be labelled str(len) == "2"
        # while a survivor already held "2" — two indices, one series.
        assert labels == [f"{prefix}0", f"{prefix}1", f"{prefix}2"]
        assert len(set(labels)) == len(labels)

    def test_indexed_points_gauge_carried_and_pruned(self, model, obs_enabled):
        prefix = "lifecycle_c:"
        n_points = 64
        collection = _collection(model, prefix, n_points=n_points)
        gauge = obs_metrics.indexed_points()
        assert _series_for_prefix(gauge, prefix) == {
            f"{prefix}{i}": float(n_points) for i in range(3)
        }
        collection.drop_index(1)
        # The dropped series is removed and the survivor that moved from
        # position 2 to 1 carries its gauge value under the new label.
        assert _series_for_prefix(gauge, prefix) == {
            f"{prefix}0": float(n_points),
            f"{prefix}1": float(n_points),
        }
        collection.add_index(np.asarray([2.0, 2.0, 7.0]))
        assert _series_for_prefix(gauge, prefix) == {
            f"{prefix}{i}": float(n_points) for i in range(3)
        }


class TestRangeStrategyLabel:
    def test_collection_routed_range_uses_real_strategy(
        self, uniform_points, uniform_model, obs_enabled
    ):
        index = FunctionIndex(uniform_points, uniform_model, n_indices=4, rng=0)
        counter = obs_metrics.queries_total()
        strategy = index.collection.strategy.value
        strategy_before = counter.value(
            kind="range", route="intervals", strategy=strategy
        )
        solo_before = counter.value(kind="range", route="intervals", strategy="solo")
        normal = uniform_model.sample_normal(0)
        index.query_range(normal, 100.0, 600.0)
        assert (
            counter.value(kind="range", route="intervals", strategy=strategy)
            == strategy_before + 1
        )
        # The regression: this used to be the series that incremented.
        assert (
            counter.value(kind="range", route="intervals", strategy="solo")
            == solo_before
        )

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_no_query_kind_records_solo(
        self, uniform_points, uniform_model, obs_enabled, n_shards
    ):
        """Every query kind counts under the collection's strategy label."""
        if n_shards == 1:
            engine = FunctionIndex(uniform_points, uniform_model, n_indices=4, rng=0)
        else:
            engine = ShardedFunctionIndex(
                uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
            )
        counter = obs_metrics.queries_total()
        strategy = "counted"
        counted_before = sum(
            value for labels, value in counter.series().items() if labels[2] == strategy
        )
        normal = uniform_model.sample_normal(0)
        normals = np.vstack([normal, uniform_model.sample_normal(1)])
        offsets = np.array([300.0, 500.0])
        engine.query(normal, 300.0)
        engine.query(normal, 300.0, ">=")
        engine.topk(normal, 300.0, 5)
        engine.query_range(normal, 100.0, 600.0)
        engine.query_batch(normals, offsets)
        engine.topk_batch(normals, offsets, 5)
        if n_shards == 1:
            engine.explain_report(normal, 300.0)
        else:
            engine.close()
        counted = sum(
            value for labels, value in counter.series().items() if labels[2] == strategy
        )
        # Eight queries, each counted by every shard collection that ran it
        # (an injected shard fault skips that shard's count).
        assert counted - counted_before >= 8
        assert not [labels for labels in counter.series() if "solo" in labels]
