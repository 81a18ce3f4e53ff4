"""The facade's per-snapshot wave constants are never read stale.

Whether the shards' normals agree and counted selection's pooled
sketches depend on the shards' selection snapshots alone, so a
:class:`~repro.core.function_index.FunctionIndex` derives them once per
generation of snapshots (:meth:`~repro.core.function_index.FunctionIndex._choose`).
Each test lets an engine derive them, rebinds some shard's snapshot, and
checks that the next wave derives them again: its choices and answers
equal those of an engine that went through the same steps without ever
querying, so it holds no constants from before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QueryModel, ShardedFunctionIndex
from repro.core.query import ScalarProductQuery

SHARDS = [2, 3]


def _engines(points, model, n_shards):
    """A warmed engine (it has run a wave) and an identical unqueried one."""
    warmed, fresh = (
        ShardedFunctionIndex(points, model, n_indices=6, rng=0, n_shards=n_shards)
        for _ in range(2)
    )
    _queries(model, 2, warmed)
    return warmed, fresh


def _queries(model, count, engine=None, seed=3):
    rng = np.random.default_rng(seed)
    queries = [(model.sample_normal(rng), float(rng.uniform(50.0, 900.0))) for _ in range(count)]
    if engine is not None:
        for normal, offset in queries:
            engine.query(normal, offset)
    return queries


def _choices(engine, normal, offset):
    wq = engine._working(ScalarProductQuery(normal, offset))
    return [
        (choice.position, choice.th.lo.tobytes(), choice.th.hi.tobytes(), choice.probes)
        for (choice,) in engine._choose([wq])
    ]


def _assert_constants_current(engine):
    """The constants held are those of the snapshots the shards hold now."""
    caches = [collection.snapshot for collection in engine.collections]
    held, shared, pooled = engine._wave
    assert len(held) == len(caches) and all(a is b for a, b in zip(held, caches))
    fresh = engine.collections[0].pooled_sketches(caches) if shared else None
    if fresh is None:
        assert pooled is None
    else:
        assert all(np.array_equal(a, b) for a, b in zip(pooled, fresh))


def _assert_same_waves(warmed, fresh, model):
    for normal, offset in _queries(model, 12, seed=11):
        assert _choices(warmed, normal, offset) == _choices(fresh, normal, offset)
        _assert_constants_current(warmed)
        one, other = warmed.query(normal, offset), fresh.query(normal, offset)
        assert np.array_equal(one.ids, other.ids) and one.stats == other.stats
        one, other = warmed.topk(normal, offset, 7), fresh.topk(normal, offset, 7)
        assert np.array_equal(one.ids, other.ids)
        assert np.array_equal(one.distances, other.distances)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_one_shard_merging_rebuilds_the_constants(uniform_points, uniform_model, n_shards):
    warmed, fresh = _engines(uniform_points, uniform_model, n_shards)
    rng = np.random.default_rng(5)
    rows = rng.uniform(1.0, 100.0, size=(60, 4))
    for engine in (warmed, fresh):
        engine.insert_points(rows)
        engine.collections[0].merge()  # the first shard merges alone
    assert warmed._wave[0][0] is not warmed.collections[0].snapshot
    _assert_same_waves(warmed, fresh, uniform_model)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_a_write_growing_delta_is_planned_fresh(uniform_points, uniform_model, n_shards):
    warmed, fresh = _engines(uniform_points, uniform_model, n_shards)
    delta = warmed.translator.delta_view.copy()
    # Rows below the data's minimum move the octant's translation.
    rows = np.full((3, 4), -40.0)
    for engine in (warmed, fresh):
        engine.insert_points(rows)
    assert not np.array_equal(warmed.translator.delta_view, delta)
    _assert_same_waves(warmed, fresh, uniform_model)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_a_lifecycle_fan_out_in_flight_is_planned_fresh(uniform_points, uniform_model, n_shards):
    warmed, fresh = _engines(uniform_points, uniform_model, n_shards)
    normal = np.asarray([3.0, 1.0, 4.0, 1.0])
    for engine in (warmed, fresh):
        assert engine.collections[0].add_index(normal)  # reached one shard
    _assert_same_waves(warmed, fresh, uniform_model)
    assert not warmed._wave[1]  # the normals differ: each shard chose alone
    for engine in (warmed, fresh):
        for collection in engine.collections[1:]:
            collection.add_index(normal)
    _assert_same_waves(warmed, fresh, uniform_model)
    assert warmed._wave[1]
    for engine in (warmed, fresh):
        engine.collections[-1].drop_index(0)  # a drop that reached one shard
    _assert_same_waves(warmed, fresh, uniform_model)
    assert not warmed._wave[1]
