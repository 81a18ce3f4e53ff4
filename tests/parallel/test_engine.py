"""Integration tests: the sharded engine against the monolithic facade.

The acceptance bar is *bit-identical* results: same ids, same distances,
same tie-breaks as :class:`repro.core.function_index.FunctionIndex` for
inequality, range, and top-k queries, through maintenance and index
lifecycle mutations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel, ScalarProductQuery, ShardedFunctionIndex
from repro.obs import metrics as obs_metrics

from ..conftest import churn


def _pair(points, model, n_shards):
    mono = FunctionIndex(points, model, n_indices=6, rng=0)
    sharded = ShardedFunctionIndex(
        points, model, n_indices=6, rng=0, n_shards=n_shards
    )
    return mono, sharded


def _sample_queries(model, count, seed=42):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        normal = model.sample_normal(rng)
        offset = float(rng.uniform(50.0, 900.0))
        queries.append((normal, offset))
    return queries


class TestBitIdenticalResults:
    def test_inequality(self, uniform_points, uniform_model, n_shards):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        with sharded:
            for normal, offset in _sample_queries(uniform_model, 10):
                expected = mono.query(normal, offset)
                got = sharded.query(normal, offset)
                assert np.array_equal(expected.ids, got.ids)
                assert not got.used_fallback

    def test_range(self, uniform_points, uniform_model, n_shards):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        with sharded:
            for normal, offset in _sample_queries(uniform_model, 10):
                expected = mono.query_range(normal, 0.4 * offset, offset)
                got = sharded.query_range(normal, 0.4 * offset, offset)
                assert np.array_equal(expected.ids, got.ids)

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_topk(self, uniform_points, uniform_model, n_shards, k):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        with sharded:
            for normal, offset in _sample_queries(uniform_model, 8):
                expected = mono.topk(normal, offset, k)
                got = sharded.topk(normal, offset, k)
                assert np.array_equal(expected.ids, got.ids)
                assert np.array_equal(expected.distances, got.distances)
                assert got.n_total == len(sharded)

    def test_batch(self, uniform_points, uniform_model, n_shards):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        queries = _sample_queries(uniform_model, 12)
        normals = np.vstack([normal for normal, _ in queries])
        offsets = np.asarray([offset for _, offset in queries])
        with sharded:
            expected = mono.query_batch(normals, offsets)
            got = sharded.query_batch(normals, offsets)
            assert len(expected) == len(got)
            for one, other in zip(expected, got):
                assert np.array_equal(one.ids, other.ids)


class TestMergedStats:
    def test_stats_partition_the_data(self, uniform_points, uniform_model, n_shards):
        _, sharded = _pair(uniform_points, uniform_model, n_shards)
        with sharded:
            normal, offset = _sample_queries(uniform_model, 1)[0]
            answer = sharded.query(normal, offset)
            stats = answer.stats
            assert stats.n_total == len(sharded)
            assert stats.si_size + stats.ii_size + stats.li_size == stats.n_total
            assert stats.n_results == len(answer)


class TestOctantFallback:
    def test_fallback_matches_monolithic(
        self, mixed_sign_points, mixed_sign_model, n_shards
    ):
        mono, sharded = _pair(mixed_sign_points, mixed_sign_model, n_shards)
        # Signs incompatible with the (+, -, +) octant in either form.
        bad_normal = np.asarray([1.0, 1.0, 1.0])
        with sharded:
            expected = mono.query(bad_normal, 5.0)
            got = sharded.query(bad_normal, 5.0)
            assert expected.used_fallback and got.used_fallback
            assert np.array_equal(expected.ids, got.ids)
            expected_k = mono.topk(bad_normal, 5.0, 5)
            got_k = sharded.topk(bad_normal, 5.0, 5)
            assert np.array_equal(expected_k.ids, got_k.ids)
            expected_r = mono.query_range(bad_normal, -5.0, 5.0)
            got_r = sharded.query_range(bad_normal, -5.0, 5.0)
            assert np.array_equal(expected_r.ids, got_r.ids)


class TestMaintenance:
    def test_equality_through_mutations(self, uniform_points, uniform_model, n_shards):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        rng = np.random.default_rng(9)
        with sharded:
            new_points = rng.uniform(1.0, 100.0, size=(64, 4))
            mono_ids = mono.insert_points(new_points)
            shard_ids_ = sharded.insert_points(new_points)
            assert np.array_equal(mono_ids, shard_ids_)

            doomed = np.concatenate([mono_ids[::5], np.asarray([3, 17], dtype=np.int64)])
            mono.delete_points(doomed)
            sharded.delete_points(doomed)

            changed = mono_ids[1::5]
            new_values = rng.uniform(1.0, 100.0, size=(changed.size, 4))
            mono.update_points(changed, new_values)
            sharded.update_points(changed, new_values)

            assert len(mono) == len(sharded)
            assert sum(sharded.shard_sizes()) == len(sharded)
            for normal, offset in _sample_queries(uniform_model, 8):
                assert np.array_equal(
                    mono.query(normal, offset).ids, sharded.query(normal, offset).ids
                )
                expected_k = mono.topk(normal, offset, 9)
                got_k = sharded.topk(normal, offset, 9)
                assert np.array_equal(expected_k.ids, got_k.ids)
                assert np.array_equal(expected_k.distances, got_k.distances)

    def test_index_lifecycle_fans_out(self, uniform_points, uniform_model, n_shards):
        mono, sharded = _pair(uniform_points, uniform_model, n_shards)
        with sharded:
            fresh = np.asarray([3.0, 1.0, 4.0, 1.0])
            assert mono.add_index(fresh) == sharded.add_index(fresh) is True
            # Re-adding the same normal is redundant everywhere.
            assert sharded.add_index(fresh) is False
            assert all(
                len(collection) == sharded.n_indices
                for collection in sharded.collections
            )
            before = sharded.n_indices
            sharded.drop_index(0)
            mono.collection.drop_index(0)
            assert sharded.n_indices == before - 1
            for normal, offset in _sample_queries(uniform_model, 5):
                assert np.array_equal(
                    mono.query(normal, offset).ids, sharded.query(normal, offset).ids
                )


def _assert_every_kind_matches(mono, sharded, model):
    """Every query kind of ``sharded`` answers as ``mono`` does."""
    queries = _sample_queries(model, 4, seed=5)
    for normal, offset in queries:
        assert np.array_equal(mono.query(normal, offset).ids, sharded.query(normal, offset).ids)
        assert np.array_equal(
            mono.query_range(normal, 0.4 * offset, offset).ids,
            sharded.query_range(normal, 0.4 * offset, offset).ids,
        )
        expected_k, got_k = mono.topk(normal, offset, 9), sharded.topk(normal, offset, 9)
        assert np.array_equal(expected_k.ids, got_k.ids)
        assert np.array_equal(expected_k.distances, got_k.distances)
    normals = np.vstack([normal for normal, _ in queries])
    offsets = np.array([offset for _, offset in queries])
    for expected, got in zip(mono.query_batch(normals, offsets), sharded.query_batch(normals, offsets)):
        assert np.array_equal(expected.ids, got.ids)
    for expected, got in zip(
        mono.topk_batch(normals, offsets, 9), sharded.topk_batch(normals, offsets, 9)
    ):
        assert np.array_equal(expected.ids, got.ids)
        assert np.array_equal(expected.distances, got.distances)


def _wave_matrices(sharded, wq) -> int:
    """Threshold matrices one wave over ``wq`` chose from; every shard's
    choice indexes that shard's own snapshot."""
    plans = sharded._choose([wq])
    for (choice,), collection in zip(plans, sharded.collections):
        assert choice.cache is collection.snapshot
    return len({id(choice.th) for (choice,) in plans})


class TestWavePlanning:
    """One choice of index per wave, unless the shards' normals differ."""

    def test_positions_are_chosen_once_for_every_shard(
        self, uniform_points, uniform_model, n_shards
    ):
        _, sharded = _pair(uniform_points, uniform_model, max(2, n_shards))
        with sharded:
            normal, offset = _sample_queries(uniform_model, 1)[0]
            wq = sharded._working(ScalarProductQuery(normal, offset))
            plans = sharded._choose([wq])
            (first,) = plans[0]
            for (choice,), collection in zip(plans, sharded.collections):
                assert choice.position == first.position and choice.th is first.th
                assert choice.probes is first.probes
                assert choice.cache is collection.snapshot

    def test_lifecycle_fan_out_in_flight_keeps_answers_exact(
        self, uniform_points, uniform_model, n_shards
    ):
        mono, sharded = _pair(uniform_points, uniform_model, max(2, n_shards))
        with sharded:
            normal, offset = _sample_queries(uniform_model, 1)[0]
            wq = sharded._working(ScalarProductQuery(normal, offset))
            first, *rest = sharded.collections
            shards = len(sharded.collections)
            # add_index has reached the first shard only: the normals
            # differ, so each shard chooses over its own snapshot.
            assert first.add_index(np.asarray([3.0, 1.0, 4.0, 1.0]))
            assert _wave_matrices(sharded, wq) == shards
            _assert_every_kind_matches(mono, sharded, uniform_model)
            for collection in rest:
                collection.add_index(np.asarray([3.0, 1.0, 4.0, 1.0]))
            assert _wave_matrices(sharded, wq) == 1
            # And a drop that has reached the first shard only.
            first.drop_index(0)
            assert _wave_matrices(sharded, wq) == shards
            _assert_every_kind_matches(mono, sharded, uniform_model)

    def test_lifecycle_fan_out_during_a_wave_keeps_answers_exact(
        self, uniform_points, uniform_model, n_shards, monkeypatch
    ):
        """A whole add_index/drop_index fan-out lands between two shards of
        one wave: the later shards still plan from the snapshots the wave
        read, so the choice stays valid and the answers exact."""
        mono, sharded = _pair(uniform_points, uniform_model, max(2, n_shards))
        with sharded:
            first = sharded.collections[0]
            rng = np.random.default_rng(1)
            calls = iter(range(1000))

            def lifecycle():
                # Dropping index 0 shifts every position the wave chose.
                if next(calls) % 2:
                    sharded.drop_index(0)
                else:
                    sharded.add_index(uniform_model.sample_normal(rng))

            def racing(method):
                def run(*args, **kwargs):
                    result = method(*args, **kwargs)
                    lifecycle()
                    return result

                return run

            for name in ("query", "query_range", "topk", "query_batch", "topk_batch"):
                monkeypatch.setattr(first, name, racing(getattr(first, name)))
            _assert_every_kind_matches(mono, sharded, uniform_model)
            assert all(len(c) == sharded.n_indices for c in sharded.collections)


class TestOneStore:
    def test_points_are_the_features_through_mutations(
        self, uniform_points, uniform_model, n_shards
    ):
        rng = np.random.default_rng(4)
        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
        ) as engine:
            assert engine._points is engine._features
            rows = churn(engine, uniform_points, rng)
            ids = np.array(sorted(rows), dtype=np.int64)
            written = np.array([rows[point_id] for point_id in ids.tolist()])
            assert np.array_equal(engine.get_points(ids), written)
            views = engine._stores if n_shards > 1 else []
            assert engine.memory_bytes() == (
                engine._features.memory_bytes()
                + sum(view.memory_bytes() for view in views)
                + sum(collection.memory_bytes() for collection in engine.collections)
            )

    def test_a_scan_grows_memory_by_the_views_caches(
        self, uniform_points, uniform_model, monkeypatch
    ):
        monkeypatch.setattr("repro.core.collection._SCAN_FALLBACK_FRACTION", 0.0)
        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=2
        ) as engine:
            before = engine.memory_bytes()
            views_before = sum(view.memory_bytes() for view in engine._stores)
            normal = uniform_model.sample_normal(np.random.default_rng(2))
            stats = engine.query(normal, 500.0).stats
            assert stats.n_verified == stats.n_total  # both shards scanned
            grown = sum(view.memory_bytes() for view in engine._stores) - views_before
            assert grown > 0
            assert engine.memory_bytes() == before + grown


class TestShardLayout:
    def test_more_shards_than_points(self, uniform_model):
        rng = np.random.default_rng(0)
        points = rng.uniform(1.0, 100.0, size=(3, 4))
        mono = FunctionIndex(points, uniform_model, n_indices=3, rng=0)
        with ShardedFunctionIndex(
            points, uniform_model, n_indices=3, rng=0, n_shards=5
        ) as sharded:
            sizes = sharded.shard_sizes()
            assert sum(sizes) == 3 and len(sizes) == 5 and 0 in sizes
            normal = uniform_model.sample_normal(rng)
            assert np.array_equal(
                mono.query(normal, 200.0).ids, sharded.query(normal, 200.0).ids
            )
            expected_k = mono.topk(normal, 200.0, 2)
            got_k = sharded.topk(normal, 200.0, 2)
            assert np.array_equal(expected_k.ids, got_k.ids)

    def test_single_shard_is_monolithic_layout(self, uniform_points, uniform_model):
        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=1
        ) as sharded:
            assert sharded.shard_sizes() == [len(uniform_points)]
            # One shard means no view indirection, and it plans as the
            # monolithic facade does: one wave over one snapshot.
            assert sharded._stores[0] is sharded._features
            mono = FunctionIndex(uniform_points, uniform_model, n_indices=4, rng=0)
            normal = uniform_model.sample_normal(0)
            spq = ScalarProductQuery(normal, 300.0)
            ((choice,),) = sharded._choose([sharded._working(spq)])
            ((expected,),) = mono._choose([mono._working(spq)])
            assert choice.cache is sharded.collections[0].snapshot
            assert choice.position == expected.position
            assert np.array_equal(choice.th.lo, expected.th.lo)
            assert np.array_equal(sharded.query(normal, 300.0).ids, mono.query(normal, 300.0).ids)

    def test_rejects_bad_configuration(self, uniform_points, uniform_model):
        with pytest.raises(ValueError):
            ShardedFunctionIndex(uniform_points, uniform_model, n_shards=0)

    def test_close_is_idempotent(self, uniform_points, uniform_model, n_shards):
        sharded = ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
        )
        normal = uniform_model.sample_normal(0)
        sharded.query(normal, 300.0)
        sharded.close()
        sharded.close()


class TestBatchShortCircuits:
    """Regression: degenerate batches must not open traces or fan out."""

    def test_empty_batch_emits_no_trace_or_metrics(
        self, uniform_points, uniform_model, n_shards, obs_enabled
    ):
        from repro.obs import spans as obs_spans

        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
        ) as sharded:
            dim = uniform_points.shape[1]
            before_traces = len(obs_spans.recent_traces())
            before_total = obs_metrics.traces_total().value(kind="batch", sampled="1")
            before_shards = {
                shard: obs_metrics.shard_queries_total().value(
                    kind="batch", shard=str(shard)
                )
                for shard in range(n_shards)
            }
            assert sharded.query_batch(np.empty((0, dim)), np.empty(0)) == []
            assert len(obs_spans.recent_traces()) == before_traces
            assert (
                obs_metrics.traces_total().value(kind="batch", sampled="1")
                == before_total
            )
            for shard in range(n_shards):
                assert (
                    obs_metrics.shard_queries_total().value(
                        kind="batch", shard=str(shard)
                    )
                    == before_shards[shard]
                )

    def test_mismatched_batch_raises_before_trace(
        self, uniform_points, uniform_model, n_shards, obs_enabled
    ):
        from repro.obs import spans as obs_spans

        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
        ) as sharded:
            dim = uniform_points.shape[1]
            before_traces = len(obs_spans.recent_traces())
            with pytest.raises(ValueError):
                sharded.query_batch(np.ones((2, dim)), np.ones(3))
            # Validation failed before the trace opened: no aborted trace.
            assert len(obs_spans.recent_traces()) == before_traces

    def test_all_fallback_batch_skips_shard_fanout(
        self, mixed_sign_points, mixed_sign_model, n_shards, obs_enabled
    ):
        """A batch where every query needs the octant fallback answers by
        whole-store scans — no per-shard fan-out, no shard spans."""
        from repro.obs import spans as obs_spans

        with ShardedFunctionIndex(
            mixed_sign_points, mixed_sign_model, n_indices=4, rng=0, n_shards=n_shards
        ) as sharded:
            # Signs incompatible with the model octant in either form.
            normals = np.ones((3, mixed_sign_points.shape[1]))
            offsets = np.array([5.0, 10.0, 15.0])
            before = {
                shard: obs_metrics.shard_queries_total().value(
                    kind="batch", shard=str(shard)
                )
                for shard in range(n_shards)
            }
            answers = sharded.query_batch(normals, offsets)
            assert all(answer.used_fallback for answer in answers)
            for shard in range(n_shards):
                assert (
                    obs_metrics.shard_queries_total().value(
                        kind="batch", shard=str(shard)
                    )
                    == before[shard]
                )
            root = obs_spans.recent_traces()[-1]
            assert root.name == "query.batch"
            assert not [c for c in root.children if c.name.startswith("shard.")]


class TestShardObservability:
    def test_per_shard_series(
        self, uniform_points, uniform_model, n_shards, obs_enabled
    ):
        with ShardedFunctionIndex(
            uniform_points, uniform_model, n_indices=4, rng=0, n_shards=n_shards
        ) as sharded:
            normal = uniform_model.sample_normal(0)
            sharded.query(normal, 300.0)
            sharded.topk(normal, 300.0, 3)
            counter = obs_metrics.shard_queries_total()
            gauge = obs_metrics.shard_points()
            for shard in range(n_shards):
                assert counter.value(kind="inequality", shard=str(shard)) >= 1
                assert counter.value(kind="topk", shard=str(shard)) >= 1
            total = sum(
                gauge.value(shard=str(shard)) for shard in range(n_shards)
            )
            assert total == len(sharded)
