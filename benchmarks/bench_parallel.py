"""Benchmark: sharded parallel engine vs the monolithic facade.

Two claims are measured, both best-of to shave scheduler noise and with
a small absolute-time floor so sub-ms runs don't trip on timer jitter:

* **Two shards** — the engine runs a wave's shards in turn on the calling
  thread, with one choice of index per query for all of them, so
  splitting the data in two must cost at most 10% over the plain
  :class:`~repro.core.function_index.FunctionIndex` on the same batch.
  Nothing here needs more than one core.
* **One shard** — the 1-shard configuration is the monolithic collection
  layout; it must stay within 10% of the plain facade.

Answers are asserted bit-identical along the way, so neither bound is
bought with approximation.
"""

from __future__ import annotations

import time

import numpy as np

from repro import FunctionIndex, ShardedFunctionIndex
from repro.bench import print_table
from repro.datasets import Workload, load

from conftest import scaled

_N_POINTS = scaled(200_000)
_N_QUERIES = 48
_N_INDICES = 32
_SHARDS = 2


def _best_of(func, repeat=3):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return result, best


def _paired_best_of(first, second, repeat=5):
    """``_best_of`` for two arms, alternating which runs first, so a slow
    spell on a shared host lands on both arms rather than on one."""
    best = [float("inf"), float("inf")]
    results = [None, None]
    for turn in range(repeat):
        for arm in ((0, 1) if turn % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            results[arm] = (first, second)[arm]()
            best[arm] = min(best[arm], time.perf_counter() - start)
    return results, best


def _workload(n_points):
    points = load("indp", n_points, 6, rng=0).points
    workload = Workload.for_points(points, rq=2)
    queries = workload.sample_queries(_N_QUERIES, rng=1)
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])
    return points, workload.model, normals, offsets


def test_two_shard_overhead(benchmark):
    """2-shard batch time must track the monolithic facade within 10%."""
    points, model, normals, offsets = _workload(_N_POINTS)
    mono = FunctionIndex(points, model, n_indices=_N_INDICES, rng=0)
    engine = ShardedFunctionIndex(
        points, model, n_indices=_N_INDICES, rng=0, n_shards=_SHARDS
    )

    def measure():
        mono.query_batch(normals[:4], offsets[:4])  # warm
        engine.query_batch(normals[:4], offsets[:4])
        (mono_answers, shard_answers), (mono_s, shard_s) = _paired_best_of(
            lambda: mono.query_batch(normals, offsets),
            lambda: engine.query_batch(normals, offsets),
        )
        for one, many in zip(mono_answers, shard_answers):
            assert np.array_equal(one.ids, many.ids)
        return {
            "n_points": len(points),
            "queries": len(offsets),
            "mono_ms": mono_s * 1000,
            "sharded_ms": shard_s * 1000,
            "ratio": shard_s / mono_s,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"Sharded batch time ({_SHARDS} shards)", [row])
    engine.close()
    # Same form as the 1-shard bound below.
    assert row["sharded_ms"] <= row["mono_ms"] * 1.10 + 2.0, (
        f"{_SHARDS}-shard engine is {row['ratio']:.2f}x the monolithic path"
    )


def test_single_shard_overhead(benchmark):
    """1-shard engine must track the monolithic facade within 10%."""
    points, model, normals, offsets = _workload(max(20_000, _N_POINTS // 4))
    mono = FunctionIndex(points, model, n_indices=_N_INDICES, rng=0)
    engine = ShardedFunctionIndex(points, model, n_indices=_N_INDICES, rng=0, n_shards=1)

    def measure():
        mono.query_batch(normals[:4], offsets[:4])  # warm
        engine.query_batch(normals[:4], offsets[:4])
        mono_answers, mono_s = _best_of(
            lambda: mono.query_batch(normals, offsets), repeat=5
        )
        shard_answers, shard_s = _best_of(
            lambda: engine.query_batch(normals, offsets), repeat=5
        )
        for one, many in zip(mono_answers, shard_answers):
            assert np.array_equal(one.ids, many.ids)
        return {
            "n_points": len(points),
            "queries": len(offsets),
            "mono_ms": mono_s * 1000,
            "one_shard_ms": shard_s * 1000,
            "overhead_pct": 100.0 * (shard_s / mono_s - 1.0),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("Single-shard engine overhead", [row])
    engine.close()
    # 10% relative bound with a 2ms absolute floor: at sub-ms batch times
    # the relative bound would be deciding on timer noise.
    assert row["one_shard_ms"] <= row["mono_ms"] * 1.10 + 2.0, (
        f"1-shard engine is {row['overhead_pct']:.1f}% slower than monolithic"
    )
