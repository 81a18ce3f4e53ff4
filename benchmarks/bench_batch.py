"""Benchmark: batched vs one-at-a-time inequality queries.

``query_batch`` answers each member through the single-query path under
one trace; this bench checks that it returns the same answers as a loop
of single queries on an identical workload and costs no more than that
loop, within measurement noise.
"""

from __future__ import annotations

import time

import numpy as np

from repro import FunctionIndex
from repro.bench import print_table
from repro.datasets import Workload, load

from conftest import scaled

_N_POINTS = scaled(60_000)


def test_batch_vs_single(benchmark):
    points = load("indp", _N_POINTS, 6, rng=0).points
    workload = Workload.for_points(points, rq=2)
    index = FunctionIndex(points, workload.model, n_indices=64, rng=0)
    queries = workload.sample_queries(64, rng=1)
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])

    def best_of(func, repeat=3):
        best, result = float("inf"), None
        for _ in range(repeat):
            start = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - start)
        return result, best

    def measure():
        index.query_batch(normals[:4], offsets[:4])  # warm
        batched, batch_s = best_of(lambda: index.query_batch(normals, offsets))
        singles, single_s = best_of(
            lambda: [index.query(n, o) for n, o in zip(normals, offsets)]
        )
        for one, many in zip(singles, batched):
            assert np.array_equal(one.ids, many.ids)
        return {
            "queries": len(queries),
            "batched_ms": batch_s * 1000,
            "single_ms": single_s * 1000,
            "amortization_x": single_s / batch_s,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("Batched vs single inequality queries (64 queries)", [row])
    # Identical answers were asserted; batching must not be slower by more
    # than measurement noise.
    assert row["batched_ms"] < row["single_ms"] * 1.25
