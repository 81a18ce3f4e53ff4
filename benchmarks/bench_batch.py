"""Benchmark: batched vs one-at-a-time inequality queries.

``query_batch`` answers each member through the single-query path under
one trace; this bench checks that it returns the same answers as a loop
of single queries on an identical workload and costs no more than that
loop, within measurement noise.
"""

from __future__ import annotations

import numpy as np

from repro import FunctionIndex
from repro.bench import print_table
from repro.datasets import Workload, load

from conftest import paired_minima, scaled

_N_POINTS = scaled(60_000)


def test_batch_vs_single(benchmark):
    points = load("indp", _N_POINTS, 6, rng=0).points
    workload = Workload.for_points(points, rq=2)
    index = FunctionIndex(points, workload.model, n_indices=64, rng=0)
    queries = workload.sample_queries(64, rng=1)
    normals = np.vstack([q.normal for q in queries])
    offsets = np.array([q.offset for q in queries])

    chunks = [slice(start, start + 8) for start in range(0, len(queries), 8)]

    def batched(part):
        return index.query_batch(normals[part], offsets[part])

    def singles(part):
        return [index.query(n, o) for n, o in zip(normals[part], offsets[part])]

    def measure():
        # Paired, alternating minima per 8-query chunk (see
        # conftest.paired_minima); the warm pass checks the answers.
        for part in chunks:
            for one, many in zip(singles(part), batched(part)):
                assert np.array_equal(one.ids, many.ids)
        batch_s, single_s = paired_minima(batched, singles, chunks, rounds=6)
        return {
            "queries": len(queries),
            "batched_ms": batch_s * 1000,
            "single_ms": single_s * 1000,
            "amortization_x": single_s / batch_s,
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("Batched vs single inequality queries (64 queries)", [row])
    # Identical answers were asserted; batching must not be slower by more
    # than measurement noise (summed paired minima, see measure()).
    assert row["batched_ms"] < row["single_ms"] * 1.25
