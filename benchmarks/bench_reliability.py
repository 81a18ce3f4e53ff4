"""Overhead of the fault-tolerance layer with no fault plan armed.

Acceptance bar (ISSUE 5): with fault injection disarmed — the default —
the hardened sharded query path must stay within **2%** of the identical
fan-out with every reliability hook removed.  The disarmed path costs one
module-global ``faults.ARMED`` read per shard task plus the failure-policy
branch per wave, so the measured difference should be deep in the noise.

Arms:

``hardened``
    ``ShardedFunctionIndex.query`` as shipped — fault-site guards,
    deadline accounting, and policy dispatch compiled in, all disarmed.

``bare``
    The identical fan-out re-inlined here with *no* reliability code:
    same wave plan, same per-shard ``collection.query`` in turn, same
    merge.

An informational test also measures the armed-but-never-firing cost
(rule table scanned on every shard task), which is opt-in and allowed to
be visible but must stay bounded.
"""

from __future__ import annotations

import time

import numpy as np

from repro import QueryModel, ScalarProductQuery, ShardedFunctionIndex
from repro.core.function_index import _merge_answer
from repro.datasets.workloads import Workload
from repro.bench import print_table
from repro.reliability import faults as _flt

from conftest import paired_minima, scaled

# The disarmed reliability overhead is a *fixed* cost per query — one
# module-global read plus the policy branch per shard task, measured at
# ~2.6us/query with three shards (no-op shard functions, this machine).
# The 2% bar is therefore only meaningful when per-query work is large
# enough to dwarf that constant, so the dataset size is floored even
# when ``REPRO_BENCH_SCALE`` shrinks the other benchmarks.
N_POINTS = max(scaled(120_000), 60_000)
DIM = 6
N_SHARDS = 3
N_QUERIES = 200


def _build(rng: np.random.Generator):
    """The engine and ``N_QUERIES`` ``(normal, offset)`` pairs of the paper
    workload: normals from the query model, Eq. 18 offsets (s = 0.25)."""
    points = rng.uniform(1.0, 100.0, size=(N_POINTS, DIM))
    model = QueryModel.uniform(dim=DIM, low=1.0, high=5.0, rq=4)
    engine = ShardedFunctionIndex(
        points,
        model,
        n_indices=8,
        rng=7,
        n_shards=N_SHARDS,
        failure_policy="raise",  # pin: env REPRO_FAULT_POLICY must not skew arms
    )
    workload = Workload(model, points.max(axis=0))
    queries = [(q.normal, q.offset) for q in workload.sample_queries(N_QUERIES, rng)]
    return engine, queries


def _bare_query(engine: ShardedFunctionIndex, normal: np.ndarray, offset: float):
    """The exact disarmed fan-out pipeline with every reliability hook removed."""
    wq = engine._working(ScalarProductQuery(normal, offset))
    plans = engine._choose([wq])
    parts = [
        collection.query(wq, choices[0])
        for collection, choices in zip(engine.collections, plans)
    ]
    return _merge_answer(parts, None)


def test_bare_arm_returns_shipped_answer():
    """The bare arm answers every query of the gate as the shipped engine
    does: same ids and stats, nothing degraded."""
    engine, queries = _build(np.random.default_rng(42))
    for normal, offset in queries:
        expected = engine.query(normal, offset)
        got = _bare_query(engine, normal, offset)
        assert np.array_equal(expected.ids, got.ids)
        assert expected.stats == got.stats
        assert expected.degraded is None
    engine.close()


def test_disarmed_fault_overhead_below_two_percent(benchmark):
    """Empirical gate: hardened vs bare fan-out, faults disarmed.

    Measuring two whole arms back to back cannot resolve a 2% bar on a
    shared runner: two *byte-identical* fan-out loops timed that way were
    observed 3% apart (scheduler drift between arm slots).  So the arms
    are paired at the finest grain instead — each query is timed in both
    arms back to back (order alternating per query and per round) and
    each query keeps its per-arm **minimum** across all rounds.  Timing
    noise is strictly additive (preemption, cache eviction, turbo drift
    only ever slow a sample down), so the per-query minimum converges on
    the true cost and the ratio of summed minima is stable to ~1%.
    """
    if _flt.is_armed():
        import pytest

        pytest.skip("benchmark process running with REPRO_FAULTS armed")

    rng = np.random.default_rng(42)
    engine, queries = _build(rng)

    # Warm up caches and BLAS threads.
    for normal, offset in queries:
        engine.query(normal, offset)
        _bare_query(engine, normal, offset)

    sum_hardened, sum_bare = paired_minima(
        lambda query: engine.query(*query),
        lambda query: _bare_query(engine, *query),
        queries,
        rounds=12,
    )
    ratio = sum_hardened / sum_bare

    def hardened() -> None:
        for normal, offset in queries:
            engine.query(normal, offset)

    benchmark.pedantic(hardened, rounds=1, iterations=1)

    print_table(
        "Disarmed fault-injection overhead on ShardedFunctionIndex.query",
        [
            {
                "hardened_us": sum_hardened / N_QUERIES * 1e6,
                "bare_us": sum_bare / N_QUERIES * 1e6,
                "ratio": ratio,
            }
        ],
    )
    engine.close()
    assert ratio < 1.02, (
        f"hardened/bare paired-minima ratio {ratio:.4f} exceeds the 2% bar "
        f"({sum_hardened / N_QUERIES * 1e6:.2f} us vs "
        f"{sum_bare / N_QUERIES * 1e6:.2f} us per query)"
    )


def test_armed_nonfiring_cost_is_bounded(benchmark):
    """Informational: an armed plan that never fires stays usable.

    Arms a rule at a site the query path never checks, so every shard
    task pays the rule-matching scan without a single injection.  Armed
    mode is opt-in, so the bar is a generous sanity ceiling.
    """
    rng = np.random.default_rng(7)
    engine, queries = _build(rng)
    queries = queries[:60]

    def run() -> None:
        for normal, offset in queries:
            engine.query(normal, offset)

    run()  # warm up
    start = time.perf_counter()
    run()
    disarmed_elapsed = time.perf_counter() - start

    with _flt.injected("never.fires:error"):
        run()  # warm up armed structures
        benchmark.pedantic(run, rounds=1, iterations=1)
        start = time.perf_counter()
        run()
        armed_elapsed = time.perf_counter() - start

    print_table(
        "Armed (non-firing) fault-plan cost on ShardedFunctionIndex.query",
        [
            {
                "disarmed_us": disarmed_elapsed / len(queries) * 1e6,
                "armed_us": armed_elapsed / len(queries) * 1e6,
            }
        ],
    )
    engine.close()
    # Generous ceiling: armed mode must stay usable for chaos runs.
    assert armed_elapsed < disarmed_elapsed * 10
