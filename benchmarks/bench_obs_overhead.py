"""Overhead of the observability layer with REPRO_OBS unset.

Acceptance bar (ISSUE 2): with the layer disabled — the default — the
instrumented ``PlanarIndex.query`` must stay within **2%** of a fully
uninstrumented reimplementation of the same pipeline.  The disabled path
costs one module-global read plus a branch per instrumented section, so
the measured difference should be deep in the noise.

Arms:

``instrumented``
    ``index.query(q)`` as shipped — guards compiled in, layer disabled.

``uninstrumented``
    The identical pipeline (working query → thresholds → binary search →
    write-log split → II verification through ``FeatureStore.take_rows``
    → materialize → stats) re-inlined here with *no* obs code at all,
    reproducing the pre-instrumentation module.

A second gate covers production telemetry (ISSUE 7): armed at
``REPRO_OBS=0.01`` — always-on tracing with 1% head sampling — the same
query must stay within **5%** of the uninstrumented pipeline, because
unsampled traces mute every per-query span/metric and pay only the
trace-id draw plus the ``repro_traces_total`` bump.

An informational test also measures the fully-armed (sample everything)
cost, which is allowed to be visible (it is opt-in) but must stay
bounded.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import print_table
from repro.core import PlanarIndex, ScalarProductQuery, exact
from repro.core.planar import QueryStats
from repro.core.selection import interval_probes, key_offsets, thresholds
from repro.obs import runtime as obs_runtime

from conftest import paired_minima, scaled

N_POINTS = scaled(200_000)
DIM = 6
N_QUERIES = 400


def _build(rng: np.random.Generator) -> tuple[PlanarIndex, list[ScalarProductQuery]]:
    points = rng.uniform(1.0, 100.0, size=(N_POINTS, DIM))
    index = PlanarIndex.from_features(points, np.ones(DIM))
    queries = [
        ScalarProductQuery(rng.uniform(1.0, 5.0, DIM), float(rng.uniform(100, 1200)))
        for _ in range(N_QUERIES)
    ]
    return index, queries


def _uninstrumented_query(index: PlanarIndex, query: ScalarProductQuery):
    """The exact disabled-path pipeline with every obs guard removed."""
    wq = index.working_query(query)
    # interval_ranks, inlined (the shared threshold and probe functions
    # plus two float32 binary searches)
    column = index.working_normal
    offset = key_offsets(column, index.translator.delta)
    probe_lo, probe_hi = interval_probes(thresholds(column, offset, wq), wq)
    keys = index._keys
    r_lo = keys.rank_le(probe_lo)
    r_hi = keys.rank_le(probe_hi)
    # finish_query, inlined: the same write-log split and store gather
    upper = wq.op.is_upper_bound
    part = index._split(index._log.state, r_lo, r_hi, below=upper, above=not upper)
    accepted = [part.below if upper else part.above]
    verify_ids = part.middle
    n_verified = int(verify_ids.size)
    if n_verified:
        feats = index._store.take_rows(verify_ids)
        keep, _ = exact.satisfying(feats, wq.query, exact.octant_bound(wq))
        accepted.append(verify_ids[keep])
    result_ids = np.sort(np.concatenate(accepted))
    stats = QueryStats(
        n_total=part.n,
        si_size=part.si,
        ii_size=part.ii,
        li_size=part.li,
        n_verified=n_verified,
        n_results=int(result_ids.size),
    )
    return result_ids, stats


def test_disabled_obs_overhead_below_two_percent(benchmark):
    """Empirical gate: instrumented vs uninstrumented, obs disabled.

    The arms are timed query by query with paired, alternating minima
    (:func:`conftest.paired_minima`) to absorb scheduler noise; the bar
    is 2% on the ratio of summed minima.
    """
    if obs_runtime.ENABLED:
        import pytest

        pytest.skip("benchmark process running under REPRO_OBS=1")

    rng = np.random.default_rng(42)
    index, queries = _build(rng)

    # Sanity: the uninstrumented arm is the same algorithm.
    for query in queries[:5]:
        expected = index.query(query)
        got_ids, got_stats = _uninstrumented_query(index, query)
        assert np.array_equal(expected.ids, got_ids)
        assert expected.stats == got_stats

    def instrumented() -> None:
        for query in queries:
            index.query(query)

    def uninstrumented(query: ScalarProductQuery) -> None:
        _uninstrumented_query(index, query)

    # Warm up caches and BLAS threads.
    instrumented()
    for query in queries:
        uninstrumented(query)

    sum_inst, sum_base = paired_minima(index.query, uninstrumented, queries, rounds=7)
    ratio = sum_inst / sum_base
    benchmark.pedantic(instrumented, rounds=1, iterations=1)

    print_table(
        "Disabled-obs overhead on PlanarIndex.query",
        [
            {
                "instrumented_us": sum_inst / N_QUERIES * 1e6,
                "uninstrumented_us": sum_base / N_QUERIES * 1e6,
                "ratio": ratio,
            }
        ],
    )
    assert ratio < 1.02, (
        f"instrumented/uninstrumented paired-minima ratio {ratio:.4f} exceeds the "
        f"2% bar ({sum_inst / N_QUERIES * 1e6:.2f} us vs {sum_base / N_QUERIES * 1e6:.2f} us "
        "per query)"
    )


def test_armed_sampled_overhead_below_five_percent(benchmark):
    """Empirical gate: armed at 1% head sampling vs uninstrumented.

    This is the production-telemetry contract: ``REPRO_OBS=0.01`` keeps
    tracing and the query log always on while unsampled queries (the
    ~99%) skip all span/metric bookkeeping because their trace is
    sampled out, so the median per-query cost stays within 5% of the
    uninstrumented pipeline.
    """
    if obs_runtime.ENABLED:
        import pytest

        pytest.skip("benchmark process running under REPRO_OBS=1")

    rng = np.random.default_rng(13)
    index, queries = _build(rng)

    def armed_sampled() -> None:
        for query in queries:
            index.query(query)

    def uninstrumented() -> None:
        for query in queries:
            _uninstrumented_query(index, query)

    uninstrumented()  # warm up caches and BLAS threads

    previous = obs_runtime.enable(0.01)
    try:
        armed_sampled()  # warm up armed structures
        # Query-level interleave: both arms run the *same* query
        # back-to-back (alternating which goes first), so scheduler and
        # frequency drift hit both arms identically instead of whichever
        # half-second block it overlaps.  Run-level interleaving swings
        # by ±20% on noisy CI machines; this shape is stable to ~1%.
        rounds = 7
        ratios = []
        times_inst = []
        times_base = []
        for _ in range(rounds):
            armed_total = 0.0
            base_total = 0.0
            for i, query in enumerate(queries):
                if i & 1:
                    t0 = time.perf_counter()
                    index.query(query)
                    t1 = time.perf_counter()
                    _uninstrumented_query(index, query)
                    t2 = time.perf_counter()
                    armed_total += t1 - t0
                    base_total += t2 - t1
                else:
                    t0 = time.perf_counter()
                    _uninstrumented_query(index, query)
                    t1 = time.perf_counter()
                    index.query(query)
                    t2 = time.perf_counter()
                    base_total += t1 - t0
                    armed_total += t2 - t1
            times_inst.append(armed_total)
            times_base.append(base_total)
            ratios.append(armed_total / base_total)
        benchmark.pedantic(armed_sampled, rounds=1, iterations=1)
    finally:
        obs_runtime.enable(previous)

    med_inst = float(np.median(times_inst)) / N_QUERIES
    med_base = float(np.median(times_base)) / N_QUERIES
    ratio = float(np.median(ratios))
    print_table(
        "Armed-at-1%-sampling overhead on PlanarIndex.query",
        [
            {
                "armed_sampled_us": med_inst * 1e6,
                "uninstrumented_us": med_base * 1e6,
                "ratio": ratio,
            }
        ],
    )
    assert ratio < 1.05, (
        f"armed-sampled/uninstrumented median ratio {ratio:.4f} exceeds the "
        f"5% bar ({med_inst * 1e6:.2f} us vs {med_base * 1e6:.2f} us per query)"
    )


def test_armed_obs_cost_is_bounded(benchmark):
    """Informational: armed-mode per-query cost stays usable.

    The armed layer pays span/record bookkeeping and registry updates per
    query.  That is opt-in, so the bar is a generous sanity ceiling, not a
    performance promise.
    """
    rng = np.random.default_rng(7)
    index, queries = _build(rng)
    queries = queries[:100]

    def run() -> None:
        for query in queries:
            index.query(query)

    run()  # warm up
    start = time.perf_counter()
    run()
    disabled_elapsed = time.perf_counter() - start

    previous = obs_runtime.enable()
    try:
        run()  # warm up armed structures
        benchmark.pedantic(run, rounds=1, iterations=1)
        start = time.perf_counter()
        run()
        armed_elapsed = time.perf_counter() - start
    finally:
        obs_runtime.enable(previous)

    print_table(
        "Armed-obs cost on PlanarIndex.query",
        [
            {
                "disabled_us": disabled_elapsed / len(queries) * 1e6,
                "armed_us": armed_elapsed / len(queries) * 1e6,
            }
        ],
    )
    # Generous ceiling: armed mode must stay usable for debugging runs.
    assert armed_elapsed < disabled_elapsed * 50
