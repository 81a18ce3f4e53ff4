"""Overhead of the @array_contract decorator with the sanitizer off.

The acceptance bar for the contracts subsystem: in the default
configuration (``REPRO_SANITIZE`` unset) decorated entry points must cost
the same as undecorated ones — the decorator returns the *original
function object*, so any measured difference is noise.  This benchmark
demonstrates that two ways:

1. structurally — the hot entry points are literally the same objects a
   bare ``def`` would produce (no wrapper frame, identity check), and
2. empirically — ``PlanarIndexCollection.query`` latency of a one-index
   collection through the decorated call chain is within 1% of running
   the same obs guard and plan → ``finish_query``/scan chain from a
   plain closure.

For contrast, the sanitized mode's cost is measured too (informational:
it pays ``inspect.Signature.bind`` plus array checks per call, which is
why it is opt-in).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.contracts import checked, sanitize_enabled
from repro.bench import print_table
from repro.core import PlanarIndexCollection, QueryResult, ScalarProductQuery

from conftest import one_index, paired_minima, scaled

N_POINTS = scaled(200_000)
DIM = 6
N_QUERIES = 400


def _build(
    rng: np.random.Generator,
) -> tuple[PlanarIndexCollection, list[ScalarProductQuery]]:
    points = rng.uniform(1.0, 100.0, size=(N_POINTS, DIM))
    queries = [
        ScalarProductQuery(rng.uniform(1.0, 5.0, DIM), float(rng.uniform(100, 1200)))
        for _ in range(N_QUERIES)
    ]
    return one_index(points, np.ones(DIM)), queries


def _bypassed(collection: PlanarIndexCollection, query: ScalarProductQuery) -> QueryResult:
    """``collection.query``'s body called from here: the same obs guard over
    the same plan → ``finish_query``/scan chain, through the same
    decorated functions — only the contract layer could tell the arms apart."""
    wq = collection.working_query(query)
    return collection._observed("inequality", "query", collection._query_impl, wq, None)


def test_decorator_is_identity_when_disabled():
    """Structural zero-overhead proof: no wrapper is installed by default."""
    if sanitize_enabled():
        import pytest

        pytest.skip("benchmark process running under REPRO_SANITIZE=1")
    from repro.core.feature_store import FeatureStore
    from repro.core.sorted_keys import SortedKeyStore

    for fn in (
        FeatureStore.take_rows,
        FeatureStore.get,
        SortedKeyStore.update_batch,
        PlanarIndexCollection.rekey,
    ):
        assert getattr(fn, "__array_contract__", None) is not None
        assert not getattr(fn, "__array_contract_checked__", False)
        # functools.wraps would set __wrapped__; the original object has none.
        assert not hasattr(fn, "__wrapped__")


def test_bypassed_arm_returns_shipped_answer():
    """Both arms of the overhead gate return what ``collection.query`` does,
    on both routes."""
    collection, queries = _build(np.random.default_rng(99))
    routes = set()
    for query in queries:
        expected = collection.query(query)
        got = _bypassed(collection, query)
        assert np.array_equal(got.ids, expected.ids)
        assert got.stats == expected.stats
        routes.add(collection.plan(collection.working_query(query)).route)
    assert routes == {"intervals", "scan"}


def test_sanitizer_off_overhead_below_one_percent(benchmark):
    """Empirical check: decorated vs bypassed call chain, same process.

    Both arms run the same obs guard and plan → ``finish_query``/scan
    chain through the same (identity) decorated functions; the decorated
    arm enters it through ``collection.query``.  The arms are timed query by query with
    paired, alternating minima (:func:`conftest.paired_minima`), with a
    1% acceptance bar on the decorated/bypassed ratio of summed minima.
    """
    rng = np.random.default_rng(99)
    collection, queries = _build(rng)

    def bypassed(query: ScalarProductQuery) -> None:
        _bypassed(collection, query)

    def decorated() -> None:
        for query in queries:
            collection.query(query)

    # Warm up caches and BLAS threads.
    for query in queries:
        bypassed(query)
    decorated()

    sum_dec, sum_byp = paired_minima(collection.query, bypassed, queries, rounds=7)
    ratio = sum_dec / sum_byp
    benchmark.pedantic(decorated, rounds=1, iterations=1)

    print_table(
        "Sanitizer-off overhead on PlanarIndexCollection.query",
        [
            {
                "decorated_us": sum_dec / N_QUERIES * 1e6,
                "bypassed_us": sum_byp / N_QUERIES * 1e6,
                "ratio": ratio,
            }
        ],
    )
    assert ratio < 1.01, (
        f"decorated/bypassed paired-minima ratio {ratio:.4f} exceeds the 1% bar "
        f"({sum_dec / N_QUERIES * 1e6:.2f} us vs {sum_byp / N_QUERIES * 1e6:.2f} us per query)"
    )


def test_sanitized_mode_cost_is_bounded(benchmark):
    """Informational: the armed checker's per-call cost on a small entry point.

    Uses ``contracts.checked`` to build the wrapper in-process (the env
    flag is import-time).  Not a gate beyond a sanity ceiling — sanitize
    mode is a debug configuration, not a production one.
    """
    from repro.core.feature_store import FeatureStore

    rng = np.random.default_rng(3)
    store = FeatureStore(rng.uniform(1.0, 9.0, (10_000, DIM)))
    armed_get = checked(FeatureStore.get)
    ids = np.arange(64, dtype=np.int64)

    def armed() -> None:
        for _ in range(100):
            armed_get(store, ids)

    plain_s = time.perf_counter()
    for _ in range(100):
        store.get(ids)
    plain_elapsed = time.perf_counter() - plain_s

    benchmark.pedantic(armed, rounds=1, iterations=1)
    start = time.perf_counter()
    armed()
    armed_elapsed = time.perf_counter() - start

    print_table(
        "Sanitized-mode cost (FeatureStore.get, 64-row gather)",
        [
            {
                "plain_us": plain_elapsed / 100 * 1e6,
                "armed_us": armed_elapsed / 100 * 1e6,
            }
        ],
    )
    # Generous ceiling: the armed path must stay usable for debugging runs.
    assert armed_elapsed < plain_elapsed * 200
