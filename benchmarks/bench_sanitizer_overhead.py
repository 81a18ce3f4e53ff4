"""Overhead of the @array_contract decorator with the sanitizer off.

The acceptance bar for the contracts subsystem: in the default
configuration (``REPRO_SANITIZE`` unset) decorated entry points must cost
the same as undecorated ones — the decorator returns the *original
function object*, so any measured difference is noise.  This benchmark
demonstrates that two ways:

1. structurally — the hot entry points are literally the same objects a
   bare ``def`` would produce (no wrapper frame, identity check), and
2. empirically — end-to-end ``PlanarIndex.query`` latency through the
   decorated call chain is within 1% of calling the same underlying
   machinery with the contract layer bypassed.

For contrast, the sanitized mode's cost is measured too (informational:
it pays ``inspect.Signature.bind`` plus array checks per call, which is
why it is opt-in).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.contracts import checked, sanitize_enabled
from repro.bench import print_table
from repro.core import PlanarIndex, ScalarProductQuery

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
        PlanarIndex.rekey,
    ):
        assert getattr(fn, "__array_contract__", None) is not None
        assert not getattr(fn, "__array_contract_checked__", False)
        # functools.wraps would set __wrapped__; the original object has none.
        assert not hasattr(fn, "__wrapped__")


def test_sanitizer_off_overhead_below_one_percent(benchmark):
    """Empirical check: decorated vs bypassed call chain, same process.

    Both arms execute identical numpy work; the only difference is the
    (absent) contract layer.  The arms are timed query by query with
    paired, alternating minima (:func:`conftest.paired_minima`), with a
    1% acceptance bar on the decorated/bypassed ratio of summed minima.
    """
    rng = np.random.default_rng(99)
    index, queries = _build(rng)

    # Bypass arm: the same query machinery invoked through plain, never-
    # decorated closures (what the module would look like without the
    # decorator at all).
    def bypassed(query: ScalarProductQuery) -> None:
        wq = index.working_query(query)
        r_lo, r_hi, _ = index.interval_ranks(wq)
        index.finish_query(wq, r_lo, r_hi)

    def decorated() -> None:
        for query in queries:
            index.query(query)

    # Warm up caches and BLAS threads.
    for query in queries:
        bypassed(query)
    decorated()

    sum_dec, sum_byp = paired_minima(index.query, bypassed, queries, rounds=7)
    ratio = sum_dec / sum_byp
    benchmark.pedantic(decorated, rounds=1, iterations=1)

    print_table(
        "Sanitizer-off overhead on PlanarIndex.query",
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
