"""Experiment runners: one function per table/figure family of Section 7.

Each runner builds the paper's setup (scaled down from 1M points / 25M
pairs to laptop-friendly sizes — the *shapes* are what we reproduce, not
absolute milliseconds), executes the workload through both the Planar
index and the sequential-scan baseline, and returns printable rows.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .._util import as_rng
from ..core.function_index import FunctionIndex
from ..core.selection import SelectionStrategy
from ..datasets.synthetic import load
from ..datasets.realworld import consumption
from ..datasets.workloads import Workload, consumption_workload
from ..moving.intersection import (
    AcceleratingIntersectionIndex,
    CircularIntersectionIndex,
    LinearIntersectionIndex,
    PairScan,
)
from ..moving.mbrtree import TPRTree, tpr_intersection_join
from ..moving.simulate import (
    accelerating_workload,
    circular_workload,
    uniform_linear_workload,
)
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..parallel.engine import ShardedFunctionIndex
from ..scan.baseline import SequentialScan

__all__ = [
    "run_query_experiment",
    "run_consumption_experiment",
    "run_selectivity_experiment",
    "run_scalability_experiment",
    "run_index_cost_experiment",
    "run_memory_experiment",
    "run_update_experiment",
    "run_moving_experiment",
    "run_topk_experiment",
]


def _make_index(
    points: np.ndarray,
    model,
    n_indices: int,
    strategy: SelectionStrategy | str,
    rng,
    n_shards: int,
    feature_map=None,
):
    """Monolithic facade for one shard, the sharded engine otherwise.

    Experiment runners accept ``n_shards`` so the sharded
    engine can be measured through the exact same workloads as the
    monolithic path (``repro bench --shards 4``).
    """
    if n_shards <= 1:
        return FunctionIndex(
            points,
            model,
            feature_map=feature_map,
            n_indices=n_indices,
            strategy=strategy,
            rng=rng,
        )
    return ShardedFunctionIndex(
        points,
        model,
        feature_map=feature_map,
        n_indices=n_indices,
        strategy=strategy,
        rng=rng,
        n_shards=n_shards,
    )


def _observe_bench(label: str, mean_ms: float) -> None:
    """Fold a mean per-query timing into the obs bench histogram."""
    if _ort.ENABLED:
        _om.bench_seconds().observe(mean_ms / 1000.0, bench=label)


def _mean_query_ms(run, queries, label: str = "experiment.baseline") -> float:
    start = time.perf_counter()
    for query in queries:
        run(query)
    mean_ms = (time.perf_counter() - start) * 1000.0 / max(1, len(queries))
    _observe_bench(label, mean_ms)
    return mean_ms


def _timed_run(run, queries, label: str = "experiment.planar") -> tuple[float, list]:
    """Mean per-query milliseconds plus the collected answers."""
    answers = []
    start = time.perf_counter()
    for query in queries:
        answers.append(run(query))
    elapsed_ms = (time.perf_counter() - start) * 1000.0 / max(1, len(queries))
    _observe_bench(label, elapsed_ms)
    return elapsed_ms, answers


def run_query_experiment(
    points: np.ndarray,
    rq: int,
    n_indices: int,
    n_queries: int = 25,
    inequality_parameter: float = 0.25,
    strategy: SelectionStrategy | str = SelectionStrategy.MIN_STRETCH,
    rng: np.random.Generator | int | None = None,
    n_shards: int = 1,
) -> dict[str, float]:
    """One cell of Figures 6–10: query time and pruning for one config."""
    generator = as_rng(rng)
    workload = Workload.for_points(
        points, rq=rq, inequality_parameter=inequality_parameter
    )
    index = _make_index(
        points, workload.model, n_indices, strategy, generator, n_shards
    )
    try:
        scan = SequentialScan(points)
        queries = workload.sample_queries(n_queries, generator)

        # Warm both paths once so timings exclude first-touch effects.
        index.query(queries[0].normal, queries[0].offset)
        scan.query(queries[0])

        planar_ms, answers = _timed_run(
            lambda q: index.query(q.normal, q.offset), queries
        )
        baseline_ms = _mean_query_ms(scan.query, queries)
        pruned = [answer.stats.pruned_fraction for answer in answers]
        return {
            "planar_ms": planar_ms,
            "baseline_ms": baseline_ms,
            "speedup": baseline_ms / planar_ms if planar_ms > 0 else float("inf"),
            "pruning_pct": 100.0 * float(np.mean(pruned)),
            "n_indices": index.n_indices,
        }
    finally:
        if isinstance(index, ShardedFunctionIndex):
            index.close()


def run_consumption_experiment(
    n_points: int,
    n_indices_list: Sequence[int],
    n_queries: int = 25,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 6(a): the Critical_Consume SQL function vs #indices."""
    generator = as_rng(rng)
    dataset = consumption(n_points, rng=generator)
    workload = consumption_workload()
    features = workload.feature_map(dataset.points)
    scan = SequentialScan(features)
    queries = [workload.sample_query(generator) for _ in range(n_queries)]
    baseline_ms = _mean_query_ms(scan.query, queries)

    rows: list[dict[str, object]] = []
    for n_indices in n_indices_list:
        start = time.perf_counter()
        index = FunctionIndex(
            dataset.points,
            workload.model,
            feature_map=workload.feature_map,
            n_indices=n_indices,
            rng=generator,
        )
        build_s = time.perf_counter() - start
        planar_ms = _mean_query_ms(lambda q: index.query(q.normal, q.offset), queries)
        rows.append(
            {
                "n_indices": n_indices,
                "planar_ms": planar_ms,
                "baseline_ms": baseline_ms,
                "speedup": baseline_ms / planar_ms if planar_ms > 0 else float("inf"),
                "build_s": build_s,
            }
        )
    return rows


def run_selectivity_experiment(
    points: np.ndarray,
    inequality_parameters: Sequence[float],
    rq: int = 4,
    n_indices: int = 100,
    n_queries: int = 15,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 11: selectivity and query time vs the inequality parameter."""
    generator = as_rng(rng)
    base = Workload.for_points(points, rq=rq)
    index = FunctionIndex(points, base.model, n_indices=n_indices, rng=generator)
    scan = SequentialScan(points)
    rows: list[dict[str, object]] = []
    for parameter in inequality_parameters:
        workload = base.with_inequality_parameter(parameter)
        queries = workload.sample_queries(n_queries, generator)
        selectivity = float(
            np.mean([q.evaluate(points).mean() for q in queries])
        )
        planar_ms, answers = _timed_run(
            lambda q: index.query(q.normal, q.offset), queries
        )
        baseline_ms = _mean_query_ms(scan.query, queries)
        pruning = float(np.mean([a.stats.pruned_fraction for a in answers]))
        rows.append(
            {
                "ineq_param": parameter,
                "selectivity_pct": 100.0 * selectivity,
                "planar_ms": planar_ms,
                "baseline_ms": baseline_ms,
                "pruning_pct": 100.0 * pruning,
            }
        )
    return rows


def run_scalability_experiment(
    dataset_name: str,
    sizes: Sequence[int],
    dim: int = 6,
    rq: int = 4,
    n_indices: int = 50,
    n_queries: int = 15,
    rng: np.random.Generator | int | None = None,
    n_shards: int = 1,
) -> list[dict[str, object]]:
    """Figure 12: index build time and query time vs dataset cardinality."""
    generator = as_rng(rng)
    rows: list[dict[str, object]] = []
    for size in sizes:
        points = load(dataset_name, size, dim, rng=generator).points
        workload = Workload.for_points(points, rq=rq)
        start = time.perf_counter()
        index = _make_index(
            points,
            workload.model,
            n_indices,
            SelectionStrategy.MIN_STRETCH,
            generator,
            n_shards,
        )
        build_s = time.perf_counter() - start
        try:
            scan = SequentialScan(points)
            queries = workload.sample_queries(n_queries, generator)
            planar_ms = _mean_query_ms(
                lambda q: index.query(q.normal, q.offset), queries
            )
            baseline_ms = _mean_query_ms(scan.query, queries)
        finally:
            if isinstance(index, ShardedFunctionIndex):
                index.close()
        rows.append(
            {
                "n_points": size,
                "build_s": build_s,
                "planar_ms": planar_ms,
                "baseline_ms": baseline_ms,
            }
        )
    return rows


def run_index_cost_experiment(
    dims: Sequence[int],
    n_indices_list: Sequence[int],
    n_points: int = 50_000,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 13(a): index construction time vs dimensionality and budget."""
    generator = as_rng(rng)
    rows: list[dict[str, object]] = []
    for dim in dims:
        points = load("indp", n_points, dim, rng=generator).points
        workload = Workload.for_points(points, rq=None)
        for n_indices in n_indices_list:
            start = time.perf_counter()
            FunctionIndex(points, workload.model, n_indices=n_indices, rng=generator)
            rows.append(
                {
                    "dim": dim,
                    "n_indices": n_indices,
                    "build_s": time.perf_counter() - start,
                }
            )
    return rows


def run_memory_experiment(
    dims: Sequence[int],
    n_indices_list: Sequence[int],
    n_points: int = 50_000,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 13(b): memory consumption vs #indices and dimensionality."""
    generator = as_rng(rng)
    rows: list[dict[str, object]] = []
    for dim in dims:
        points = load("indp", n_points, dim, rng=generator).points
        workload = Workload.for_points(points, rq=None)
        for n_indices in n_indices_list:
            index = FunctionIndex(
                points, workload.model, n_indices=n_indices, rng=generator
            )
            rows.append(
                {
                    "dim": dim,
                    "n_indices": n_indices,
                    "memory_mb": index.memory_bytes() / (1024.0 * 1024.0),
                }
            )
    return rows


def run_update_experiment(
    n_points: int,
    dim: int,
    update_fractions: Sequence[float],
    n_indices: int = 10,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 13(c): per-index update time vs fraction of points changed.

    The time covers the update and the merge of the write log it leaves
    (:meth:`FunctionIndex.merge_writes`), so deferring the index work
    cannot hide its cost.
    """
    generator = as_rng(rng)
    points = load("indp", n_points, dim, rng=generator).points
    workload = Workload.for_points(points, rq=None)
    rows: list[dict[str, object]] = []
    for fraction in update_fractions:
        index = FunctionIndex(points, workload.model, n_indices=n_indices, rng=generator)
        count = max(1, int(round(fraction * n_points)))
        ids = generator.choice(n_points, size=count, replace=False).astype(np.int64)
        new_values = generator.uniform(1.0, 100.0, size=(count, dim))
        start = time.perf_counter()
        index.update_points(ids, new_values)
        index.merge_writes()
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "update_pct": 100.0 * fraction,
                "per_index_ms": elapsed * 1000.0 / n_indices,
                "per_point_us": elapsed * 1e6 / (count * n_indices),
            }
        )
    return rows


def run_moving_experiment(
    scenario: str,
    n_per_set: int,
    times: Sequence[float],
    distance: float = 10.0,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Figure 14: intersection time per future instant, all methods.

    ``scenario`` is ``linear`` (adds the MBR/TPR-tree column), ``circular``,
    or ``accelerating``.
    """
    generator = as_rng(rng)
    if scenario == "linear":
        first, second = uniform_linear_workload(n_per_set, rng=generator)
        index = LinearIntersectionIndex(first, second, rng=generator)
        trees = (TPRTree(first), TPRTree(second))
    elif scenario == "circular":
        first, second = circular_workload(n_per_set, rng=generator)
        index = CircularIntersectionIndex(first, second, rng=generator)
        trees = None
    elif scenario == "accelerating":
        first, second = accelerating_workload(n_per_set, rng=generator)
        index = AcceleratingIntersectionIndex(first, second, rng=generator)
        trees = None
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    scan = PairScan(first, second)

    rows: list[dict[str, object]] = []
    for t in times:
        start = time.perf_counter()
        planar = index.query(t, distance)
        planar_ms = (time.perf_counter() - start) * 1000.0

        start = time.perf_counter()
        truth = scan.query(t, distance)
        baseline_ms = (time.perf_counter() - start) * 1000.0
        if not np.array_equal(planar.pairs, truth.pairs):  # pragma: no cover
            raise AssertionError(f"planar/baseline mismatch at t={t}")

        row: dict[str, object] = {
            "t": t,
            "n_matches": len(truth),
            "planar_ms": planar_ms,
            "baseline_ms": baseline_ms,
        }
        if trees is not None:
            start = time.perf_counter()
            mbr_pairs = tpr_intersection_join(trees[0], trees[1], t, distance)
            row["mbr_ms"] = (time.perf_counter() - start) * 1000.0
            if not np.array_equal(mbr_pairs, truth.pairs):  # pragma: no cover
                raise AssertionError(f"mbr/baseline mismatch at t={t}")
        rows.append(row)
    return rows


def run_topk_experiment(
    points: np.ndarray,
    ks: Sequence[int],
    rq: int = 4,
    n_indices: int = 100,
    n_queries: int = 15,
    rng: np.random.Generator | int | None = None,
    n_shards: int = 1,
) -> list[dict[str, object]]:
    """Table 3: top-k time and checked-point fraction vs k."""
    generator = as_rng(rng)
    workload = Workload.for_points(points, rq=rq)
    index = _make_index(
        points,
        workload.model,
        n_indices,
        SelectionStrategy.MIN_STRETCH,
        generator,
        n_shards,
    )
    try:
        scan = SequentialScan(points)
        queries = workload.sample_queries(n_queries, generator)
        rows: list[dict[str, object]] = []
        for k in ks:
            checked = [
                index.topk(q.normal, q.offset, k).checked_fraction for q in queries
            ]
            planar_ms = _mean_query_ms(
                lambda q: index.topk(q.normal, q.offset, k), queries
            )
            baseline_ms = _mean_query_ms(lambda q: scan.topk(q, k), queries)
            rows.append(
                {
                    "k": k,
                    "checked_pct": 100.0 * float(np.mean(checked)),
                    "planar_ms": planar_ms,
                    "baseline_ms": baseline_ms,
                }
            )
        return rows
    finally:
        if isinstance(index, ShardedFunctionIndex):
            index.close()
