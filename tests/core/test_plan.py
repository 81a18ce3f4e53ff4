"""The one chooser and planner: :meth:`PlanarIndexCollection.wave_choices`
and :meth:`PlanarIndexCollection.plan`.

Every query kind and every EXPLAIN surface takes its plan from ``plan``,
which ranks and routes a choice made by ``wave_choices``: the one place
that computes the Eq. 13 threshold matrix of all ``r`` indices, once per
working query.  A spy on :func:`repro.core.selection.thresholds` counts
the full matrices and the single columns built per query kind on a
:class:`FunctionIndex` and a 2-shard engine: both build the matrix once
per working query for the whole wave, and each collection ranks its
chosen index's column of it, computing no thresholds of its own.  The
plan's ranks, every column of its matrix and EXPLAIN's candidate spans
must equal each index's standalone
:meth:`~repro.core.planar.PlanarIndex.interval_ranks`, for all four
strategies, on real-valued data over six decades per column with writes
pending in the log and a translation grown since the last merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel, ScalarProductQuery, SelectionStrategy
from repro.core import collection as collection_module
from repro.core import planar as planar_module
from repro.core import selection
from repro.parallel.engine import ShardedFunctionIndex
from repro.reliability import faults as _flt

DIM = 4
MODEL = QueryModel.uniform(dim=DIM, low=0.5, high=4.0, rq=4)


@pytest.fixture(autouse=True)
def _no_faults():
    """Injected shard faults retry or rescan; the counts need clean calls."""
    previous_plan = _flt.active_plan()
    previously_armed = _flt.is_armed()
    _flt.disarm()
    yield
    if previously_armed and previous_plan is not None:
        _flt.arm(previous_plan)


@pytest.fixture
def threshold_calls(monkeypatch):
    """A function counting the ``thresholds`` calls made while it runs its
    argument: ``(full matrices, single columns)``."""
    original = selection.thresholds
    counts = {"matrix": 0, "column": 0}

    def spy(working_columns, *args):
        counts["matrix" if working_columns.ndim == 2 else "column"] += 1
        return original(working_columns, *args)

    for module in (selection, collection_module, planar_module):
        monkeypatch.setattr(module, "thresholds", spy)

    def calls(run) -> tuple[int, int]:
        before = dict(counts)
        run()
        return counts["matrix"] - before["matrix"], counts["column"] - before["column"]

    return calls


def _points(rng, n):
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(1, DIM))
    return rng.uniform(-10.0, 10.0, size=(n, DIM)) * scales, scales


@pytest.fixture(params=[1, 2], ids=["monolithic", "2-shard"])
def engine(request):
    points, _ = _points(np.random.default_rng(5), 1500)
    if request.param == 1:
        yield FunctionIndex(points, MODEL, n_indices=6, rng=0)
    else:
        with ShardedFunctionIndex(points, MODEL, n_indices=6, rng=0, n_shards=2) as sharded:
            yield sharded


def _collections(engine):
    return getattr(engine, "collections", None) or (engine.collection,)


def test_every_query_kind_computes_thresholds_once_per_working_query(engine, threshold_calls):
    # One matrix per planned working query, however many shards; a range
    # query's low bound is ranked by each shard's chosen index alone.
    shards = len(_collections(engine))
    normal, offset = np.array([1.0, 2.0, 0.5, 3.0]), 40.0
    normals = np.vstack([normal, normal[::-1], 2.0 * normal])
    offsets = np.array([offset, 10.0, -5.0])
    assert threshold_calls(lambda: engine.query(normal, offset)) == (1, 0)
    assert threshold_calls(lambda: engine.topk(normal, offset, 5)) == (1, 0)
    assert threshold_calls(lambda: engine.query_range(normal, -offset, offset)) == (1, shards)
    assert threshold_calls(lambda: engine.query_batch(normals, offsets)) == (3, 0)
    assert threshold_calls(lambda: engine.topk_batch(normals, offsets, 5)) == (3, 0)


def test_constraints_and_explain_compute_thresholds_once_per_working_query(threshold_calls):
    points, _ = _points(np.random.default_rng(6), 1500)
    index = FunctionIndex(points, MODEL, n_indices=6, rng=0)
    constraints = [(np.array([1.0, 2.0, 0.5, 3.0]), 40.0), (np.ones(DIM), -20.0, ">=")]
    assert threshold_calls(lambda: index.query_conjunction(constraints)) == (2, 0)
    assert threshold_calls(lambda: index.query_disjunction(constraints)) == (2, 0)
    normal, offset = constraints[0]
    assert threshold_calls(lambda: index.explain_report(normal, offset)) == (1, 0)
    query = ScalarProductQuery(normal, offset)
    assert threshold_calls(lambda: index.collection.explain(query)) == (1, 0)


@pytest.mark.parametrize("strategy", [s.value for s in SelectionStrategy])
def test_plan_ranks_equal_each_index_standalone_ranks(strategy):
    rng = np.random.default_rng(11)
    points, scales = _points(rng, 3000)
    index = FunctionIndex(points, MODEL, n_indices=8, strategy=strategy, rng=3)
    collection = index.collection
    delta = index.translator.delta
    index.update_points([3, 9], rng.uniform(-10.0, 10.0, size=(2, DIM)) * scales)
    index.delete_points([5, 17, 40])
    # Rows far below the data grow the translation without a merge.
    index.insert_points(-50.0 * np.abs(scales) * rng.uniform(1.0, 2.0, size=(4, DIM)))
    assert collection._log.state is not None
    assert np.any(index.translator.delta > delta)
    live = index.get_features(index.live_ids())
    for step in range(40):
        normal = MODEL.sample_normal(rng)
        offset = float(live[rng.integers(live.shape[0])] @ normal)
        op = ("<=", "<", ">=", ">")[step % 4]
        wq = collection.working_query(ScalarProductQuery(normal, offset, op))
        plan = collection.plan(wq)
        assert plan.index is collection[plan.position]
        assert (plan.r_lo, plan.r_hi) == plan.index.interval_ranks(wq)[:2]
        for position, planar in enumerate(collection):
            own = planar.interval_ranks(wq)
            probes = selection.interval_probes(plan.th.column(position), wq)
            assert planar.interval_ranks(wq, probes) == own
        report = collection.explain(ScalarProductQuery(normal, offset, op))
        for candidate in report.candidates:
            r_lo, r_hi, _ = collection[candidate.position].interval_ranks(wq)
            assert candidate.expected_ii == r_hi - r_lo
