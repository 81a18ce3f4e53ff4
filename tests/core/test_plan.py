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


def _query(rng, step, collection, live, translator):
    """``(normal, offset, op)`` of one step: an offset through a live point,
    then on every third step a near-parallel normal, an offset that makes
    ``b''`` negative, or both."""
    normal = MODEL.sample_normal(rng)
    if step % 3 == 1:
        normal = collection[step % len(collection)].normal * rng.uniform(1.0, 1.0 + 1e-12, DIM)
    offset = float(live[rng.integers(live.shape[0])] @ normal)
    if step % 3 == 2:
        # b'' = b + <a'', delta> < 0: the hyperplane misses the octant.
        offset = -1.5 * float(np.abs(normal) @ translator.delta) - abs(offset)
    return normal, offset, ("<=", "<", ">=", ">")[step % 4]


@pytest.mark.parametrize("strategy", [s.value for s in SelectionStrategy])
def test_plan_ranks_equal_each_index_standalone_ranks(strategy):
    # Data over six decades per column, then scaled so the largest |x| is
    # 2e38, where the largest keys saturate float32.
    for peak in (None, 2e38):
        _check_plans(strategy, peak)


def _check_plans(strategy, peak):
    rng = np.random.default_rng(11)
    points, scales = _points(rng, 3000)
    if peak is not None:
        factor = peak / np.abs(points).max()
        points, scales = points * factor, scales * factor
    index = FunctionIndex(points, MODEL, n_indices=8, strategy=strategy, rng=3)
    collection = index.collection
    translator = index.translator
    delta = translator.delta
    index.update_points([3, 9], rng.uniform(-10.0, 10.0, size=(2, DIM)) * scales)
    index.delete_points([5, 17, 40])
    # Rows far below the data grow the translation without a merge.
    index.insert_points(-50.0 * np.abs(scales) * rng.uniform(1.0, 2.0, size=(4, DIM)))
    assert collection._log.state is not None
    assert np.any(translator.delta > delta)
    for step in range(45):
        if step % 15 == 14:
            # A write mid-stream grows delta again; the next query must
            # rank with the new key offsets.
            delta = translator.delta
            index.insert_points(-(4.0 + step) * 50.0 * np.abs(scales))
            assert np.all(translator.delta > delta)
        live_ids = index.live_ids()
        live = index.get_features(live_ids)
        normal, offset, op = _query(rng, step, collection, live, translator)
        spq = ScalarProductQuery(normal, offset, op)
        wq = collection.working_query(spq)
        choice = collection.wave_choices([wq], [collection.snapshot])[0][0]
        plan = collection.plan(wq, choice)
        position = plan.position
        assert plan.index is collection[position]
        assert np.array_equal(
            plan.th.offsets, selection.key_offsets(collection.snapshot.columns, translator.delta)
        )
        # The chooser's column equals EXPLAIN's all-candidate matrix there.
        probe_lo, probe_hi = selection.interval_probes(plan.th, wq)
        assert np.array(choice.probes).tobytes() == np.array(
            [probe_lo[position], probe_hi[position]]
        ).tobytes()
        r_lo, r_hi = plan.index.probe_ranks(probe_lo[position], probe_hi[position])
        assert (plan.r_lo, plan.r_hi) == (r_lo, r_hi)
        state = plan.index._log.state
        verify = r_hi - r_lo + (0 if state is None else state.pending.size)
        fraction = collection_module._SCAN_FALLBACK_FRACTION
        assert plan.route == ("intervals" if verify <= fraction * plan.n else "scan")
        assert (plan.r_lo, plan.r_hi) == plan.index.interval_ranks(wq)[:2]
        for position, planar in enumerate(collection):
            own = planar.interval_ranks(wq)
            probes = selection.interval_probes(plan.th, wq, position)
            assert planar.interval_ranks(wq, probes) == own
        report = collection.explain(spq)
        if strategy != "random":
            assert (report.chosen_index, report.route) == (plan.position, plan.route)
        for candidate in report.candidates:
            r_lo, r_hi, _ = collection[candidate.position].interval_ranks(wq)
            assert candidate.expected_ii == r_hi - r_lo
        expected = live_ids[spq.evaluate(live)]
        assert np.array_equal(index.query(normal, offset, op).ids, expected)
