"""Deferred index maintenance: one write log per collection (Section 4.4).

A collection records each write once, as pending ids and a stale mask,
and merges the log into every index in one pass once it passes
:func:`~repro.core.write_log.merge_threshold`.  These tests drive
real-valued data (six decades per column, offsets on or a few ulps off a
live point's value) across that threshold and check every answer against
``Fraction`` arithmetic on the stored rows: ``query`` with its interval
sizes, top-k, ``query_range`` and both constraint combinations, on a
:class:`FunctionIndex`, a 2-shard engine, and an index saved and loaded
with writes pending.  Unit tests pin the log's bookkeeping.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ScalarProductQuery, load_index, save_index
from repro.core.write_log import MERGE_ENTRY_COST, WriteLog, merge_threshold
from repro.parallel.engine import ShardedFunctionIndex

from .test_batch_property import _Rational

_OPS = ("<=", "<", ">=", ">")


class _Mirror:
    """The live rows, replayed from the writes, and exact answers over them."""

    def __init__(self, points: np.ndarray) -> None:
        self.rows = {i: row for i, row in enumerate(points)}

    def apply(self, kind: str, ids: np.ndarray, rows: np.ndarray | None) -> None:
        for position, point_id in enumerate(np.asarray(ids).tolist()):
            if kind == "delete":
                del self.rows[point_id]
            else:
                self.rows[point_id] = rows[position]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.array(sorted(self.rows), dtype=np.int64)
        return ids, np.vstack([self.rows[i] for i in ids.tolist()])


def _points(rng, n, dim):
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(1, dim))
    return rng.uniform(0.0, 10.0, size=(n, dim)) * scales, scales


def _write(engine, mirror, rng, scales):
    """One random insert, update or delete of 1..24 points."""
    live = np.array(sorted(mirror.rows), dtype=np.int64)
    size = int(rng.integers(1, 25))
    kind = ("insert", "update", "delete")[int(rng.integers(3))]
    rows = rng.uniform(0.0, 10.0, size=(size, scales.shape[1])) * scales
    if kind == "insert":
        ids = engine.insert_points(rows)
    elif kind == "update":
        ids = np.sort(rng.choice(live, size=min(size, live.size), replace=False))
        rows = rows[: ids.size]
        engine.update_points(ids, rows)
    else:
        ids = np.sort(rng.choice(live, size=min(size, live.size // 3), replace=False))
        engine.delete_points(ids)
    mirror.apply(kind, ids, rows)


def _queries(rng, live_rows, dim, ulps):
    """``(normal, offset)`` pairs with offsets on or a few ulps off a live point."""
    for step in ulps:
        normal = rng.uniform(1.0, 5.0, size=dim)
        offset = float(live_rows[int(rng.integers(live_rows.shape[0]))] @ normal)
        toward = np.inf if step > 0 else -np.inf
        for _ in range(abs(step)):
            offset = float(np.nextafter(offset, toward))
        yield normal, offset


def _check(engine, mirror, rng, ulps):
    ids, rows = mirror.arrays()
    rational = _Rational(rows)
    dim = rows.shape[1]
    for normal, offset in _queries(rng, rows, dim, ulps):
        op = _OPS[int(rng.integers(4))]
        answer = engine.query(normal, offset, op)
        assert np.array_equal(answer.ids, ids[rational.query(normal, offset, op)])
        stats = answer.stats
        assert stats.si_size + stats.ii_size + stats.li_size == stats.n_total == ids.size
        top = engine.topk(normal, offset, 4, op)
        assert np.array_equal(top.ids, ids[rational.topk_ids(normal, offset, 4, op)])
        low, high = sorted((offset, float(rows[0] @ normal)))
        assert np.array_equal(
            engine.query_range(normal, low, high).ids,
            ids[rational.query_range(normal, low, high)],
        )


def _check_constraints(index, mirror, rng):
    ids, rows = mirror.arrays()
    rational = _Rational(rows)
    (a, b), (c, d) = _queries(rng, rows, rows.shape[1], [0, 1])
    both = np.intersect1d(rational.query(a, b, "<="), rational.query(c, d, ">="))
    either = np.union1d(rational.query(a, b, "<="), rational.query(c, d, ">="))
    conjunction = index.query_conjunction([(a, b, "<="), (c, d, ">=")])
    disjunction = index.query_disjunction([(a, b, "<="), (c, d, ">=")])
    assert np.array_equal(conjunction.ids, ids[both])
    assert np.array_equal(disjunction.ids, ids[either])
    for stats in conjunction.per_constraint:
        assert stats.si_size + stats.ii_size + stats.li_size == stats.n_total == ids.size


def _logs(engine):
    collections = getattr(engine, "collections", None) or (engine.collection,)
    return [collection._log for collection in collections]


MODEL = {dim: QueryModel.uniform(dim=dim, low=1.0, high=5.0) for dim in (2, 3, 4)}


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dim=st.sampled_from([2, 3, 4]),
    ulps=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
)
def test_function_index_across_the_threshold(seed, dim, ulps):
    rng = np.random.default_rng(seed)
    points, scales = _points(rng, 240, dim)
    index = FunctionIndex(points, MODEL[dim], n_indices=5, rng=seed)
    mirror = _Mirror(points)
    for _ in range(10):
        _write(index, mirror, rng, scales)
        _check(index, mirror, rng, ulps)
        _check_constraints(index, mirror, rng)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16), ulps=st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_two_shards_across_the_threshold(seed, ulps):
    rng = np.random.default_rng(seed)
    points, scales = _points(rng, 240, 3)
    engine = ShardedFunctionIndex(points, MODEL[3], n_indices=5, rng=seed, n_shards=2)
    try:
        mirror = _Mirror(points)
        for _ in range(8):
            _write(engine, mirror, rng, scales)
            _check(engine, mirror, rng, ulps)
        engine.merge_writes()
        assert all(log.state is None for log in _logs(engine))
        _check(engine, mirror, rng, ulps)
    finally:
        engine.close()


@pytest.mark.parametrize("mode", ["copy", "mmap"])
def test_save_with_writes_pending_then_load(mode, tmp_path):
    rng = np.random.default_rng(4)
    points, scales = _points(rng, 300, 3)
    index = FunctionIndex(points, MODEL[3], n_indices=5, rng=1)
    mirror = _Mirror(points)
    while index.collection._log.state is None:
        _write(index, mirror, rng, scales)
    path = save_index(index, tmp_path / "idx")
    # Saving merged the log first; the answers are the same either way.
    assert index.collection._log.state is None
    loaded = load_index(path, mode=mode)
    # The saved format compacts ids to live positions.
    compact = _Mirror(np.vstack([mirror.rows[i] for i in sorted(mirror.rows)]))
    _check(loaded, compact, rng, [0, -1, 2])
    _check_constraints(loaded, compact, rng)
    if mode == "copy":
        for _ in range(6):
            _write(loaded, compact, rng, scales)
            _check(loaded, compact, rng, [0, 1])


def test_pending_rows_are_decided_from_the_store():
    """A moved point answers by its new row before any merge."""
    points = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]] * 50)
    index = FunctionIndex(points, MODEL[2], n_indices=3, rng=0)
    index.update_points([0], [[100.0, 100.0]])
    index.delete_points([1])
    (new_id,) = index.insert_points([[0.5, 0.5]])
    state = index.collection._log.state
    assert state is not None and state.pending.tolist() == [0, new_id]
    assert state.n_stale == 2
    small = index.query(np.ones(2), 2.5)
    expected = list(range(4, 200, 4)) + [new_id]
    assert small.ids.tolist() == sorted(expected)
    assert index.topk(np.ones(2), 500.0, 1).ids.tolist() == [0]


def test_merge_is_due_past_the_threshold():
    rng = np.random.default_rng(0)
    points = rng.uniform(1.0, 100.0, size=(400, 3))
    index = FunctionIndex(points, MODEL[3], n_indices=4, rng=0)
    collection = index.collection
    threshold = merge_threshold(400, len(collection))
    assert threshold == int(np.sqrt(2 * MERGE_ENTRY_COST * len(collection) * 400))
    index.insert_points(rng.uniform(1.0, 100.0, size=(threshold, 3)))
    assert collection._log.state.size == threshold
    sketch = collection._cache
    index.delete_points([0])
    # Past the threshold every index merged and selection was refreshed.
    assert collection._log.state is None and collection._cache is not sketch
    assert all(len(planar) == 400 + threshold - 1 for planar in collection)


def test_log_bookkeeping():
    log = WriteLog()
    log.insert(np.array([10, 11]))
    log.rekey(np.array([3, 10]))
    log.delete(np.array([4, 11]))
    state = log.state
    # 10 and 11 were inserted since the merge: no run entries to mark.
    assert state.pending.tolist() == [3, 10]
    assert np.flatnonzero(state.stale).tolist() == [3, 4]
    assert state.n_stale == 2 and state.size == 4
    assert state.live(np.array([1, 3, 4, 5, 99], dtype=np.uint32)).tolist() == [1, 5, 99]
    assert state.count(np.array([3, 4, 7], dtype=np.uint32)) == 1
    assert state.n_live(20) == 20 - 2 + 2
    log.rekey(np.array([3]))
    assert log.state.n_stale == 2 and log.state.pending.tolist() == [3, 10]
    # Nothing written, or everything written undone before a merge: empty.
    log = WriteLog()
    log.insert(np.array([], dtype=np.int64))
    assert log.state is None and log.memory_bytes() == 0
    log.insert(np.array([30, 31]))
    log.delete(np.array([30, 31]))
    assert log.state is None


def test_collection_counts_the_log_in_memory():
    rng = np.random.default_rng(1)
    points = rng.uniform(1.0, 100.0, size=(2000, 3))
    index = FunctionIndex(points, MODEL[3], n_indices=4, rng=0)
    before = index.collection.memory_bytes()
    index.delete_points(np.arange(1500, 1510))
    state = index.collection._log.state
    assert index.collection.memory_bytes() == before + state.stale.nbytes + state.pending.nbytes
    assert state.stale.nbytes == 1511 and state.n_stale == 10


def test_merges_race_queries_exactly():
    """Queries racing a merge, or an ``add_index`` that merges first, stay exact.

    A merge rebinds copies of every index over a fresh log, so a query
    holding the previous generation reads runs and a log that match.
    Four threads (more than the cores) query with a short switch
    interval while the main thread merges a log holding inserts,
    updates and deletes.
    """
    rng = np.random.default_rng(7)
    index = FunctionIndex(rng.uniform(1.0, 100.0, size=(20000, 3)), MODEL[3], n_indices=24, rng=0)
    queries = [(rng.uniform(1.0, 5.0, 3), float(rng.uniform(100.0, 900.0))) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cycle in range(6):
            index.insert_points(rng.uniform(1.0, 100.0, size=(60, 3)))
            live = index.live_ids()
            moved = np.sort(rng.choice(live, 60, replace=False))
            index.update_points(moved, rng.uniform(1.0, 100.0, size=(60, 3)))
            index.delete_points(np.sort(rng.choice(np.setdiff1d(live, moved), 60, replace=False)))
            assert index.collection._log.state is not None
            live = index.live_ids()
            rows = index.get_features(live)
            oracle = [live[ScalarProductQuery(a, b).evaluate(rows)] for a, b in queries]
            stop = threading.Event()
            failures: list[str] = []

            def hammer() -> None:
                while not stop.is_set():
                    for (a, b), expected in zip(queries, oracle):
                        if not np.array_equal(index.query(a, b).ids, expected):
                            failures.append(f"cycle {cycle}: query diverged")
                            return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                if cycle % 2:
                    index.add_index(MODEL[3].sample_normal(cycle))
                else:
                    index.merge_writes()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert index.collection._log.state is None
    finally:
        sys.setswitchinterval(interval)
