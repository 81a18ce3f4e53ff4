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
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel, ScalarProductQuery, load_index, save_index
from repro.core.selection import key_offsets
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_log_matches_a_set_model(seed):
    """Random writes against a Python-set model of ``pending`` and ``stale``.

    Ids come unsorted, some pending already and some not; inserts draw
    fresh ids and, now and then, ids pending already.
    """
    rng = np.random.default_rng(seed)
    log = WriteLog()
    runs = set(range(60))  # ids with a live run entry
    pending: set[int] = set()
    stale: set[int] = set()
    fresh = 60
    for _ in range(40):
        kind = ("insert", "rekey", "delete")[int(rng.integers(3))]
        live = sorted(runs | pending)
        if kind == "insert":
            size = int(rng.integers(0, 6))
            new = list(range(fresh, fresh + size))
            fresh += size
            old = sorted(pending)[: int(rng.integers(0, 3))]
            ids = rng.permutation(np.array(new + old, dtype=np.int64))
            pending |= set(ids.tolist())
        elif not live:
            continue
        else:
            ids = rng.choice(live, size=int(rng.integers(1, min(8, len(live)) + 1)), replace=False)
            marked = set(ids.tolist()) - pending
            stale |= marked
            runs -= marked
            if kind == "rekey":
                pending |= set(ids.tolist())
            else:
                pending -= set(ids.tolist())
        getattr(log, kind)(ids)
        state = log.state
        if not pending and not stale:
            assert state is None
            continue
        assert state.pending.dtype == np.uint32
        assert state.pending.tolist() == sorted(pending)
        assert np.flatnonzero(state.stale).tolist() == sorted(stale)
        assert state.n_stale == len(stale)


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


def test_inserts_across_store_growth_race_queries_exactly():
    """Queries racing inserts that grow the feature store's buffers stay exact.

    Every insert that does not fit reallocates the rows, the scan copy
    and the liveness mask, and the log merges several times on the way.
    A racing query sees the index before or after each insert, so its
    answer must be the exact answer after some prefix of the inserts.
    """
    rng = np.random.default_rng(29)
    points = rng.uniform(1.0, 100.0, size=(2000, 3))
    index = FunctionIndex(points, MODEL[3], n_indices=12, rng=0)
    queries = [(rng.uniform(1.0, 5.0, 3), float(rng.uniform(100.0, 900.0))) for _ in range(6)]
    batches = [rng.uniform(1.0, 100.0, size=(60, 3)) for _ in range(80)]
    rows = np.vstack([points, *batches])
    # The exact answer after each prefix of the inserts, by answer size:
    # answers only grow, so the size names the prefix.
    allowed = []
    for a, b in queries:
        hits = np.flatnonzero(ScalarProductQuery(a, b).evaluate(rows))
        ends = [points.shape[0] + 60 * j for j in range(len(batches) + 1)]
        allowed.append({int(np.count_nonzero(hits < end)): hits[hits < end] for end in ends})
    store = index._features
    sizes = {store._rows.shape[0]}
    stop = threading.Event()
    failures: list[str] = []
    answered = [0]

    def hammer() -> None:
        while not stop.is_set():
            for (a, b), answers in zip(queries, allowed):
                got = index.query(a, b).ids
                want = answers.get(got.size)
                if want is None or not np.array_equal(got, want):
                    failures.append("a racing query matched no prefix of the inserts")
                    return
                answered[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=hammer) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for batch in batches:
            # Let every thread get a query in flight before the next insert.
            target = answered[0] + 8
            while answered[0] < target and not failures:
                time.sleep(0)
            index.insert_points(batch)
            sizes.add(store._rows.shape[0])
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(sizes) >= 4
    for (a, b), answers in zip(queries, allowed):
        assert np.array_equal(index.query(a, b).ids, answers[max(answers)])


def test_queries_never_rebind_the_selection_snapshot():
    """No query kind rebinds the selection snapshot, also after a grown translation.

    Only writers (merges and lifecycle calls) rebind it; a query that
    rebuilt it could store one over indices a racing merge has retired.
    A query only refreshes the snapshot's key-offset memo, so the
    offsets follow the grown ``delta`` all the same.
    """
    rng = np.random.default_rng(17)
    index = FunctionIndex(rng.uniform(1.0, 100.0, size=(2000, 3)), MODEL[3], n_indices=8, rng=0)
    delta = index.translator.delta
    index.insert_points(-50.0 * rng.uniform(1.0, 2.0, size=(3, 3)))
    assert np.any(index.translator.delta > delta)
    collection = index.collection
    snapshot = collection._cache
    live = index.live_ids()
    rows = index.get_features(live)
    normal, offset = rng.uniform(1.0, 5.0, 3), 400.0
    expected = live[ScalarProductQuery(normal, offset).evaluate(rows)]
    assert np.array_equal(index.query(normal, offset).ids, expected)
    index.topk(normal, offset, 5)
    index.query_range(normal, 100.0, offset)
    index.query_conjunction([(normal, offset), (normal[::-1], offset)])
    index.explain_report(normal, offset)
    collection.explain(ScalarProductQuery(normal, offset))
    assert collection._cache is snapshot
    wq = collection.working_query(ScalarProductQuery(normal, offset))
    assert np.array_equal(collection.plan(wq).th.offsets, snapshot.offsets)
    assert np.array_equal(snapshot.offsets, key_offsets(snapshot.columns, index.translator.delta))


def test_grown_translation_then_merge_racing_queries_keeps_writes_visible():
    """A merge or ``add_index`` racing the first queries after a grown translation.

    An insert far below the data grows ``delta`` and no query runs; then
    four query threads released together with the main thread race a
    merge or an ``add_index``.  Queries only read the selection snapshot,
    so none of them can leave one over the retired indices and their
    abandoned log: writes made after the race stay visible, and every
    answer before and after them is exact.
    """
    rng = np.random.default_rng(13)
    index = FunctionIndex(rng.uniform(1.0, 100.0, size=(5000, 3)), MODEL[3], n_indices=24, rng=0)
    queries = [(rng.uniform(1.0, 5.0, 3), float(rng.uniform(100.0, 900.0))) for _ in range(4)]

    def oracle() -> list[np.ndarray]:
        live = index.live_ids()
        rows = index.get_features(live)
        return [live[ScalarProductQuery(a, b).evaluate(rows)] for a, b in queries]

    def answers() -> list[np.ndarray]:
        return [index.query(a, b).ids for a, b in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cycle in range(8):
            delta = index.translator.delta
            index.insert_points(-10.0 * (cycle + 1) * rng.uniform(1.0, 2.0, size=(3, 3)))
            assert np.any(index.translator.delta > delta)
            expected = oracle()
            start = threading.Barrier(5)
            failures: list[str] = []

            def first_queries() -> None:
                start.wait()
                for got, want in zip(answers(), expected):
                    if not np.array_equal(got, want):
                        failures.append(f"cycle {cycle}: racing query diverged")

            threads = [threading.Thread(target=first_queries) for _ in range(4)]
            for thread in threads:
                thread.start()
            start.wait()
            if cycle % 2:
                index.add_index(MODEL[3].sample_normal(100 + cycle))
            else:
                index.merge_writes()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            live = index.live_ids()
            index.insert_points(rng.uniform(1.0, 100.0, size=(5, 3)))
            index.update_points(live[:5], rng.uniform(1.0, 100.0, size=(5, 3)))
            index.delete_points(live[5:10])
            assert index.collection._log.state is not None
            for got, want in zip(answers(), oracle()):
                assert np.array_equal(got, want), f"cycle {cycle}: writes after the race lost"
    finally:
        sys.setswitchinterval(interval)
