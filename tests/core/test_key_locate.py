"""Maintenance finds a point's index entries by its id (Section 4.4).

A collection records writes in one write log and merges them into every
index in one pass: stale entries are dropped by an id mask, whatever key
they were filed under, and pending points are keyed once by one matrix
product.  These tests churn indices over data whose keys cancel, repeat,
saturate or underflow, and over reloaded stores, then check that the runs
plus the pending ids cover the live set before a merge and that every
index equals a fresh rebuild after one; they plant stored keys computed in
another summation order; and they check that a bad batch changes nothing
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel, load_index, save_index
from repro.exceptions import DimensionMismatchError
from repro.core import exact
from repro.core.feature_store import FeatureStore
from repro.core.collection import PlanarIndexCollection
from repro.core.sorted_keys import ID_DTYPE, as_keys
from repro.geometry.translation import Translator
from repro.parallel.engine import ShardedFunctionIndex

from .test_persistence import _rewrite_as_v3

MODEL = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)


def _cancelling(rng, n):
    """Rows ``(u, -u (1 + eps), t)``: keys under ``(c, c, x)`` normals cancel."""
    u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(3.0, 12.0, n)
    near = -u * (1.0 + 1e-9 * rng.normal(size=n))
    return np.column_stack([u, near, rng.normal(0.0, 10.0, n)])


def _duplicated(rng, n):
    """Integer rows from 27 values: long runs of equal keys, all exact."""
    return rng.integers(1, 4, size=(n, 3)).astype(np.float64)


def _extreme(rng, n):
    """Keys beyond the float32 range or below its smallest subnormal."""
    huge = rng.random(n) < 0.5
    exponents = np.where(huge, rng.uniform(39.0, 60.0, n), rng.uniform(-60.0, -46.0, n))
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    return signs * 10.0 ** exponents[:, None] * rng.uniform(1.0, 2.0, size=(n, 3))


CANCELLING_NORMALS = np.array([[1.1, 1.1, 1.0], [1.3, 1.3, 2.7], [2.2, 2.2, 0.9], [1.7, 1.7, 4.1]])
INTEGER_NORMALS = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 1.0]])

DATASETS = {
    "cancelling": (_cancelling, CANCELLING_NORMALS, False),
    "duplicated": (_duplicated, INTEGER_NORMALS, True),
    "extreme": (_extreme, None, False),
}


def _build(kind, rng, n=600):
    rows, normals, exact_keys = DATASETS[kind]
    index = FunctionIndex(rows(rng, n), MODEL, n_indices=6, normals=normals, rng=0)
    return index, (lambda m: rows(rng, m)), exact_keys


def _churn(index, rng, new_rows, steps=24):
    """Random inserts, updates (some to unchanged rows) and deletes."""
    for step in range(steps):
        live = index.live_ids()
        size = int(rng.integers(1, max(2, live.size // 4)))
        kind = ("insert", "update", "delete")[int(rng.integers(3))]
        if kind == "insert":
            index.insert_points(new_rows(size))
        elif kind == "update":
            ids = rng.choice(live, size=size, replace=False)
            rows = new_rows(size)
            if step % 4 == 0:
                rows = index.get_points(ids)
            index.update_points(ids, rows)
        elif live.size > size:
            index.delete_points(rng.choice(live, size=size, replace=False))


def _window(rows, normal):
    """float64 ``(low, high)`` holding any float64 evaluation of each row's key.

    Two evaluations in different summation orders each lie within
    ``E = error_bound(sum_i |c_i phi_i|, d)`` of the exact key, so within
    ``2E`` of each other; one ulp outward covers rounding ``k -+ 2E``.
    """
    keys = rows @ normal
    width = 2.0 * exact.error_bound(np.abs(rows) @ np.abs(normal), normal.size)
    with np.errstate(invalid="ignore", over="ignore"):
        low = np.nextafter(keys - width, -np.inf)
        high = np.nextafter(keys + width, np.inf)
    low[np.isnan(low)] = -np.inf
    high[np.isnan(high)] = np.inf
    return low, high


def assert_runs_cover_live(index):
    """Every run, less its stale entries, plus the pending ids holds each live id once."""
    live = index.live_ids()
    state = index.collection._log.state
    for planar in index.collection:
        keys, ids = planar._keys.sorted_keys, planar._keys.sorted_ids
        assert np.all(keys[1:] >= keys[:-1])
        if state is not None:
            ids = np.concatenate([state.live(ids), state.pending])
        assert np.array_equal(np.sort(ids.astype(np.int64)), live)


def assert_matches_rebuild(index, exact_keys):
    """Runs plus pending cover the live set; after a merge every run equals a rebuild.

    After the merge each index's ``(key, id)`` multiset equals a fresh
    rebuild's: each live id is held exactly once, in ascending key order.
    Its key equals the rebuilt one when float64 keys are exact; otherwise
    the two may come from different summation orders, and both round a
    float64 key inside the row's window.
    """
    assert_runs_cover_live(index)
    index.merge_writes()
    assert index.collection._log.state is None
    live = index.live_ids()
    rows = index.get_features(live)
    for planar in index.collection:
        keys, ids = planar._keys.sorted_keys, planar._keys.sorted_ids
        assert np.all(keys[1:] >= keys[:-1])
        order = np.argsort(ids)
        assert np.array_equal(ids[order].astype(np.int64), live)
        held = keys[order]
        fresh = as_keys(rows @ planar.normal)
        differ = held != fresh
        if exact_keys:
            assert not differ.any()
            continue
        low, high = _window(rows[differ], planar.normal)
        assert np.all(as_keys(low) <= held[differ])
        assert np.all(held[differ] <= as_keys(high))
        assert np.all(as_keys(low) <= fresh[differ])
        assert np.all(fresh[differ] <= as_keys(high))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", sorted(DATASETS))
def test_churn_matches_rebuild(kind, seed):
    rng = np.random.default_rng(seed)
    index, new_rows, exact_keys = _build(kind, rng)
    _churn(index, rng, new_rows)
    assert_matches_rebuild(index, exact_keys)


@pytest.mark.parametrize("layout", ["v4", "v3"])
def test_churn_after_reload_matches_rebuild(layout, tmp_path):
    rng = np.random.default_rng(11)
    index, new_rows, _ = _build("cancelling", rng)
    _churn(index, rng, new_rows, steps=6)
    path = save_index(index, tmp_path / "idx")
    if layout == "v3":
        _rewrite_as_v3(path)
    loaded = load_index(path, mode="copy")
    _churn(loaded, rng, new_rows)
    assert_matches_rebuild(loaded, False)


def _orders(row):
    """Three float64 evaluations of ``<(1, 1, 1), row>`` in different orders."""
    a, b, t = (float(value) for value in row)
    return ((a + b) + t, a + (b + t), (a + t) + b)


def test_planted_keys_from_another_summation_order():
    """Stored keys at float32 rounding boundaries, summed in another order.

    Row ``(M, -M, t)`` with ``t`` just above the midpoint between two
    float32 values: one order gives ``t``, another rounds ``t`` to the
    coarser grid of ``M`` first, and the two keys round to different
    float32 values.  The index stores one, a recomputation gives the
    other; maintenance drops the entry by its id all the same.
    """
    rng = np.random.default_rng(5)
    normal = np.ones(3)
    planted = []
    for scale in (2.0**31, 2.0**33, 2.0**40):
        for _ in range(40):
            grid = np.float32(rng.uniform(1.0, 2.0))
            grid = float(grid) - float(grid) % 2.0**-22
            t = (grid + 2.0**-24) * (1.0 + 2.0**-45)
            planted.append((scale, -scale, t) if rng.random() < 0.5 else (t, scale, -scale))
    filler = rng.uniform(-50.0, 50.0, size=(200, 3))
    features = np.vstack([np.array(planted), filler])
    recomputed = features @ normal
    stored = recomputed.copy()
    for position, row in enumerate(planted):
        exact_key = sum(Fraction(value) for value in row)
        bound = exact.error_bound(float(np.abs(row).sum()), 3)
        alternatives = [k for k in _orders(row) if as_keys(k) != as_keys(recomputed[position])]
        assert alternatives, "every planted row straddles a float32 boundary"
        stored[position] = alternatives[0]
        assert abs(Fraction(stored[position]) - exact_key) <= Fraction(bound)

    store = FeatureStore(features)
    translator = Translator(np.ones(3))
    translator.observe(features)
    ids = np.arange(features.shape[0], dtype=ID_DTYPE)
    order = np.lexsort((ids, as_keys(stored)))  # the persisted (key, id) order
    collection = PlanarIndexCollection._from_prebuilt(
        store, translator, [(normal, ids[order], stored[order])], "counted"
    )
    index = collection[0]
    held = dict(zip(index._keys.sorted_ids.tolist(), index._keys.sorted_keys.tolist()))
    assert all(held[i] != as_keys(recomputed[i]) for i in range(len(planted)))

    doomed = np.arange(0, len(planted), 2, dtype=np.int64)
    collection.delete(doomed)
    store.delete(doomed)
    moved = np.arange(1, len(planted), 2, dtype=np.int64)
    new_rows = rng.uniform(-50.0, 50.0, size=(moved.size, 3))
    store.update(moved, new_rows)
    collection.rekey(moved)
    collection.merge()

    index = collection[0]
    live, rows = store.get_all()
    order = np.argsort(index._keys.sorted_ids)
    assert np.array_equal(index._keys.sorted_ids[order], live)
    assert np.array_equal(
        index._keys.sorted_keys[order][: moved.size], as_keys(normal @ new_rows.T)
    )


# --------------------------------------------------------------------- #
# A bad batch changes nothing
# --------------------------------------------------------------------- #


def _engine(n_shards, points):
    if n_shards == 1:
        return FunctionIndex(points, MODEL, n_indices=4, rng=0)
    return ShardedFunctionIndex(points, MODEL, n_indices=4, rng=0, n_shards=n_shards)


def _collections(engine):
    return getattr(engine, "collections", None) or (engine.collection,)


def _snapshot(engine):
    return [
        (planar._keys.sorted_keys.copy(), planar._keys.sorted_ids.copy())
        for collection in _collections(engine)
        for planar in collection
    ]


def _assert_unchanged(engine, before, points):
    after = _snapshot(engine)
    assert len(after) == len(before)
    for (keys, ids), (old_keys, old_ids) in zip(after, before):
        assert np.array_equal(keys, old_keys) and np.array_equal(ids, old_ids)
    live = engine.live_ids()
    assert np.array_equal(engine.get_points(live), points[live])
    everything = engine.query(np.ones(3), 1e9)
    assert np.array_equal(everything.ids, live)


@pytest.fixture(params=[1, 2], ids=["monolithic", "2-shard"])
def engine_case(request):
    points = np.random.default_rng(3).uniform(1.0, 100.0, size=(2000, 3))
    engine = _engine(request.param, points)
    engine.delete_points([7])
    yield engine, points
    if request.param > 1:
        engine.close()


@pytest.mark.parametrize(
    "bad_ids",
    [[0, 1, 2, 3, 5001], [0, 1, 2, 7], [-1, 4]],
    ids=["unknown", "dead", "negative"],
)
def test_bad_ids_raise_and_leave_every_index_unchanged(engine_case, bad_ids):
    engine, points = engine_case
    before = _snapshot(engine)
    delta = engine.translator.delta.copy()
    with pytest.raises(KeyError):
        engine.delete_points(bad_ids)
    _assert_unchanged(engine, before, points)
    with pytest.raises(KeyError):
        engine.update_points(bad_ids, np.full((len(bad_ids), 3), -500.0))
    _assert_unchanged(engine, before, points)
    assert np.array_equal(engine.translator.delta, delta)


def test_repeated_ids_raise_and_leave_every_index_unchanged(engine_case):
    """Duplicates, some owned by a later shard, are refused up front."""
    engine, points = engine_case
    before = _snapshot(engine)
    with pytest.raises(ValueError, match="unique"):
        engine.delete_points([0, 2, 1, 3, 1])
    _assert_unchanged(engine, before, points)


def test_update_with_repeated_id_changes_nothing(engine_case):
    """A repeated id is refused before any store, the translator or an index changes."""
    engine, points = engine_case
    before = _snapshot(engine)
    delta = engine.translator.delta.copy()
    with pytest.raises(ValueError, match="unique"):
        engine.update_points([4, 4], np.array([[2.0, 2.0, 2.0], [-50.0, 2.0, 2.0]]))
    _assert_unchanged(engine, before, points)
    assert np.array_equal(engine.translator.delta, delta)
    # The index agrees with the stored points, whatever they now hold.
    live = engine.live_ids()
    small = engine.query(np.ones(3), 10.0)
    assert np.array_equal(small.ids, live[engine.get_points(live).sum(axis=1) <= 10.0])


def test_update_with_too_few_rows_changes_nothing(engine_case):
    """Rows that do not match the ids are refused before the translator grows."""
    engine, points = engine_case
    before = _snapshot(engine)
    delta = engine.translator.delta.copy()
    live = engine.live_ids()
    features = engine.get_features(live)
    with pytest.raises(DimensionMismatchError):
        engine.update_points([0, 1, 2, 3], np.full((2, 3), -1e6))
    assert np.array_equal(engine.translator.delta, delta)
    assert np.array_equal(engine.get_features(live), features)
    _assert_unchanged(engine, before, points)
