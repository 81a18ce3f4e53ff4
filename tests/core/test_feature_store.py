"""Tests for the shared feature store."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FeatureStore, FunctionIndex, QueryModel, load_index, save_index
from repro.core.feature_store import GROWTH
from repro.exceptions import DimensionMismatchError


@pytest.fixture
def store() -> FeatureStore:
    return FeatureStore(np.arange(12.0).reshape(4, 3))


class TestBasics:
    def test_shape_and_len(self, store):
        assert len(store) == 4
        assert store.dim == 3
        assert store.capacity == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureStore(np.empty((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FeatureStore(np.array([[1.0, np.inf]]))

    def test_initial_data_copied(self):
        data = np.ones((2, 2))
        store = FeatureStore(data)
        data[0, 0] = 99.0
        assert store.get(np.array([0]))[0, 0] == 1.0

    def test_get_returns_rows(self, store):
        rows = store.get(np.array([2, 0]))
        assert np.array_equal(rows, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_get_all(self, store):
        ids, rows = store.get_all()
        assert np.array_equal(ids, [0, 1, 2, 3])
        assert rows.shape == (4, 3)

    def test_out_of_range_id(self, store):
        with pytest.raises(KeyError):
            store.get(np.array([99]))


class TestMutation:
    def test_update(self, store):
        store.update(np.array([1]), np.array([[9.0, 9.0, 9.0]]))
        assert np.array_equal(store.get(np.array([1]))[0], [9.0, 9.0, 9.0])

    def test_update_shape_checked(self, store):
        with pytest.raises(DimensionMismatchError):
            store.update(np.array([1]), np.array([[9.0, 9.0]]))

    def test_update_nonfinite_rejected(self, store):
        with pytest.raises(ValueError):
            store.update(np.array([1]), np.array([[np.nan, 1.0, 1.0]]))

    def test_append_assigns_fresh_ids(self, store):
        new_ids = store.append(np.ones((2, 3)))
        assert np.array_equal(new_ids, [4, 5])
        assert len(store) == 6

    def test_append_empty(self, store):
        assert store.append(np.empty((0, 3))).size == 0

    def test_append_wrong_dim(self, store):
        with pytest.raises(DimensionMismatchError):
            store.append(np.ones((1, 2)))

    def test_delete_makes_id_dead(self, store):
        store.delete(np.array([1]))
        assert len(store) == 3
        assert not store.is_live(1)
        with pytest.raises(KeyError):
            store.get(np.array([1]))

    def test_deleted_ids_not_reused(self, store):
        store.delete(np.array([3]))
        new_ids = store.append(np.zeros((1, 3)))
        assert new_ids[0] == 4

    def test_double_delete_rejected(self, store):
        store.delete(np.array([0]))
        with pytest.raises(KeyError):
            store.delete(np.array([0]))

    def test_duplicate_delete_batch_rejected(self, store):
        with pytest.raises(ValueError):
            store.delete(np.array([0, 0]))

    def test_live_ids_after_churn(self, store):
        store.delete(np.array([0, 2]))
        store.append(np.ones((1, 3)))
        assert np.array_equal(store.live_ids(), [1, 3, 4])

    def test_memory_bytes_positive(self, store):
        assert store.memory_bytes() >= 4 * 3 * 8

class TestLiveIdsInvariant:
    def test_live_ids_survive_churn(self):
        """Pin the ids==positions invariant under heavy interleaved churn.

        ``live_ids`` derives ids from ``nonzero(_live)`` positions; that
        is only correct because rows are never compacted and dead ids are
        never reused.  This regression drives many delete/append rounds
        and cross-checks against an explicitly tracked id set, and that
        every surviving id still fetches the row it was assigned.
        """
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(8, 3))
        store = FeatureStore(rows)
        expected = {i: rows[i].copy() for i in range(8)}
        for round_no in range(25):
            live = sorted(expected)
            if len(live) > 2:
                victims = rng.choice(live, size=rng.integers(1, 3), replace=False)
                store.delete(np.asarray(sorted(victims), dtype=np.int64))
                for victim in victims:
                    del expected[int(victim)]
            fresh = rng.normal(size=(int(rng.integers(1, 4)), 3))
            new_ids = store.append(fresh)
            for offset, new_id in enumerate(new_ids):
                expected[int(new_id)] = fresh[offset].copy()
            assert np.array_equal(store.live_ids(), sorted(expected))
            got = store.get(np.asarray(sorted(expected), dtype=np.int64))
            assert np.array_equal(got, np.vstack([expected[i] for i in sorted(expected)]))
        # Scan paths must agree with the surviving id set too: the float32
        # scan covers every row by position and drops dead ones on demand.
        ids, values, bound = store.scan_values(np.array([1.0, 2.0, 3.0]))
        assert ids is None and values.size == store.capacity
        everything = np.arange(store.capacity)
        assert np.array_equal(store.live_only(everything), sorted(expected))
        ids_many, values_many = store.scan_values_many(
            np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        )
        assert np.array_equal(ids_many, sorted(expected))
        assert np.all(np.abs(values_many[:, 0] - values[ids_many]) <= bound)


class TestScanValuesMany:
    def test_columns_match_single_scans(self, store):
        normals = np.array([[1.0, 0.0, 0.0], [0.5, 2.0, -1.0], [3.0, 3.0, 3.0]])
        ids_many, values_many = store.scan_values_many(normals)
        assert values_many.shape == (len(store), 3)
        for column, normal in enumerate(normals):
            ids_one, values_one, _ = store.scan_values(normal)
            assert np.array_equal(ids_many, ids_one)
            assert np.array_equal(values_many[:, column], values_one)

    def test_columns_match_after_deletes(self, store):
        store.delete(np.array([1]))
        normals = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
        ids_many, values_many = store.scan_values_many(normals)
        assert np.array_equal(ids_many, [0, 2, 3])
        for column, normal in enumerate(normals):
            _, values_one, _ = store.scan_values(normal)
            assert np.array_equal(values_many[:, column], values_one[ids_many])


def _same_as_fresh(store: FeatureStore, rows: np.ndarray, dead: set[int]) -> None:
    """Every read of ``store`` is bit-identical to a store built from ``rows`` once."""
    fresh = FeatureStore(rows)
    if dead:
        fresh.delete(np.array(sorted(dead)))
    assert store.capacity == fresh.capacity
    assert np.array_equal(store.live_ids(), fresh.live_ids())
    for got, want in zip(store.get_all(), fresh.get_all()):
        assert np.array_equal(got, want)
    ids = np.ascontiguousarray(fresh.live_ids()[::-1], dtype=np.uint32)
    assert np.array_equal(store.take_rows(ids), fresh.take_rows(ids))
    for normal in (np.array([1.0, 2.0, 3.0]), np.array([-0.5, 4.0, 1e-3])):
        got, want = store.scan_values(normal), fresh.scan_values(normal)
        assert got[0] is None and np.array_equal(got[1], want[1]) and got[2] == want[2]


class TestGrowth:
    """Appends across several buffer growths, against a store built fresh.

    Row 0 holds every column's largest magnitude and is never written
    again, so the scan copy's magnitudes (a running maximum under
    updates) match a fresh store's and ``E32`` can be compared exactly.
    """

    @pytest.mark.parametrize("scan_at", ["start", "between", "end"])
    def test_matches_a_fresh_store(self, scan_at):
        rng = np.random.default_rng(23)
        scales = np.array([1e-3, 1.0, 1e3])
        rows = rng.uniform(1.0, 10.0, size=(8, 3)) * scales
        rows[0] = 10.0 * scales
        store = FeatureStore(rows)
        dead: set[int] = set()
        sizes = [store._rows.shape[0]]
        if scan_at == "start":
            store.scan_values(np.ones(3))
        for _ in range(40):
            fresh = rng.uniform(1.0, 10.0, size=(int(rng.integers(1, 6)), 3)) * scales
            data, fits = store._data, store.capacity + fresh.shape[0] <= sizes[-1]
            columns = None if store._scan is None else store._scan[0]
            new_ids = store.append(fresh)
            rows = np.vstack([rows, fresh])
            assert np.array_equal(new_ids, np.arange(rows.shape[0] - fresh.shape[0], rows.shape[0]))
            # Room left: written in place, not moved; none left: moved once.
            assert np.shares_memory(data, store._data) == fits
            if columns is not None:
                assert np.shares_memory(columns, store._scan[0]) == fits
            if not fits:
                sizes.append(store._rows.shape[0])
                assert sizes[-1] == max(store.capacity, int(sizes[-2] * GROWTH))
                if scan_at == "between" and len(sizes) == 2:
                    store.scan_values(np.ones(3))
            live = np.setdiff1d(np.arange(1, rows.shape[0]), sorted(dead))
            moved = np.sort(rng.choice(live, size=2, replace=False))
            rows[moved] = rng.uniform(1.0, 10.0, size=(2, 3)) * scales
            store.update(moved, rows[moved])
            victim = int(rng.choice(np.setdiff1d(live, moved)))
            store.delete(np.array([victim]))
            dead.add(victim)
        assert len(sizes) >= 4 and store._rows.shape[0] > store.capacity
        _same_as_fresh(store, rows, dead)
        # The spare room is allocated, so it is counted.
        size = store._rows.shape[0]
        assert store.memory_bytes() == size * 3 * 8 + size + size * 3 * 4 + 3 * 8
        assert store.memory_bytes() > FeatureStore(rows).memory_bytes()

    def test_scan_copy_built_after_growth_has_the_same_room(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(1.0, 10.0, size=(4, 3))
        store = FeatureStore(rows)
        fresh = rng.uniform(1.0, 10.0, size=(1, 3))
        store.append(fresh)
        assert store._rows.shape[0] > store.capacity
        store.scan_values(np.ones(3))
        assert store._columns.shape == (3, store._rows.shape[0])
        # An append that fits the rows fits the scan copy too.
        more = rng.uniform(1.0, 10.0, size=(store._rows.shape[0] - store.capacity, 3))
        store.append(more)
        _same_as_fresh(store, np.vstack([rows, fresh, more]), set())

    @pytest.mark.parametrize("mode", ["copy", "mmap"])
    def test_save_after_growth_writes_live_rows_only(self, mode, tmp_path):
        rng = np.random.default_rng(9)
        points = rng.uniform(1.0, 100.0, size=(300, 3))
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0)
        index = FunctionIndex(points, model, n_indices=4, rng=0)
        for _ in range(4):
            index.insert_points(rng.uniform(1.0, 100.0, size=(70, 3)))
        index.delete_points(np.arange(0, 300, 7))
        store = index._features
        assert store._rows.shape[0] > store.capacity
        loaded = load_index(save_index(index, tmp_path / "idx"), mode=mode)
        assert loaded._features.capacity == len(loaded) == len(index)
        assert loaded._features.memory_bytes() < store.memory_bytes()
        for _ in range(5):
            normal, offset = model.sample_normal(rng), float(rng.uniform(200.0, 800.0))
            for op in ("<=", ">"):
                # The saved format compacts ids to live positions.
                expected = np.searchsorted(index.live_ids(), index.query(normal, offset, op).ids)
                assert np.array_equal(loaded.query(normal, offset, op).ids, expected)
            assert np.array_equal(
                loaded.topk(normal, offset, 5).distances, index.topk(normal, offset, 5).distances
            )


class TestReadOnlyBacking:
    def test_from_backing_binds_without_copy(self):
        data = np.arange(12.0).reshape(4, 3)
        store = FeatureStore.from_backing(data)
        assert store._data is data
        assert not store.writable
        assert len(store) == 4

    def test_from_backing_rejects_non_float64(self):
        with pytest.raises(ValueError, match="float64"):
            FeatureStore.from_backing(np.arange(12, dtype=np.int32).reshape(4, 3))

    def test_mutations_raise(self):
        store = FeatureStore.from_backing(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match="read-only"):
            store.update(np.array([0]), np.ones((1, 3)))
        with pytest.raises(ValueError, match="read-only"):
            store.append(np.ones((1, 3)))
        with pytest.raises(ValueError, match="read-only"):
            store.delete(np.array([0]))

    def test_reads_still_work(self):
        data = np.arange(12.0).reshape(4, 3)
        store = FeatureStore.from_backing(data)
        assert np.array_equal(store.get(np.array([1, 2])), data[1:3])
        ids, values, _ = store.scan_values(np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(values, data.sum(axis=1))
