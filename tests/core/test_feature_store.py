"""Tests for the shared feature store."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FeatureStore
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
