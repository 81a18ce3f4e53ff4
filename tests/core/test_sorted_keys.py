"""Tests for the dynamically maintained sorted key list (Section 4.2/4.4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SortedKeyStore
from repro.exceptions import DimensionMismatchError

key_lists = st.lists(
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
)


def assert_invariants(store: SortedKeyStore) -> None:
    """Structural invariants: ascending keys, ids unique, lookup consistent."""
    keys = store.sorted_keys
    ids = store.sorted_ids
    assert np.all(np.diff(keys) >= 0)
    assert np.unique(ids).size == ids.size
    for pid, key in zip(ids, keys):
        assert store.key_of(int(pid)) == key


class TestConstruction:
    def test_sorts_on_build(self):
        store = SortedKeyStore(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(store.sorted_keys, [1.0, 2.0, 3.0])
        assert np.array_equal(store.sorted_ids, [1, 2, 0])

    def test_custom_ids(self):
        store = SortedKeyStore(np.array([2.0, 1.0]), np.array([10, 20]))
        assert np.array_equal(store.sorted_ids, [20, 10])
        assert 10 in store and 30 not in store

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SortedKeyStore(np.array([1.0, 2.0]), np.array([5, 5]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SortedKeyStore(np.array([1.0, 2.0]), np.array([1]))

    def test_nonfinite_keys_rejected(self):
        with pytest.raises(ValueError):
            SortedKeyStore(np.array([1.0, np.nan]))

    def test_views_are_read_only(self):
        store = SortedKeyStore(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            store.sorted_keys[0] = 5.0


class TestBinarySearch:
    def test_rank_le_and_lt(self):
        store = SortedKeyStore(np.array([1.0, 2.0, 2.0, 3.0]))
        assert store.rank_le(2.0) == 3
        assert store.rank_lt(2.0) == 1
        assert store.rank_le(0.5) == 0
        assert store.rank_le(9.0) == 4

    def test_rank_ranges(self):
        store = SortedKeyStore(np.array([10.0, 20.0, 30.0]))
        assert np.array_equal(store.ids_in_rank_range(0, 2), [0, 1])
        assert np.array_equal(store.keys_in_rank_range(1, 3), [20.0, 30.0])


class TestUpdate:
    def test_single_update_moves_entry(self):
        store = SortedKeyStore(np.array([1.0, 2.0, 3.0]))
        store.update(0, 5.0)
        assert np.array_equal(store.sorted_keys, [2.0, 3.0, 5.0])
        assert store.key_of(0) == 5.0
        assert_invariants(store)

    def test_update_with_duplicate_keys(self):
        store = SortedKeyStore(np.array([2.0, 2.0, 2.0]), np.array([7, 8, 9]))
        store.update(8, 1.0)
        assert store.key_of(8) == 1.0
        assert store.sorted_ids[0] == 8
        assert_invariants(store)

    def test_update_unknown_id(self):
        store = SortedKeyStore(np.array([1.0]))
        with pytest.raises(KeyError):
            store.update(99, 1.0)

    def test_update_nonfinite_rejected(self):
        store = SortedKeyStore(np.array([1.0]))
        with pytest.raises(ValueError):
            store.update(0, np.inf)

    def test_batch_update_small(self):
        store = SortedKeyStore(np.arange(100.0))
        ids = np.array([0, 1])
        store.update_batch(ids, ids, np.array([200.0, 300.0]))
        assert store.key_of(0) == 200.0
        assert store.rank_le(99.0) == 98
        assert_invariants(store)

    def test_batch_update_large_triggers_rebuild(self):
        store = SortedKeyStore(np.arange(10.0))
        ids = np.arange(8)
        store.update_batch(ids, ids, -np.arange(8.0))
        for pid in ids:
            assert store.key_of(int(pid)) == -float(pid)
        assert_invariants(store)

    def test_batch_update_duplicate_ids_rejected(self):
        store = SortedKeyStore(np.arange(5.0))
        with pytest.raises(ValueError):
            ids = np.array([1, 1])
            store.update_batch(ids, ids, np.array([0.0, 1.0]))

    def test_batch_update_unknown_id(self):
        store = SortedKeyStore(np.arange(5.0))
        with pytest.raises(KeyError):
            store.update_batch(np.array([42]), np.array([42]), np.array([0.0]))

    def test_batch_update_empty_noop(self):
        store = SortedKeyStore(np.arange(5.0))
        none = np.array([], dtype=np.int64)
        store.update_batch(none, none, np.array([]))
        assert len(store) == 5


class TestInsertDelete:
    def test_insert(self):
        store = SortedKeyStore(np.array([1.0, 3.0]))
        store.insert(np.array([5]), np.array([2.0]))
        assert np.array_equal(store.sorted_keys, [1.0, 2.0, 3.0])
        assert np.array_equal(store.sorted_ids, [0, 5, 1])
        assert_invariants(store)

    def test_insert_existing_id_rejected(self):
        store = SortedKeyStore(np.array([1.0]))
        with pytest.raises(ValueError):
            store.insert(np.array([0]), np.array([2.0]))

    def test_delete(self):
        store = SortedKeyStore(np.array([1.0, 2.0, 3.0]))
        store.delete(np.array([1]))
        assert np.array_equal(store.sorted_keys, [1.0, 3.0])
        assert 1 not in store
        assert_invariants(store)

    def test_delete_unknown_id(self):
        store = SortedKeyStore(np.array([1.0]))
        with pytest.raises(KeyError):
            store.delete(np.array([5]))

    def test_memory_reported(self):
        # float32 keys plus uint32 ids: 8 B per entry.
        store = SortedKeyStore(np.arange(1000.0))
        assert store.memory_bytes() == 1000 * 8
        # Point lookups scan the ids; they build no side structure.
        assert store.key_of(0) == 0.0 and 0 in store
        assert store.memory_bytes() == 1000 * 8


class TestLocateByKey:
    """Maintenance finds entries by id, whatever key they hold.

    Cases a search by key must get right: long runs of equal keys,
    saturated and subnormal keys, drops and adds in one pass.
    """

    def test_any_position_in_a_run_of_equal_keys(self):
        store = SortedKeyStore(np.full(100, 5.0))
        store.delete(np.array([99, 0, 50]))
        assert len(store) == 97 and 0 not in store and 50 not in store
        assert_invariants(store)

    def test_rekey_inside_runs_of_equal_keys(self):
        keys = np.repeat(np.arange(10.0), 3)
        store = SortedKeyStore(keys)
        ids = np.array([0, 14, 29, 4])
        store.update_batch(ids, ids, [-1.0, -2.0, -3.0, -4.0])
        assert [store.key_of(int(i)) for i in ids] == [-1.0, -2.0, -3.0, -4.0]
        assert_invariants(store)

    def test_drop_and_add_in_one_pass(self):
        store = SortedKeyStore(np.arange(6.0))
        store.update_batch(np.array([1, 4]), np.array([4, 9]), [0.5, 2.5])
        assert store.sorted_ids.tolist() == [0, 4, 2, 9, 3, 5]
        assert 1 not in store and store.key_of(4) == 0.5
        assert_invariants(store)

    def test_saturated_and_subnormal_keys(self):
        keys = np.array([1e39, -1e39, 1e300, 1e-50, -1e-50, 0.0, 3e38])
        store = SortedKeyStore(keys)
        store.delete(np.arange(6))
        assert np.array_equal(store.sorted_ids, [6])

    def test_unknown_ids_change_nothing(self):
        store = SortedKeyStore(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(KeyError, match="unknown point ids in delete"):
            store.delete(np.array([0, 7]))
        with pytest.raises(KeyError, match="unknown point ids in update"):
            store.update_batch(np.array([0, 5]), np.array([0, 5]), [7.0, 8.0])
        with pytest.raises(ValueError, match="already present"):
            store.update_batch(np.array([0]), np.array([0, 1]), [7.0, 8.0])
        assert np.array_equal(store.sorted_ids, [0, 1, 2])
        assert np.array_equal(store.sorted_keys, [1.0, 2.0, 3.0])

    def test_batch_shape_checked(self):
        store = SortedKeyStore(np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            store.update_batch(np.array([0]), np.array([0, 1]), [1.0])

    def test_insert_below_the_id_bound_checks_clashes(self):
        store = SortedKeyStore(np.array([1.0, 2.0]), np.array([10, 20]))
        # Computed on the first insert, never at construction.
        assert store._id_bound is None
        store.insert(np.array([30]), [3.0])
        assert store._id_bound == 31
        store.insert(np.array([5, 25]), [0.0, 4.0])
        with pytest.raises(ValueError, match="already present"):
            store.insert(np.array([20]), [9.0])
        store.delete(np.array([30]))
        with pytest.raises(ValueError, match="already present"):
            store.insert(np.array([31, 25]), [9.0, 9.0])
        assert sorted(store.sorted_ids.tolist()) == [5, 10, 20, 25]


@given(keys=key_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_operation_sequences_keep_invariants(keys, data):
    """Property: arbitrary update/insert/delete sequences preserve order."""
    store = SortedKeyStore(np.array(keys))
    next_id = len(keys)
    live = dict(enumerate(keys))
    for _ in range(data.draw(st.integers(0, 15))):
        op = data.draw(st.sampled_from(["update", "insert", "delete"]))
        if op == "update" and live:
            pid = data.draw(st.sampled_from(sorted(live)))
            key = data.draw(st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False))
            store.update(pid, key)
            live[pid] = key
        elif op == "insert":
            key = data.draw(st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False))
            store.insert(np.array([next_id]), np.array([key]))
            live[next_id] = key
            next_id += 1
        elif op == "delete" and len(live) > 1:
            pid = data.draw(st.sampled_from(sorted(live)))
            store.delete(np.array([pid]))
            del live[pid]
    assert len(store) == len(live)
    keys_arr = store.sorted_keys
    assert np.all(np.diff(keys_arr) >= 0)
    assert set(int(i) for i in store.sorted_ids) == set(live)


@given(keys=key_lists, threshold=st.floats(-1e9, 1e9, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_rank_le_matches_bruteforce(keys, threshold):
    # Brute force over the stored float32 keys, compared exactly in float64.
    store = SortedKeyStore(np.array(keys))
    stored = [float(k) for k in store.sorted_keys]
    assert store.rank_le(threshold) == sum(1 for k in stored if k <= threshold)
    assert store.rank_lt(threshold) == sum(1 for k in stored if k < threshold)
