"""The lean key store: float32 keys, uint32 ids, one packed build sort.

Three groups:

* the packed ``uint64`` sort equals ``np.lexsort((ids, keys32))``,
  including ties, ``-0.0`` against ``+0.0``, saturated keys and
  subnormals, and the directed float32 probes bound their thresholds;
* the ``2**32 - 1`` row guard, driven through the check itself;
* a float32 boundary suite: keys planted within a few float32 ulps of the
  SI/LI probes, beyond the float32 range and below its smallest
  subnormal.  ``query``, ``query_range`` and ``topk`` must answer as
  ``Fraction`` arithmetic and ``SequentialScan`` do, on a monolithic
  index and a 2-shard engine.  The planted offsets sit just above a
  float32 grid point, where a band without the float32 rounding term, or
  an SI probe rounded to nearest, accepts points that violate the query.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro import FunctionIndex, QueryModel, ScalarProductQuery, SortedKeyStore
from repro.core import feature_store as feature_store_module
from repro.core.feature_store import FeatureStore, require_id_space
from repro.core.selection import interval_probes
from repro.core.sorted_keys import (
    ID_DTYPE,
    ID_MAX,
    KEY_DTYPE,
    _sorted_pairs,
    as_keys,
    key_probes,
)
from repro.exceptions import IndexBuildError
from repro.parallel.engine import ShardedFunctionIndex
from repro.scan.baseline import SequentialScan

from ..conftest import one_index
from .test_batch_property import _Rational

_F32_MAX = float(np.finfo(KEY_DTYPE).max)


def _ulp(value: float) -> float:
    """Float32 spacing just above ``value``."""
    key = KEY_DTYPE.type(value)
    return float(np.nextafter(key, KEY_DTYPE.type(np.inf))) - float(key)


class TestPackedSort:
    def _awkward_keys(self, rng) -> np.ndarray:
        plain = rng.normal(size=300) * 10.0 ** rng.integers(-3, 4, size=300)
        ties = np.repeat(rng.normal(size=20), 5)
        special = [
            0.0, -0.0, 0.0, -0.0,
            1e39, -1e39, 2e39, -5e38, _F32_MAX, -_F32_MAX,
            1e-46, -1e-46, 3e-45, -3e-45, 1e-40, -1e-40,
            1.0 + 2.0 ** -30, 1.0, 1.0 - 2.0 ** -30,
        ]
        return np.concatenate([plain, ties, special])

    def test_equals_lexsort(self, rng):
        keys = self._awkward_keys(rng)
        ids = rng.permutation(keys.size).astype(ID_DTYPE)
        keys32 = as_keys(keys)
        got_keys, got_ids = _sorted_pairs(keys32, ids)
        order = np.lexsort((ids, keys32))
        assert got_keys.dtype == KEY_DTYPE and got_ids.dtype == ID_DTYPE
        assert np.array_equal(got_keys, keys32[order])
        assert np.array_equal(got_ids, ids[order])

    def test_store_build_equals_lexsort(self, rng):
        keys = self._awkward_keys(rng)
        ids = rng.permutation(np.arange(10, 10 + keys.size))
        store = SortedKeyStore(keys, ids, trusted=True)
        keys32 = as_keys(keys)
        order = np.lexsort((ids, keys32))
        assert np.array_equal(store.sorted_keys, keys32[order])
        assert np.array_equal(store.sorted_ids, ids[order])

    def test_rounding_saturates_and_drops_negative_zero(self):
        keys = as_keys(np.array([1e39, -1e39, np.inf, -0.0, 1e-50, 0.1]))
        assert keys.dtype == KEY_DTYPE
        assert keys[0] == _F32_MAX and keys[1] == -_F32_MAX and keys[2] == _F32_MAX
        assert not np.signbit(keys[3])
        assert keys[4] == 0.0
        assert keys[5] == KEY_DTYPE.type(0.1)

    def test_stored_dtypes_and_bytes(self):
        store = SortedKeyStore(np.arange(64.0), np.arange(64))
        assert store.sorted_keys.dtype == KEY_DTYPE
        assert store.sorted_ids.dtype == ID_DTYPE
        assert store.memory_bytes() == 64 * 8

    @pytest.mark.parametrize("bad", [-1, ID_MAX + 1])
    def test_ids_outside_uint32_rejected(self, bad):
        with pytest.raises(ValueError, match="point ids"):
            SortedKeyStore(np.array([1.0, 2.0]), np.array([0, bad]))
        store = SortedKeyStore(np.array([1.0]))
        with pytest.raises(ValueError, match="point ids"):
            store.insert(np.array([bad]), np.array([2.0]))


class TestProbes:
    def test_directed_and_tight(self, rng):
        values = rng.normal(size=500) * 10.0 ** rng.integers(-40, 38, size=500)
        low, high = key_probes(values, values)
        assert low.dtype == KEY_DTYPE and high.dtype == KEY_DTYPE
        assert np.all(low.astype(np.float64) <= values)
        assert np.all(high.astype(np.float64) >= values)
        # Tight: the next float32 past each probe is beyond its threshold.
        up = np.nextafter(low, KEY_DTYPE.type(np.inf)).astype(np.float64)
        down = np.nextafter(high, KEY_DTYPE.type(-np.inf)).astype(np.float64)
        assert np.all(up > values) and np.all(down < values)

    def test_scalar_matches_array(self, rng):
        values = np.concatenate(
            [rng.normal(size=200) * 10.0 ** rng.integers(-46, 40, size=200),
             [1e39, -1e39, np.inf, -np.inf, 0.0, -0.0, 1e-46, -1e-46]]
        )
        low, high = key_probes(values, values)
        for position, value in enumerate(values.tolist()):
            one_low, one_high = key_probes(value, value)
            assert one_low == low[position] and one_high == high[position]

    def test_capped_strictly_inside_the_range(self):
        cap = float(np.nextafter(KEY_DTYPE.type(_F32_MAX), KEY_DTYPE.type(0.0)))
        low, high = key_probes(1e39, -1e39)
        assert float(low) == cap and float(high) == -cap
        low, high = key_probes(-1e39, 1e39)
        assert low == -np.inf and high == np.inf
        low, high = key_probes(np.inf, -np.inf)
        assert float(low) == cap and float(high) == -cap

    def test_rank_le_is_exact_on_stored_keys(self):
        store = SortedKeyStore(np.array([1.0, 1.0 + 2.0 ** -23, 2.0]))
        assert store.rank_le(1.0 + 2.0 ** -30) == 1
        assert store.rank_le(1.0) == 1


class TestIdCapacity:
    def test_guard_admits_the_last_uint32_row(self):
        require_id_space(ID_MAX)

    def test_guard_refuses_row_two_to_the_32(self):
        with pytest.raises(IndexBuildError, match="2\\*\\*32 - 1"):
            require_id_space(ID_MAX + 1)

    def test_append_and_construction_go_through_the_guard(self, monkeypatch):
        monkeypatch.setattr(feature_store_module, "ID_MAX", 5)
        store = FeatureStore(np.ones((4, 2)))
        store.append(np.ones((1, 2)))
        with pytest.raises(IndexBuildError):
            store.append(np.ones((1, 2)))
        assert store.capacity == 5
        with pytest.raises(IndexBuildError):
            FeatureStore(np.ones((6, 2)))
        with pytest.raises(IndexBuildError):
            FeatureStore.from_backing(np.ones((6, 2)))


# --------------------------------------------------------------------- #
# Float32 boundary suite
# --------------------------------------------------------------------- #

_NORMAL = np.array([1.0, 1.0])
# A float32 grid point just above a power of two: the band is then barely
# wider than half an ulp, so the SI probe's rounding direction decides.
_GRID = float(np.nextafter(KEY_DTYPE.type(2.0), KEY_DTYPE.type(3.0)))
_OFFSETS = [
    _GRID + 2.0 ** -33,
    _GRID + 2.0 ** -25,
    _GRID,
    float(np.nextafter(KEY_DTYPE.type(3.0), KEY_DTYPE.type(4.0))) + 2.0 ** -40,
    2.7182818284590455,
]


def _points_with_keys(keys) -> np.ndarray:
    """Rows ``(k - 1, 1)``: their key and their exact ``<(1, 1), x>`` are ``k``."""
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys - 1.0, np.ones_like(keys)])


def _probes(collection, wq):
    """The float32 SI/LI probes the planned index searches for ``wq``."""
    return interval_probes(collection.plan(wq).th, wq, 0)


def _planted_points(rng) -> np.ndarray:
    """Keys in quarter float32 ulps within two ulps of each offset's SI/LI
    probes, and of the offset itself, over a random background."""
    background = rng.uniform(1.0, 3.0, size=(300, 2))
    collection = one_index(background, _NORMAL)
    keys = []
    for offset in _OFFSETS:
        wq = collection.working_query(ScalarProductQuery(_NORMAL, offset))
        probes = [float(p) for p in _probes(collection, wq)]
        for center in (*probes, offset):
            ulp = _ulp(center)
            keys.extend(center + step * ulp / 4.0 for step in range(-8, 9))
        keys.extend([float(np.nextafter(offset, np.inf)), float(np.nextafter(offset, -np.inf))])
    return np.vstack([background, _points_with_keys(keys)])


_MODEL = QueryModel.uniform(dim=2, low=1.0, high=5.0)
_SATURATED = np.array([5e38, 9.9e38, 1e39, 1.0000001e39, 2e39, 1e30, 2e37])
_SUBNORMAL = np.array([0.0, 1e-47, 5e-47, 1e-46, 1.5e-46, 3e-46, 7e-46, 1e-45, 2e-45, 1e-44])


def _check(engine, points, offsets, ranges):
    rational = _Rational(points)
    scan = SequentialScan(points)
    for offset in offsets:
        for op in ("<=", "<", ">=", ">"):
            query = ScalarProductQuery(_NORMAL, offset, op)
            truth = rational.query(_NORMAL, offset, op)
            assert np.array_equal(engine.query(_NORMAL, offset, op).ids, truth), (offset, op)
            assert np.array_equal(scan.query(query), truth)
            got = engine.topk(_NORMAL, offset, 5, op)
            expected = scan.topk(query, 5)
            assert np.array_equal(got.ids, rational.topk_ids(_NORMAL, offset, 5, op))
            assert np.array_equal(got.ids, expected.ids)
            assert np.array_equal(got.distances, expected.distances)
    for low, high in ranges:
        got = engine.query_range(_NORMAL, low, high)
        assert np.array_equal(got.ids, rational.query_range(_NORMAL, low, high)), (low, high)


def _engines(points):
    yield FunctionIndex(points, _MODEL, normals=_NORMAL[None, :])
    engine = ShardedFunctionIndex(points, _MODEL, normals=_NORMAL[None, :], n_shards=2)
    try:
        yield engine
    finally:
        engine.close()


_CASES = {
    "probes": (
        _planted_points,
        _OFFSETS,
        [(_OFFSETS[0], _OFFSETS[3]), (_OFFSETS[2], _OFFSETS[1]), (_OFFSETS[4], _OFFSETS[4])],
    ),
    "saturated": (
        lambda rng: _points_with_keys(_SATURATED),
        [1e39, 5e38, 3e38, 2.0],
        [(5e38, 1e39), (2.0, 1e39)],
    ),
    "subnormal": (
        lambda rng: np.column_stack([_SUBNORMAL, np.zeros_like(_SUBNORMAL)]),
        [1e-46, 2e-46, 7.006492321624085e-46, 1e-45, 0.0],
        [(1e-46, 1e-45), (0.0, 1e-46)],
    ),
}


class TestFloat32Boundary:
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("route_fraction", [None, 1.0, 0.0])
    def test_answers_match_rational(self, case, route_fraction, rng):
        """``route_fraction=1.0`` forces every query through the intervals,
        ``0.0`` every query with a nonempty interval through the float32 scan."""
        build, offsets, ranges = _CASES[case]
        points = build(rng)
        patch = (
            mock.patch("repro.core.collection._SCAN_FALLBACK_FRACTION", route_fraction)
            if route_fraction is not None
            else nullcontext()
        )
        with patch:
            for engine in _engines(points):
                _check(engine, points, offsets, ranges)

    def test_planted_keys_straddle_the_probes(self, rng):
        """The suite really plants stored keys on both sides of each SI probe."""
        collection = one_index(_planted_points(rng), _NORMAL)
        keys = collection[0]._keys.sorted_keys
        for offset in _OFFSETS:
            wq = collection.working_query(ScalarProductQuery(_NORMAL, offset))
            probe, _ = _probes(collection, wq)
            assert np.any(keys == probe)
            assert np.any(keys == np.nextafter(probe, KEY_DTYPE.type(np.inf)))
