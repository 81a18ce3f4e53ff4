"""Tests for index save/load."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import (
    FeatureMap,
    FunctionIndex,
    ParameterDomain,
    QueryModel,
    load_index,
    product_map,
    save_index,
)
from repro.core.persistence import PersistenceError


@pytest.fixture
def identity_index(rng):
    points = rng.uniform(1, 100, size=(500, 3))
    model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
    return points, model, FunctionIndex(points, model, n_indices=8, rng=0)


class TestRoundTrip:
    def test_identity_map_round_trip(self, identity_index, tmp_path, rng):
        points, model, index = identity_index
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == len(index)
        assert loaded.n_indices == index.n_indices
        for _ in range(5):
            normal = model.sample_normal(rng)
            offset = float(rng.uniform(100, 800))
            assert np.array_equal(
                index.query(normal, offset).ids, loaded.query(normal, offset).ids
            )

    def test_product_map_round_trip(self, tmp_path, rng):
        points = rng.uniform(1, 10, size=(300, 4))
        fmap = product_map(4, [(0,), (2, 3)])
        model = QueryModel(
            [ParameterDomain(values=[1.0]), ParameterDomain(low=-1.0, high=-0.1)]
        )
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=5, rng=0)
        path = tmp_path / "prod.npz"
        save_index(index, path)
        loaded = load_index(path)
        answer = loaded.query(np.array([1.0, -0.5]), 0.0)
        expected = index.query(np.array([1.0, -0.5]), 0.0)
        assert np.array_equal(answer.ids, expected.ids)

    def test_deleted_points_not_persisted(self, identity_index, tmp_path):
        points, model, index = identity_index
        index.delete_points(np.arange(100, dtype=np.int64))
        path = tmp_path / "pruned.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == 400

    def test_discrete_and_continuous_domains_preserved(self, identity_index, tmp_path):
        _, model, index = identity_index
        path = tmp_path / "dom.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.query_model.domains == model.domains

    def test_normals_preserved(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = tmp_path / "norm.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert np.allclose(
            np.sort(loaded.collection.normals, axis=0),
            np.sort(index.collection.normals, axis=0),
        )


class TestCustomMaps:
    def test_custom_map_requires_resupply(self, tmp_path, rng):
        points = rng.uniform(1, 10, size=(100, 2))
        fmap = FeatureMap(lambda p: np.sqrt(p), in_dim=2, out_dim=2)
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0)
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=3, rng=0)
        path = tmp_path / "custom.npz"
        save_index(index, path)
        with pytest.raises(PersistenceError, match="custom feature map"):
            load_index(path)
        loaded = load_index(path, feature_map=fmap)
        normal = model.sample_normal(0)
        assert np.array_equal(
            loaded.query(normal, 3.0).ids, index.query(normal, 3.0).ids
        )

    def test_wrong_custom_map_shape_rejected(self, tmp_path, rng):
        points = rng.uniform(1, 10, size=(100, 2))
        fmap = FeatureMap(lambda p: np.sqrt(p), in_dim=2, out_dim=2)
        model = QueryModel.uniform(dim=2, low=1.0, high=2.0)
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=3, rng=0)
        path = tmp_path / "custom2.npz"
        save_index(index, path)
        wrong = FeatureMap(lambda p: p[:, :1], in_dim=2, out_dim=1)
        with pytest.raises(PersistenceError, match="archive expects"):
            load_index(path, feature_map=wrong)

    @pytest.mark.parametrize("version", [2, 4])
    def test_map_named_like_the_identity_is_custom(self, tmp_path, rng, version):
        points = rng.uniform(1, 100, size=(2000, 3))
        fmap = FeatureMap.from_callable(lambda p: 2 * p, 3, 3, names=["x_0", "x_1", "x_2"])
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0)
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=4, rng=0)
        path = save_index(index, tmp_path / "doubled", version=version)
        with pytest.raises(PersistenceError, match="custom feature map"):
            load_index(path)
        loaded = load_index(path, feature_map=fmap, mode="copy")
        normal = np.ones(3)
        assert np.array_equal(loaded.query(normal, 250.0).ids, index.query(normal, 250.0).ids)
        # A later write is keyed under phi, not under the identity.
        point = np.array([[50.0, 50.0, 50.0]])
        assert np.array_equal(loaded.insert_points(point), index.insert_points(point))
        assert np.array_equal(loaded.query(normal, 250.0).ids, index.query(normal, 250.0).ids)


class TestOneStore:
    """Under the identity map a loaded index binds one store; a product map keeps two."""

    @pytest.mark.parametrize("mode", ["copy", "mmap"])
    @pytest.mark.parametrize("kind", ["identity", "product"])
    def test_round_trip(self, tmp_path, rng, kind, mode):
        points = rng.uniform(1, 10, size=(300, 4))
        if kind == "identity":
            fmap, model = None, QueryModel.uniform(dim=4, low=1.0, high=5.0)
        else:
            fmap = product_map(4, [(0,), (1, 2), (3,)])
            model = QueryModel.uniform(dim=3, low=1.0, high=5.0)
        index = FunctionIndex(points, model, feature_map=fmap, n_indices=5, rng=0)
        loaded = load_index(save_index(index, tmp_path / "idx"), mode=mode)
        assert (loaded._points is loaded._features) == (kind == "identity")
        assert loaded.memory_bytes() == index.memory_bytes()
        queries = [(model.sample_normal(rng), float(rng.uniform(10, 200))) for _ in range(6)]

        def same_answers():
            ids = index.live_ids()
            assert np.array_equal(loaded.live_ids(), ids)
            assert np.array_equal(loaded.get_points(ids), index.get_points(ids))
            assert np.array_equal(loaded.get_features(ids), index.get_features(ids))
            for normal, offset in queries:
                assert np.array_equal(
                    loaded.query(normal, offset).ids, index.query(normal, offset).ids
                )

        same_answers()
        if mode == "copy":
            extra = rng.uniform(1, 10, size=(5, 4))
            assert np.array_equal(loaded.insert_points(extra), index.insert_points(extra))
            changed = np.array([1, 301], dtype=np.int64)
            for target in (loaded, index):
                target.update_points(changed, extra[:2] + 1.0)
                target.delete_points(np.array([2, 302], dtype=np.int64))
            assert np.array_equal(loaded.get_points(changed), extra[:2] + 1.0)
            same_answers()


class TestConstructorArguments:
    """No ``FunctionIndex`` argument is silently dropped by a save and load.

    Each argument is either restored by :func:`load_index`, and checked
    here by value, or consumed at build.  A new argument must be listed
    as one or the other.
    """

    RESTORED = {
        "feature_map": lambda index, sample: (
            index.feature_map.names,
            index.feature_map(sample).tolist(),
        ),
        "query_model": lambda index, sample: index.query_model.domains,
        "normals": lambda index, sample: index.collection.normals.tolist(),
        "strategy": lambda index, sample: index.collection.strategy,
    }
    CONSUMED_AT_BUILD = {"points", "n_indices", "rng"}

    def test_every_argument_is_listed(self):
        parameters = set(inspect.signature(FunctionIndex.__init__).parameters) - {"self"}
        assert parameters == set(self.RESTORED) | self.CONSUMED_AT_BUILD

    @pytest.mark.parametrize("mode", ["copy", "mmap"])
    def test_restored_arguments_round_trip(self, tmp_path, rng, mode):
        points = rng.uniform(1, 10, size=(300, 4))
        index = FunctionIndex(
            points,
            QueryModel([ParameterDomain(values=[1.0, 2.0]), ParameterDomain(low=-1.0, high=-0.1)]),
            feature_map=product_map(4, [(0,), (2, 3)]),
            normals=np.array([[1.0, -0.5], [2.0, -0.2], [1.0, -1.0]]),
            strategy="min_stretch",
        )
        loaded = load_index(save_index(index, tmp_path / "idx"), mode=mode)
        for name, read in self.RESTORED.items():
            assert read(loaded, points[:20]) == read(index, points[:20]), name


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(PersistenceError):
            load_index(path)


def _assert_same_answers(a, b, model, rng, n=5):
    """Same answer *sets* by point value — save compacts ids to row
    positions, so raw ids are not comparable across a churned save."""
    for _ in range(n):
        normal = model.sample_normal(rng)
        offset = float(rng.uniform(100, 800))
        pa = a.get_points(a.query(normal, offset).ids)
        pb = b.get_points(b.query(normal, offset).ids)
        assert pa.shape == pb.shape
        order_a = np.lexsort(pa.T)
        order_b = np.lexsort(pb.T)
        assert np.array_equal(pa[order_a], pb[order_b])


class TestV3RoundTrip:
    def test_default_save_is_v3_directory(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        assert path.is_dir()
        assert (path / "manifest.json").exists()
        assert (path / "features.npy").exists()

    def test_round_trip_after_churn(self, identity_index, tmp_path, rng):
        points, model, index = identity_index
        index.delete_points(np.arange(50, dtype=np.int64))
        index.insert_points(rng.uniform(1, 100, size=(30, 3)))
        path = save_index(index, tmp_path / "churn")
        loaded = load_index(path)
        assert len(loaded) == len(index)
        _assert_same_answers(index, loaded, model, rng)

    def test_auto_mode_memmaps_v3(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        loaded = load_index(path)
        assert isinstance(loaded._features._data, np.memmap)

    def test_save_over_existing_directory(self, identity_index, tmp_path, rng):
        points, model, index = identity_index
        path = save_index(index, tmp_path / "idx")
        index.delete_points(np.arange(100, dtype=np.int64))
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == 400
        # The retired previous index is cleaned up, not left beside it.
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]

    def test_v2_archive_still_loads(self, identity_index, tmp_path, rng):
        _, model, index = identity_index
        path = save_index(index, tmp_path / "legacy", version=2)
        assert path.suffix == ".npz"
        loaded = load_index(path)
        _assert_same_answers(index, loaded, model, rng)


class TestV3Modes:
    def test_mmap_load_is_read_only(self, identity_index, tmp_path, rng):
        points, model, index = identity_index
        path = save_index(index, tmp_path / "idx")
        loaded = load_index(path, mode="mmap")
        assert not loaded._features.writable
        with pytest.raises(ValueError, match="read-only"):
            loaded.insert_points(rng.uniform(1, 100, size=(5, 3)))
        with pytest.raises(ValueError, match="read-only"):
            loaded.delete_points(np.arange(5, dtype=np.int64))
        with pytest.raises(ValueError, match="read-only"):
            loaded.update_points(
                np.arange(5, dtype=np.int64), rng.uniform(1, 100, size=(5, 3))
            )
        # Failed mutations must not have desynced stores from indices.
        _assert_same_answers(index, loaded, model, rng)

    def test_copy_load_supports_maintenance(self, identity_index, tmp_path, rng):
        points, model, index = identity_index
        path = save_index(index, tmp_path / "idx")
        loaded = load_index(path, mode="copy")
        assert loaded._features.writable
        loaded.delete_points(np.arange(20, dtype=np.int64))
        index.delete_points(np.arange(20, dtype=np.int64))
        new = rng.uniform(1, 100, size=(15, 3))
        loaded.insert_points(new)
        index.insert_points(new)
        _assert_same_answers(index, loaded, model, rng)

    def test_mmap_mode_rejects_legacy_npz(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "legacy", version=2)
        with pytest.raises(PersistenceError, match="cannot be memory-mapped"):
            load_index(path, mode="mmap")


class TestV3Corruption:
    """Referenced from tests/reliability/test_persistence_faults.py — v3
    directory corruption detection lives here."""

    def test_bit_flip_in_small_array_detected(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        target = path / "normals.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF  # flip data bits, not the npy header
        target.write_bytes(bytes(blob))
        # Small arrays are checksum-verified even in mmap mode.
        with pytest.raises(PersistenceError, match="checksum"):
            load_index(path, mode="mmap")

    def test_bit_flip_in_bulk_array_detected_by_copy_mode(
        self, identity_index, tmp_path
    ):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        target = path / "features.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="checksum"):
            load_index(path, mode="copy")

    def test_missing_array_file(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        (path / "keys_0.npy").unlink()
        with pytest.raises(PersistenceError, match="keys_0"):
            load_index(path)

    def test_malformed_manifest(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        (path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError, match="manifest"):
            load_index(path)

    def test_directory_without_manifest_rejected(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        with pytest.raises(PersistenceError, match="manifest"):
            load_index(bare)

    def test_missing_checksum_manifest_key(self, identity_index, tmp_path):
        import json

        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        manifest = json.loads((path / "manifest.json").read_text("utf-8"))
        del manifest["checksums"]
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError, match="checksum manifest"):
            load_index(path)


def _rewrite_as_v3(path):
    """Turn a v4 directory into the v3 layout: float64 keys, int64 ids,
    sorted as the v3 writer sorted them, manifest without dtypes."""
    import json

    from repro.reliability.atomic import checksum_manifest

    manifest = json.loads((path / "manifest.json").read_text("utf-8"))
    features = np.load(path / "features.npy")
    normals = np.load(path / "normals.npy")
    arrays = {
        name: np.load(path / f"{name}.npy")
        for name in ("points", "features", "normals", "octant", "delta")
    }
    for position in range(manifest["n_indices"]):
        keys = features @ normals[position]
        order = np.argsort(keys, kind="stable")
        arrays[f"keys_{position}"] = keys[order]
        arrays[f"ids_{position}"] = order.astype(np.int64)
    for name, array in arrays.items():
        np.save(path / f"{name}.npy", array)
    manifest["format_version"] = 3
    del manifest["dtypes"]
    manifest["checksums"] = checksum_manifest(arrays)
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class TestV4Format:
    """v4 stores float32 keys and uint32 ids; v3 directories still load."""

    def _queries(self, model, rng, n=8):
        return [(model.sample_normal(rng), float(rng.uniform(100, 800))) for _ in range(n)]

    @pytest.mark.parametrize("mode", ["copy", "mmap"])
    def test_round_trip_keeps_dtypes_and_answers(self, identity_index, tmp_path, rng, mode):
        import json

        from repro.core.sorted_keys import ID_DTYPE, KEY_DTYPE

        _, model, index = identity_index
        path = save_index(index, tmp_path / "idx")
        manifest = json.loads((path / "manifest.json").read_text("utf-8"))
        assert manifest["format_version"] == 4
        assert manifest["dtypes"] == {"keys": "float32", "ids": "uint32"}
        loaded = load_index(path, mode=mode)
        for original, planar in zip(index.collection, loaded.collection):
            assert planar._keys.sorted_keys.dtype == KEY_DTYPE
            assert planar._keys.sorted_ids.dtype == ID_DTYPE
            assert np.array_equal(planar._keys.sorted_keys, original._keys.sorted_keys)
        # mmap binds the read-only file pages as they are, with no cast.
        bound = loaded.collection[0]._keys._keys
        assert bound.flags.writeable == (mode == "copy")
        for normal, offset in self._queries(model, rng):
            assert np.array_equal(
                index.query(normal, offset).ids, loaded.query(normal, offset).ids
            )
            assert np.array_equal(
                index.topk(normal, offset, 7).ids, loaded.topk(normal, offset, 7).ids
            )
        assert loaded.memory_bytes() == index.memory_bytes()

    def test_manifest_dtype_mismatch_rejected(self, identity_index, tmp_path):
        import json

        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        manifest = json.loads((path / "manifest.json").read_text("utf-8"))
        manifest["dtypes"] = {"keys": "float64", "ids": "int64"}
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError, match="dtypes"):
            load_index(path)

    def test_array_dtype_mismatch_rejected(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        np.save(path / "ids_0.npy", np.load(path / "ids_0.npy").astype(np.int64))
        with pytest.raises(PersistenceError, match="ids_0"):
            load_index(path, mode="mmap")

    def test_v3_directory_loads_under_copy(self, identity_index, tmp_path, rng):
        from repro.core.sorted_keys import ID_DTYPE, KEY_DTYPE

        _, model, index = identity_index
        path = save_index(index, tmp_path / "idx")
        _rewrite_as_v3(path)
        for mode in ("copy", "auto"):
            loaded = load_index(path, mode=mode)
            assert loaded._features.writable
            keys = loaded.collection[0]._keys
            assert keys.sorted_keys.dtype == KEY_DTYPE
            assert keys.sorted_ids.dtype == ID_DTYPE
            for normal, offset in self._queries(model, rng):
                assert np.array_equal(
                    index.query(normal, offset).ids, loaded.query(normal, offset).ids
                )

    def test_v3_directory_refuses_mmap(self, identity_index, tmp_path):
        _, _, index = identity_index
        path = save_index(index, tmp_path / "idx")
        _rewrite_as_v3(path)
        with pytest.raises(PersistenceError, match="mode='copy'.*v4"):
            load_index(path, mode="mmap")

    def test_v3_is_no_longer_written(self, identity_index, tmp_path):
        _, _, index = identity_index
        with pytest.raises(PersistenceError, match="writable: 2, 4"):
            save_index(index, tmp_path / "idx", version=3)
