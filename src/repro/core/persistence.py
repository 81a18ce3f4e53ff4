"""Saving and loading a :class:`FunctionIndex` to/from disk.

Format v4 (memmap-ready, default)
---------------------------------
A persisted index is a *directory* holding one raw ``.npy`` file per
array plus a ``manifest.json`` with the metadata (format version,
selection strategy, query-model domains, feature-map identifier, the
stored key and id dtypes, and the per-array SHA-256 checksum manifest).
Unlike v2, the directory stores *derived* state — the compacted feature
matrix ``phi(x)`` and every index's keys already in ascending order with
ids remapped to compacted row positions — so :func:`load_index` can bind
the arrays directly instead of re-applying ``phi`` and re-sorting ``r``
key arrays.  Keys are ``float32`` and ids ``uint32``, exactly as a
:class:`~repro.core.sorted_keys.SortedKeyStore` holds them (8 B per point
per index); the manifest's ``dtypes`` entry records both and loading
checks every key and id array against it.

Because ``.npy`` headers pad the data offset to a 64-byte multiple, each
array is alignment-friendly for ``np.load(..., mmap_mode="r")``: with
``mode="mmap"`` (the v4 default) a multi-GB index cold-starts in
milliseconds, nothing is paged in until queries touch it, and the pages
are shared copy-on-write across forked shard workers (see
``docs/parallel.md``).  Memory-mapped loads are read-only — maintenance
raises with a pointer at ``mode="copy"``.

Format v3 (directory, still loads with ``mode="copy"``)
-------------------------------------------------------
The same directory layout with ``float64`` keys and ``int64`` ids.  A
copy load casts each array once to the stored dtypes; ``mode="auto"``
copies it too, and ``mode="mmap"`` raises (the arrays on disk are not
the arrays a key store holds) with a pointer at ``mode="copy"`` or a
re-save as v4.

Format v2 (single ``.npz``, still loads; write with ``version=2``)
------------------------------------------------------------------
A single ``.npz`` archive holding the raw points, the index normals, the
translator state, and a JSON-encoded metadata blob.  The archive stores
*inputs*, not the derived sorted orders — rebuilding the key arrays on
load is O(n log n) per index.  v1 archives (no checksum manifest) still
load.

Both formats are written crash-safely (temp file/directory + fsync +
``os.replace`` via :mod:`repro.reliability.atomic`) and embed per-array
SHA-256 checksums that :func:`load_index` verifies — truncation, bit
flips, and torn writes surface as precise
:class:`~repro.exceptions.PersistenceError` s instead of silent
corruption.  In ``mmap`` mode only the small arrays (normals, octant,
delta) are verified eagerly; hashing the big ones would page the whole
index in and defeat the zero-copy load (documented trade-off — use
``mode="copy"`` for a full integrity check).  :func:`load_build_inputs`,
which reads every point to rebuild an index, verifies the point and
feature arrays as well.

Feature maps are code, not data: built-in maps (identity / product)
round-trip automatically; custom callables must be re-supplied at load
time.  Under the identity map the index holds one store, so ``points.npy``
and ``features.npy`` are written from the same rows; the format does not
change.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..exceptions import PersistenceError
from ..geometry.translation import Translator
from ..reliability.atomic import (
    atomic_write_text,
    atomic_writer,
    checksum_manifest,
    verify_checksums,
)
from .collection import PlanarIndexCollection
from .domains import ParameterDomain, QueryModel
from .feature_store import FeatureStore
from .function_index import FunctionIndex
from .phi import FeatureMap, identity_map, product_map
from .sorted_keys import ID_DTYPE, KEY_DTYPE

__all__ = ["save_index", "load_index", "load_build_inputs", "PersistenceError"]

_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2)

#: Manifest file marking a directory as a v3/v4 index.
_MANIFEST_NAME = "manifest.json"

#: Key and id dtypes a v4 directory stores, as recorded in its manifest.
_DTYPES = {"keys": KEY_DTYPE.name, "ids": ID_DTYPE.name}

#: Arrays verified eagerly even under ``mode="mmap"`` — O(r d') bytes, so
#: checking them never pages the bulk data in.
_SMALL_ARRAYS = ("normals", "octant", "delta")

#: Arrays :func:`load_build_inputs` reads in full — O(n d') bytes, paged
#: in by the rebuild anyway — so it verifies them under a mapped load too.
_BUILD_ARRAYS = _SMALL_ARRAYS + ("points", "features")


def _domain_to_json(domain: ParameterDomain) -> dict:
    if domain.is_discrete:
        return {"values": domain.values.tolist()}
    return {"low": domain.low, "high": domain.high}


def _domain_from_json(blob: dict) -> ParameterDomain:
    if "values" in blob:
        return ParameterDomain(values=blob["values"])
    return ParameterDomain(low=blob["low"], high=blob["high"])


def _feature_map_to_json(fmap: FeatureMap) -> dict:
    kind = getattr(fmap, "_persist_kind", None)
    if kind is not None:
        return dict(kind)
    if fmap.is_identity:
        return {"type": "identity", "dim": fmap.in_dim}
    return {"type": "custom", "in_dim": fmap.in_dim, "out_dim": fmap.out_dim}


def _feature_map_from_json(blob: dict, supplied: FeatureMap | None) -> FeatureMap:
    kind = blob.get("type")
    if kind == "identity":
        return identity_map(int(blob["dim"]))
    if kind == "product":
        return product_map(int(blob["in_dim"]), [tuple(t) for t in blob["terms"]])
    if supplied is None:
        raise PersistenceError(
            "this index was built with a custom feature map; pass feature_map= "
            "when loading"
        )
    if (supplied.in_dim, supplied.out_dim) != (blob["in_dim"], blob["out_dim"]):
        raise PersistenceError(
            f"supplied feature map is {supplied.in_dim}->{supplied.out_dim}, "
            f"archive expects {blob['in_dim']}->{blob['out_dim']}"
        )
    return supplied


def _metadata(index: FunctionIndex, version: int, arrays: dict) -> dict:
    return {
        "format_version": version,
        "strategy": index.collection.strategy.value,
        "domains": [_domain_to_json(d) for d in index.query_model.domains],
        "feature_map": _feature_map_to_json(index.feature_map),
        "checksums": checksum_manifest(arrays),
    }


def save_index(
    index: FunctionIndex, path: str | Path, version: int = _FORMAT_VERSION
) -> Path:
    """Persist ``index`` to ``path`` crash-safely; returns the written path.

    ``version=4`` (default) writes the memmap-ready directory format
    described in the module docstring.  ``version=2`` writes the legacy
    single-``.npz`` archive (``.npz`` appended to the path if missing).
    Both embed per-array SHA-256 checksum manifests.
    """
    path = Path(path)
    # The format holds merged runs only; answers do not change.
    index.merge_writes()
    if version == 4:
        return _save_v4(index, path)
    if version == 2:
        return _save_v2(index, path)
    raise PersistenceError(
        f"cannot write archive version {version!r} (writable: 2, 4)"
    )


def _save_v2(index: FunctionIndex, path: Path) -> Path:
    target = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    ids = index.live_ids()
    points = index.get_points(ids)
    arrays = {
        "points": points,
        "normals": index.collection.normals,
        "octant": index.translator.octant,
        "delta": index.translator.delta,
    }
    metadata = _metadata(index, 2, arrays)
    with atomic_writer(target, artifact="index") as tmp:
        with open(tmp, "wb") as handle:
            np.savez_compressed(
                handle,
                metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8),  # repro: noqa(REP002) — byte buffer for JSON metadata, not numeric keys
                **arrays,
            )
    return target


def _save_v4(index: FunctionIndex, target: Path) -> Path:
    """Write the directory format: one aligned ``.npy`` per array.

    Every array file goes through :func:`atomic_writer` (fault-injection
    site ``persistence.write`` included), accumulated in a temp directory
    beside ``target`` which is then renamed into place — a crash leaves
    either the previous index or a stray ``*.tmp`` directory, never a
    half-written destination.
    """
    live = index.live_ids()
    arrays: dict[str, np.ndarray] = {
        "points": index.get_points(live),
        "features": index.get_features(live),
        "normals": index.collection.normals,
        "octant": index.translator.octant,
        "delta": index.translator.delta,
    }
    for position, planar in enumerate(index.collection):
        keys = planar._keys
        arrays[f"keys_{position}"] = keys.sorted_keys
        # Remap ids to positions in the compacted (live-only) matrices so
        # the loaded store's ids == row positions invariant holds without
        # a translation table.
        arrays[f"ids_{position}"] = np.ascontiguousarray(
            np.searchsorted(live, keys.sorted_ids), dtype=ID_DTYPE
        )
    metadata = _metadata(index, 4, arrays)
    metadata["n_indices"] = index.n_indices
    metadata["dtypes"] = dict(_DTYPES)

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(
        tempfile.mkdtemp(prefix=target.name + ".", suffix=".tmp", dir=str(target.parent))
    )
    try:
        for name, array in arrays.items():
            with atomic_writer(tmp_dir / f"{name}.npy", artifact="index") as tmp:
                with open(tmp, "wb") as handle:
                    np.save(handle, np.ascontiguousarray(array))
        atomic_write_text(
            tmp_dir / _MANIFEST_NAME, json.dumps(metadata, indent=2), artifact="index"
        )
        retired: Path | None = None
        if target.is_dir():
            # rename(2) replaces an *empty* directory atomically, so park
            # the previous index under a fresh temp name first.
            retired = Path(
                tempfile.mkdtemp(
                    prefix=target.name + ".", suffix=".old", dir=str(target.parent)
                )
            )
            os.replace(target, retired)
        elif target.exists():
            fd, retired_name = tempfile.mkstemp(
                prefix=target.name + ".", suffix=".old", dir=str(target.parent)
            )
            os.close(fd)
            retired = Path(retired_name)
            os.replace(target, retired)
        os.replace(tmp_dir, target)
    except BaseException:  # repro: noqa(REP005) — cleanup-and-reraise of the temp directory
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    if retired is not None:
        if retired.is_dir():
            shutil.rmtree(retired, ignore_errors=True)
        else:
            retired.unlink(missing_ok=True)
    return target


def load_index(
    path: str | Path,
    feature_map: FeatureMap | None = None,
    mode: str = "auto",
) -> FunctionIndex:
    """Rebuild a :class:`FunctionIndex` from a :func:`save_index` artifact.

    ``mode`` controls how directories bind their arrays:

    * ``"auto"`` (default) — memory-map v4 directories, copy v3
      directories and v1/v2 archives (which cannot memmap from inside an
      ``.npz``).
    * ``"mmap"`` — zero-copy read-only load of a v4 directory; mutations
      raise.  Rejects v3 directories and v1/v2 archives with a pointer at
      ``mode="copy"`` or re-saving as v4.
    * ``"copy"`` — fully materialized writable load with every array
      checksum-verified.

    v2/v3/v4 artifacts are integrity-checked against their checksum
    manifests (``mmap`` loads verify the small arrays only — see the
    module docstring); v1 archives load without verification.
    """
    return _load(Path(path), feature_map, mode, _SMALL_ARRAYS)


def load_build_inputs(
    path: str | Path,
    feature_map: FeatureMap | None = None,
) -> tuple[np.ndarray, dict]:
    """The live points of an artifact and the settings to rebuild it with.

    Returns ``(points, spec)``: ``spec`` holds the ``query_model``,
    ``feature_map``, ``normals`` and ``strategy`` keyword arguments of a
    :class:`FunctionIndex` or sharded constructor.  The artifact loads as
    by ``load_index(path, feature_map)`` — a v4 directory is
    memory-mapped, so its key arrays are never copied — and the point and
    feature arrays the points are read from are checksum-verified too, so
    a damaged artifact is refused as a copy load refuses it.
    """
    index = _load(Path(path), feature_map, "auto", _BUILD_ARRAYS)
    spec = {
        "query_model": index.query_model,
        "feature_map": index.feature_map,
        "normals": index.collection.normals,
        "strategy": index.collection.strategy,
    }
    return index.get_points(index.live_ids()), spec


def _load(
    path: Path,
    feature_map: FeatureMap | None,
    mode: str,
    mapped_verified: tuple[str, ...],
) -> FunctionIndex:
    """:func:`load_index`, verifying ``mapped_verified`` under a mapped load."""
    if mode not in ("auto", "mmap", "copy"):
        raise ValueError(f"mode must be 'auto', 'mmap', or 'copy', got {mode!r}")
    if path.is_dir():
        if not (path / _MANIFEST_NAME).exists():
            raise PersistenceError(
                f"directory {path} has no {_MANIFEST_NAME} — not a save_index "
                f"directory"
            )
        return _load_dir(path, feature_map, mode, mapped_verified)
    if mode == "mmap":
        raise PersistenceError(
            f"{path} is a v1/v2 .npz archive; arrays inside an archive cannot "
            f"be memory-mapped — load with mode='copy' or re-save as format v4"
        )
    return _load_npz(path, feature_map)


def _load_npz(path: Path, feature_map: FeatureMap | None) -> FunctionIndex:
    """v1/v2 load: read the archive and rebuild the index from inputs."""
    try:
        with np.load(path) as archive:
            arrays = {
                name: archive[name]
                for name in ("points", "normals", "octant", "delta")
            }
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
    except (
        OSError,
        KeyError,
        ValueError,
        EOFError,
        json.JSONDecodeError,
        zipfile.BadZipFile,
        zlib.error,
        struct.error,
    ) as exc:
        raise PersistenceError(
            f"cannot read index archive {path}: {type(exc).__name__}: {exc} "
            f"(truncated, torn, or not a save_index archive?)"
        ) from exc
    points = arrays["points"]
    normals = arrays["normals"]
    delta = arrays["delta"]
    version = metadata.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"unsupported archive version {version!r} "
            f"(supported: {list(_SUPPORTED_VERSIONS)})"
        )
    if version >= 2:
        manifest = metadata.get("checksums")
        if not isinstance(manifest, dict) or not manifest:
            raise PersistenceError(
                f"index archive {path} (format v{version}) is missing its "
                f"checksum manifest"
            )
        verify_checksums(arrays, manifest, artifact="index", path=path)
    model = QueryModel([_domain_from_json(d) for d in metadata["domains"]])
    fmap = _feature_map_from_json(metadata["feature_map"], feature_map)
    index = FunctionIndex(
        points,
        model,
        feature_map=fmap,
        normals=normals,
        strategy=metadata["strategy"],
    )
    # Restore the translator's accumulated delta so previously observed
    # extremes stay covered even if those points were since deleted.
    index.translator.observe(-np.abs(delta)[None, :] * index.translator.octant)
    return index


def _load_dir(
    path: Path,
    feature_map: FeatureMap | None,
    mode: str,
    mapped_verified: tuple[str, ...],
) -> FunctionIndex:
    """v3/v4 load: bind the persisted derived arrays, mmap'd or copied.

    v4 key and id arrays are bound as stored.  v3 ones hold float64 keys
    and int64 ids; a copy load hands them to the key stores, which cast
    each once, and a memmap load is refused.  A copy load verifies every
    array, a mapped one only ``mapped_verified``.
    """
    try:
        metadata = json.loads((path / _MANIFEST_NAME).read_text("utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(
            f"cannot read index manifest {path / _MANIFEST_NAME}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    version = metadata.get("format_version")
    if version not in (3, 4):
        raise PersistenceError(
            f"unsupported directory-format version {version!r} in {path} "
            f"(expected 3 or 4)"
        )
    if version == 3:
        if mode == "mmap":
            raise PersistenceError(
                f"{path} is a format v3 directory (float64 keys, int64 ids), "
                f"which cannot be memory-mapped as float32/uint32 key stores — "
                f"load with mode='copy' or re-save as format v4"
            )
        mode = "copy"
    elif metadata.get("dtypes") != _DTYPES:
        raise PersistenceError(
            f"index directory {path}: manifest dtypes {metadata.get('dtypes')!r} "
            f"do not match the stored key/id dtypes {_DTYPES!r}"
        )
    n_indices = metadata.get("n_indices")
    if not isinstance(n_indices, int) or n_indices < 1:
        raise PersistenceError(
            f"index directory {path}: invalid n_indices {n_indices!r}"
        )
    manifest = metadata.get("checksums")
    if not isinstance(manifest, dict) or not manifest:
        raise PersistenceError(
            f"index directory {path} is missing its checksum manifest"
        )

    names = ["points", "features", "normals", "octant", "delta"]
    for position in range(n_indices):
        names.extend((f"keys_{position}", f"ids_{position}"))
    mmap_mode = None if mode == "copy" else "r"
    arrays: dict[str, np.ndarray] = {}
    try:
        for name in names:
            arrays[name] = np.load(
                path / f"{name}.npy", mmap_mode=mmap_mode, allow_pickle=False
            )
    except (OSError, ValueError, EOFError) as exc:
        raise PersistenceError(
            f"cannot read index array {name!r} in {path}: "
            f"{type(exc).__name__}: {exc} (truncated or torn write?)"
        ) from exc
    if version == 4:
        for position in range(n_indices):
            for kind, dtype in (("keys", KEY_DTYPE), ("ids", ID_DTYPE)):
                name = f"{kind}_{position}"
                if arrays[name].dtype != dtype:
                    raise PersistenceError(
                        f"index directory {path}: {name}.npy holds "
                        f"{arrays[name].dtype}, the manifest records {dtype}"
                    )
    verify_names = list(arrays) if mmap_mode is None else list(mapped_verified)
    verify_checksums(
        {name: arrays[name] for name in verify_names},
        {name: manifest[name] for name in verify_names if name in manifest},
        artifact="index",
        path=path,
    )

    model = QueryModel([_domain_from_json(d) for d in metadata["domains"]])
    fmap = _feature_map_from_json(metadata["feature_map"], feature_map)
    octant = np.array(arrays["octant"], dtype=np.float64)
    delta = np.array(arrays["delta"], dtype=np.float64)
    translator = Translator(octant)
    # One synthetic extreme row restores delta exactly (delta >= 0 and
    # reflect(-delta * octant) == -delta), without paging the features in.
    translator.observe(-np.abs(delta)[None, :] * octant)

    if mmap_mode is None:
        features_store = FeatureStore(arrays["features"])
    else:
        features_store = FeatureStore.from_backing(arrays["features"])
    normals = np.array(arrays["normals"], dtype=np.float64)
    if normals.ndim != 2 or normals.shape[0] != n_indices:
        raise PersistenceError(
            f"index directory {path}: normals shape {normals.shape} does not "
            f"match n_indices {n_indices}"
        )
    prebuilt = [
        (normals[position], arrays[f"ids_{position}"], arrays[f"keys_{position}"])
        for position in range(n_indices)
    ]
    collection = PlanarIndexCollection._from_prebuilt(
        features_store, translator, prebuilt, metadata["strategy"]
    )
    return FunctionIndex._from_prebuilt(
        arrays["points"],
        features_store,
        translator,
        collection,
        fmap,
        model,
    )
