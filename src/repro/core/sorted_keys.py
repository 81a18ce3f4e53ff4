"""The sorted key list ``L`` at the heart of a Planar index (Section 4.2).

One Planar index keeps, for every data point ``x``, the scalar key
``<c, phi(x)>`` and maintains all keys in ascending order.  Queries binary
search this order (Eq. 7); dynamic workloads update, insert, and delete
entries (Section 4.4).

The store maps *external point ids* (nonnegative integers below ``2**32``
chosen by the caller) to keys, so the same ids can be shared across the
multiple indices of a collection and across the raw-point storage of the
facade.

Implementation notes
--------------------
One representation, 8 B per point: keys are computed in float64, rounded
once to a contiguous ``float32`` array (:data:`KEY_DTYPE`, saturating at
the float32 range instead of overflowing), and ids are ``uint32``
(:data:`ID_DTYPE`) — a :class:`~repro.core.feature_store.FeatureStore`
id is a row position and its capacity stays below ``2**32``.  The SI/LI
guard band (:func:`repro.core.exact.key_band`) absorbs the key rounding,
and :func:`key_probes` rounds the float64 thresholds to float32 in the
safe direction, so the three intervals stay exact.

Construction sorts once: each ``(key, id)`` pair is packed into one
``uint64`` word (order-preserving key bits high, id low), and a plain
``np.sort`` of the words yields the stable ``(key, id)`` order.

Maintenance drops entries by id and merges new ones in one pass: an id
mask over the stored ids selects the entries to keep, one compression per
array removes the others, and one sorted merge adds the new pairs.  That is
O(n + b log b) per batch of ``b`` changes; collections defer their writes
and merge them in batches (:mod:`repro.core.write_log`), so the O(n) is
paid once per many writes (the paper's O(log n) per change assumes a
balanced tree; the asymptotic *query* complexity is identical).  An insert
skips its clash check when every new id is at or above the store's id
bound, the largest id it ever held plus one — always true for ids from
``FeatureStore.append``.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import as_1d_float, require_unique
from ..analysis.contracts import array_contract
from ..exceptions import DimensionMismatchError

__all__ = [
    "ID_DTYPE",
    "ID_MAX",
    "KEY_DTYPE",
    "SortedKeyStore",
    "WORD_DTYPE",
    "as_keys",
    "key_probes",
]

#: Stored key dtype; ``exact.key_band`` widens the SI/LI band by its rounding.
KEY_DTYPE = np.dtype(np.float32)  # repro: noqa(REP002) — 4-byte keys; exact.key_band covers their rounding
#: Stored id dtype; ids are FeatureStore row positions, capped at ``ID_MAX``.
ID_DTYPE = np.dtype(np.uint32)  # repro: noqa(REP002) — 4-byte ids; FeatureStore capacity stays below 2**32
#: One packed ``(key bits, id)`` word of the construction sort.
WORD_DTYPE = np.dtype(np.uint64)  # repro: noqa(REP002) — sort words, never stored past the build

#: Largest id a key store can hold.
ID_MAX = int(np.iinfo(ID_DTYPE).max)
_KEY_MAX = float(np.finfo(KEY_DTYPE).max)
# The largest key strictly inside the float32 range.  SI probes are capped
# at +_PROBE_CAP and LI probes at -_PROBE_CAP, so a key that saturated at
# +-_KEY_MAX never lands in SI (LI) without verification.
_PROBE_CAP = np.nextafter(KEY_DTYPE.type(_KEY_MAX), KEY_DTYPE.type(0.0))
_DOWN = KEY_DTYPE.type(-np.inf)
_UP = KEY_DTYPE.type(np.inf)
_NO_IDS = np.empty(0, dtype=ID_DTYPE)
_NO_KEYS = np.empty(0, dtype=KEY_DTYPE)
_SIGN = 1 << 31
_LOW_BITS = _SIGN - 1


def as_keys(values: np.ndarray) -> np.ndarray:
    """float64 keys rounded once to :data:`KEY_DTYPE`.

    Values beyond the float32 range saturate at its maximum instead of
    becoming ``inf``, and ``-0.0`` is stored as ``+0.0`` so equal keys
    pack to equal sort words.
    """
    values = np.asarray(values, dtype=np.float64)
    keys = np.clip(values, -_KEY_MAX, _KEY_MAX).astype(KEY_DTYPE)
    keys += 0.0
    return keys


def _round(values, toward: np.floating):
    """float64 ``values`` rounded to float32 toward ``toward`` (+-inf).

    Clipping to the float32 range first keeps the cast finite; a value
    beyond it then steps to the infinity it lies toward.  A scalar takes
    a Python-float path (a query probes two thresholds, and numpy's 0-d
    overhead would dominate), compared as float64 so NumPy's weak-scalar
    promotion cannot round the comparison itself.
    """
    if not isinstance(values, np.ndarray):
        value = float(values)
        if abs(value) > _KEY_MAX:
            outward = (value > 0) == (toward > 0)
            return toward if outward else KEY_DTYPE.type(math.copysign(_KEY_MAX, value))
        near = KEY_DTYPE.type(value)
        if float(near) < value if toward > 0 else float(near) > value:
            near = np.nextafter(near, toward)
        return near
    values = np.asarray(values, dtype=np.float64)
    near = np.clip(values, -_KEY_MAX, _KEY_MAX).astype(KEY_DTYPE)
    missed = near < values if toward > 0 else near > values
    with np.errstate(over="ignore"):
        return np.where(missed, np.nextafter(near, toward), near)


def key_probes(low, high) -> tuple[np.ndarray, np.ndarray]:
    """float32 binary-search probes for the SI bound ``low`` and LI bound ``high``.

    ``low`` rounds down and ``high`` rounds up, so a float32 key at most
    the SI probe is at most ``low`` and one above the LI probe is above
    ``high``.  The SI probe is capped at the largest key strictly below
    the float32 maximum, the LI probe at its negation: saturated keys are
    never certain.  Never probe with float64 values — ``searchsorted``
    would upcast the whole key array.  Broadcasts over arrays.
    """
    low, high = _round(low, _DOWN), _round(high, _UP)
    if isinstance(low, np.ndarray) or isinstance(high, np.ndarray):
        return np.minimum(low, _PROBE_CAP), np.maximum(high, -_PROBE_CAP)
    return min(low, _PROBE_CAP), max(high, -_PROBE_CAP)


def _as_ids(ids) -> np.ndarray:
    """``ids`` as a contiguous :data:`ID_DTYPE` array, range-checked."""
    ids = np.asarray(ids)
    if ids.dtype != ID_DTYPE:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() > ID_MAX):
            raise ValueError(f"point ids must lie in [0, {ID_MAX}]")
    return np.ascontiguousarray(ids, dtype=ID_DTYPE)


def _sorted_pairs(keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, ids)`` in ascending ``(key, id)`` order by one packed sort.

    The high half of each word holds the key's float32 bits mapped to an
    unsigned order (sign bit flipped for positive keys, all bits for
    negative ones), the low half holds the id.  Keys come from
    :func:`as_keys`, so there is no ``-0.0`` to order apart from ``+0.0``.
    """
    bits = keys.view(ID_DTYPE)
    bits = bits ^ ((bits >> 31) * _LOW_BITS | _SIGN)
    words = (bits.astype(WORD_DTYPE) << 32) | ids
    words.sort()
    high = (words >> 32).astype(ID_DTYPE)
    high ^= ((high >> 31) ^ 1) * _LOW_BITS | _SIGN
    return high.view(KEY_DTYPE), words.astype(ID_DTYPE)


class SortedKeyStore:
    """Ascending key order over ``(point id, key)`` pairs with dynamic updates."""

    @array_contract("keys: (n,) float32 cast", "ids: ?(n,) uint32 cast")
    def __init__(
        self,
        keys: np.ndarray,
        ids: np.ndarray | None = None,
        trusted: bool = False,
        presorted: bool = False,
    ) -> None:
        """``keys`` are float64 (rounded here, once) or already
        :data:`KEY_DTYPE`.  ``trusted=True`` skips finiteness/uniqueness
        validation — used by bulk index construction where the same vetted
        id array backs many sibling indices (validation would otherwise
        dominate build time).

        ``presorted=True`` additionally binds ``keys``/``ids`` as the
        already-ascending order without the sort pass or a copy when they
        already have the stored dtypes — the memmap load path uses it so
        opening a persisted index never pages the key arrays in.  Keys
        must genuinely be ascending; this is not validated (the
        persistence layer wrote them from a sorted store).
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise DimensionMismatchError(
                f"keys must be one-dimensional, got shape {keys.shape}"
            )
        if not trusted and not np.all(np.isfinite(keys)):
            raise ValueError("keys must be finite")
        if keys.dtype != KEY_DTYPE:
            keys = as_keys(keys)
        if ids is None:
            ids = np.arange(keys.size, dtype=ID_DTYPE)
        else:
            ids = np.asarray(ids)
            if ids.ndim != 1:
                raise DimensionMismatchError(f"ids must be 1-D, got shape {ids.shape}")
            if ids.size != keys.size:
                raise DimensionMismatchError(f"{ids.size} ids for {keys.size} keys")
            ids = _as_ids(ids)
            if not trusted:
                require_unique(ids, "ids must be unique")
        if presorted:
            self._keys = keys
            self._ids = ids
        else:
            self._keys, self._ids = _sorted_pairs(keys, ids)
        # The largest id ever held plus one, computed on the first insert so
        # that binding memmapped arrays pages nothing in.
        self._id_bound: int | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self._keys.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedKeyStore(n={len(self)})"

    @property
    def sorted_keys(self) -> np.ndarray:
        """Keys in ascending order (read-only view)."""
        view = self._keys.view()
        view.setflags(write=False)
        return view

    @property
    def sorted_ids(self) -> np.ndarray:
        """Point ids in ascending key order (read-only view)."""
        view = self._ids.view()
        view.setflags(write=False)
        return view

    def memory_bytes(self) -> int:
        """Heap footprint of the key and id arrays (8 B per entry)."""
        return int(self._keys.nbytes + self._ids.nbytes)

    # ------------------------------------------------------------------ #
    # Binary search (Eq. 7)
    # ------------------------------------------------------------------ #

    def rank_le(self, threshold: float) -> int:
        """Number of entries with key <= threshold — the paper's ``Small(i)+1``.

        Exact for any real ``threshold``: it is rounded down to the float32
        probe the search runs on (a :func:`key_probes` probe is unchanged).
        """
        return int(np.searchsorted(self._keys, _round(threshold, _DOWN), side="right"))

    def probe_ranks(self, probe_lo, probe_hi) -> tuple[int, int]:
        """:meth:`rank_le` of two float32 :func:`key_probes` probes.

        They are searched as they are: rounding a float32 value down to
        float32 returns it unchanged.
        """
        keys = self._keys
        return int(keys.searchsorted(probe_lo, "right")), int(keys.searchsorted(probe_hi, "right"))

    def ids_in_rank_range(self, start: int, stop: int) -> np.ndarray:
        """Point ids at sorted positions ``[start, stop)``."""
        return self._ids[start:stop]

    def keys_in_rank_range(self, start: int, stop: int) -> np.ndarray:
        """Keys at sorted positions ``[start, stop)``."""
        return self._keys[start:stop]

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 4.4) — all vectorized
    # ------------------------------------------------------------------ #

    @staticmethod
    def _validate_batch(point_ids: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Check one batch and convert it to the stored dtypes, once."""
        point_ids = _as_ids(point_ids)
        keys = as_1d_float(keys, "keys")
        if point_ids.size != keys.size:
            raise DimensionMismatchError(f"{point_ids.size} ids for {keys.size} keys")
        if point_ids.size and not np.all(np.isfinite(keys)):
            raise ValueError("keys must be finite")
        require_unique(point_ids, "batch ids must be unique")
        return point_ids, as_keys(keys)

    def _id_limit(self) -> int:
        """The largest id this store ever held plus one (computed once)."""
        if self._id_bound is None:
            self._id_bound = int(self._ids.max()) + 1 if self._ids.size else 0
        return self._id_bound

    def _apply(
        self, drop: np.ndarray, add_ids: np.ndarray, add_keys: np.ndarray, context: str
    ) -> None:
        """Remove the entries of ``drop`` and merge ``(add_ids, add_keys)``, in one pass.

        Raises before changing anything: :class:`KeyError` unless every
        dropped id is held, :class:`ValueError` if an added id is held and
        not dropped.
        """
        bound = self._id_limit()
        if add_ids.size and int(add_ids.min()) < bound:
            held = add_ids[add_ids < bound]
            held = held[~np.isin(held, drop)]
            clashes = held[np.isin(held, self._ids)] if held.size else held
            if clashes.size:
                raise ValueError(f"point ids already present: {clashes[:5].tolist()}")
        keys, ids = self._keys, self._ids
        if drop.size:
            flags = np.zeros(bound + 1, dtype=bool)
            flags[drop[drop < bound]] = True
            keep = ~np.take(flags, ids)
            if ids.size - int(np.count_nonzero(keep)) != drop.size:
                missing = np.setdiff1d(drop, ids[~keep])[:5].tolist()
                raise KeyError(f"unknown point ids in {context}: {missing}")
            keys, ids = keys[keep], ids[keep]
        if add_ids.size:
            add_keys, add_ids = _sorted_pairs(add_keys, add_ids)
            positions = np.searchsorted(keys, add_keys, side="right")
            keys = np.insert(keys, positions, add_keys)
            ids = np.insert(ids, positions, add_ids)
            self._id_bound = max(bound, int(add_ids.max()) + 1)
        self._keys, self._ids = keys, ids

    @array_contract(
        "drop: (s,) uint32 cast",
        "point_ids: (m,) uint32 cast",
        "keys: (m,) float32 cast",
    )
    def update_batch(self, drop: np.ndarray, point_ids: np.ndarray, keys: np.ndarray) -> None:
        """Drop the entries of ``drop`` and add ``(point_ids, keys)`` in one pass.

        Re-keying points is ``update_batch(ids, ids, new_keys)``; a
        collection's merge drops its stale entries and adds its pending
        ones.
        """
        point_ids, keys = self._validate_batch(point_ids, keys)
        drop = _as_ids(drop)
        require_unique(drop, "dropped ids must be unique")
        self._apply(drop, point_ids, keys, "update")

    @array_contract("point_ids: (m,) uint32 cast", "keys: (m,) float32 cast")
    def insert(self, point_ids: np.ndarray, keys: np.ndarray) -> None:
        """Add new points to the index order."""
        point_ids, keys = self._validate_batch(point_ids, keys)
        self._apply(_NO_IDS, point_ids, keys, "insert")

    @array_contract("point_ids: (m,) uint32 cast")
    def delete(self, point_ids: np.ndarray) -> None:
        """Remove points by id."""
        point_ids = _as_ids(point_ids)
        require_unique(point_ids, "delete ids must be unique")
        self._apply(point_ids, _NO_IDS, _NO_KEYS, "delete")
