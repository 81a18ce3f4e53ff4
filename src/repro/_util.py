"""Internal helpers shared across the repro subpackages.

These utilities centralise argument validation and RNG handling so that the
public modules stay focused on the algorithms from the paper.  Nothing in this
module is part of the public API.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError

__all__ = [
    "as_rng",
    "as_1d_float",
    "as_2d_float",
    "describe_nonfinite",
    "require_finite_rows",
    "require_unique",
]

#: Cap on how many offending positions a non-finite error message names.
_MAX_NAMED_POSITIONS = 8


def describe_nonfinite(array: np.ndarray, *, limit: int = _MAX_NAMED_POSITIONS) -> str:
    """Name the non-finite entries of ``array`` (positions and values).

    Returns e.g. ``"[3]=nan, [7]=inf"`` for a vector or
    ``"[2, 0]=nan"`` for a matrix, truncated to ``limit`` entries so a
    million-NaN batch stays readable.  Empty string when all finite.
    """
    bad = np.argwhere(~np.isfinite(array))
    if bad.size == 0:
        return ""
    parts = []
    for position in bad[:limit]:
        index = tuple(int(i) for i in position)
        label = str(index[0]) if len(index) == 1 else ", ".join(map(str, index))
        parts.append(f"[{label}]={array[index]!r}")
    more = len(bad) - min(len(bad), limit)
    suffix = f", … {more} more" if more > 0 else ""
    return ", ".join(parts) + suffix


def require_finite_rows(array: np.ndarray, name: str) -> np.ndarray:
    """Raise :class:`DimensionMismatchError` naming non-finite positions.

    Eager NaN/inf rejection for inserted/updated points and features:
    letting a NaN reach the sorted key arrays poisons every downstream
    SI/LI/II binary search (NaN comparisons are unordered, so
    ``searchsorted`` windows silently come back wrong), so the facades
    fail fast and name the offending entries instead.
    """
    if not np.all(np.isfinite(array)):
        raise DimensionMismatchError(
            f"{name} must be finite; non-finite entries at "
            f"{describe_nonfinite(array)}"
        )
    return array


def as_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed_or_rng``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for nondeterministic entropy.  Library code never touches the
    legacy global numpy RNG.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def as_1d_float(values: Sequence[float] | np.ndarray, name: str = "array") -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D float64 array, validating shape."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    return arr


def as_2d_float(values: Sequence[Sequence[float]] | np.ndarray, name: str = "array") -> np.ndarray:
    """Coerce ``values`` to a contiguous 2-D float64 array, validating shape.

    A 1-D input is promoted to a single-row matrix so that callers can pass
    one point where a batch is expected.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be two-dimensional, got shape {arr.shape}"
        )
    return arr


def require_unique(values: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` when ``values`` repeats an element.

    One sort and one neighbour compare: ``np.unique`` hashes, which costs
    several times more on integer batches.
    """
    ordered = np.sort(values)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError(message)
