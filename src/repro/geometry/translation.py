"""Coordinate translation into a working hyper-octant (Section 4.5, Claim 1).

The Planar interval arguments (Observations 1 and 2) are only valid when all
feature vectors ``phi(x)`` and all query parameters are positive — i.e. in
the first hyper-octant.  The paper handles general data and queries with a
two-step coordinate change which this module implements:

1. **Reflection.**  Let ``O`` be the octant (axis-sign vector) in which query
   hyperplanes cross the axes — derivable from the parameter domains.
   Reflecting every axis by ``sign(O, i)`` maps octant ``O`` onto the first
   octant and makes every effective query parameter
   ``a''_i = sign(O, i) * a_i`` positive.

2. **Translation.**  Shift each reflected axis by
   ``delta_i = max_x max(0, -sign(O, i) * phi_i(x))`` (Eq. 10) so that every
   reflected-and-shifted coordinate is nonnegative.  By Eq. 12 the query
   offset becomes ``b'' = b + sum_i sign(O, i) * a_i * delta_i >= b >= 0``,
   so the transformed query still crosses the axes inside the first octant
   (Claim 1).

A crucial implementation detail: translating by ``delta`` adds the *same*
constant ``<c, delta>`` to every index key ``<c, phi''(x)>``, so the sorted
key order is translation-invariant.  The :class:`Translator` therefore lets
the index store *reflected but untranslated* keys and apply the scalar key
offset (:func:`repro.core.selection.key_offsets`) lazily at query time — growing ``delta`` when new extreme points
arrive costs O(1) and never forces a re-sort.
"""

from __future__ import annotations

import numpy as np

from .._util import as_1d_float, as_2d_float
from ..analysis.contracts import array_contract
from ..exceptions import DimensionMismatchError, InvalidQueryError

__all__ = ["Translator"]


class Translator:
    """Reflection + translation into the first octant for one sign pattern.

    Parameters
    ----------
    octant:
        Axis-sign vector of the octant in which query hyperplanes cross the
        axes (entries +1/-1), typically from
        :func:`repro.geometry.octant_from_domains`.

    ``delta`` grows to exactly the deepest excursion below zero seen so far
    (Eq. 10), as in the paper.
    """

    def __init__(self, octant: np.ndarray) -> None:
        signs = np.asarray(octant, dtype=np.float64)
        if signs.ndim != 1 or not np.all(np.isin(signs, (-1.0, 1.0))):
            raise InvalidQueryError(
                "octant must be a 1-D vector of +1/-1 axis signs"
            )
        self._signs = signs
        self._signs.setflags(write=False)
        self._delta = np.zeros(signs.size, dtype=np.float64)
        self._delta.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Dimensionality ``d'`` of the feature space."""
        return int(self._signs.size)

    @property
    def octant(self) -> np.ndarray:
        """The configured axis-sign vector (read-only view)."""
        return self._signs

    @property
    def delta(self) -> np.ndarray:
        """Current translation vector ``delta`` (copy)."""
        return self._delta.copy()

    @property
    def delta_view(self) -> np.ndarray:
        """The current ``delta`` array itself, read-only.

        :meth:`observe` never writes an array it has handed out: growth
        binds a new one.  The object therefore names one translation, and
        a value derived from it and kept with it (the selection
        snapshot's key offsets) can be checked for staleness by identity.
        """
        return self._delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Translator(octant={self._signs.astype(np.int64).tolist()}, delta={self._delta.tolist()})"

    # ------------------------------------------------------------------ #
    # Fitting / maintenance
    # ------------------------------------------------------------------ #

    @array_contract("points: (m, d) float64 cast promote")
    def observe(self, points: np.ndarray) -> bool:
        """Grow ``delta`` so the given feature vectors fit the working octant.

        Returns ``True`` when ``delta`` changed.  ``delta`` never shrinks:
        a larger-than-necessary translation remains valid (Claim 1 only
        needs all points inside the octant), and monotone growth keeps
        previously issued key offsets consistent.
        """
        pts = as_2d_float(points, "points")
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, translator has {self.dim}"
            )
        if pts.shape[0] == 0:
            return False
        # Required shift per axis: deepest excursion below zero after reflection.
        reflected = pts * self._signs
        needed = np.maximum(0.0, -reflected.min(axis=0))
        grew = needed > self._delta
        if not np.any(grew):
            return False
        delta = np.where(grew, needed, self._delta)
        delta.setflags(write=False)
        self._delta = delta
        return True

    # ------------------------------------------------------------------ #
    # Coordinate maps
    # ------------------------------------------------------------------ #

    @array_contract("points: (m, d) float64 cast promote", returns="(m, d) float64")
    def reflect(self, points: np.ndarray) -> np.ndarray:
        """Apply only the axis reflection (no shift) to feature vectors."""
        pts = as_2d_float(points, "points")
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, translator has {self.dim}"
            )
        return pts * self._signs

    @array_contract("points: (m, d) float64 cast promote", returns="(m, d) float64")
    def to_working(self, points: np.ndarray) -> np.ndarray:
        """Map feature vectors into the working (first) octant: reflect + shift."""
        return self.reflect(points) + self._delta

    @array_contract("normal: (d,) float64 cast", returns="(d,) float64")
    def reflect_normal(self, normal: np.ndarray) -> np.ndarray:
        """Map a hyperplane normal into working coordinates.

        In working coordinates the normal components must all be positive for
        the interval argument to apply; callers validate via
        :meth:`transform_query`.
        """
        vec = as_1d_float(normal, "normal")
        if vec.size != self._signs.size:
            raise DimensionMismatchError(
                f"normal has dimension {vec.size}, translator has {self.dim}"
            )
        return vec * self._signs

    @array_contract("normal: (d,) float64 cast")
    def transform_query(self, normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
        """Express the query ``<normal, Y> <= offset`` in working coordinates.

        Returns ``(a'', b'')`` with every ``a''_i > 0``, such that
        ``<a'', Y''> <= b''`` holds iff the original inequality holds
        (Eq. 12).  A negative ``b''`` means the query hyperplane misses the
        working octant entirely; the interval split then degenerates
        gracefully (empty SI/II, everything in LI), so it is allowed.

        Raises
        ------
        InvalidQueryError
            If the query's parameter signs do not match the configured
            octant (some ``sign(O, i) * a_i <= 0``).
        """
        working_normal = self.reflect_normal(normal)
        # fmin skips NaN, so this is ``any(working_normal <= 0)`` in one call.
        if np.fmin.reduce(working_normal) <= 0.0:
            bad = int(np.argmax(working_normal <= 0.0))
            raise InvalidQueryError(
                f"query parameter {bad} has sign incompatible with the "
                f"indexed octant (a_{bad} = {normal[bad]!r}, octant sign = "
                f"{int(self._signs[bad])}); re-derive domains or use the "
                "sequential-scan fallback"
            )
        working_offset = float(offset) + float(working_normal.dot(self._delta))
        return working_normal, working_offset
