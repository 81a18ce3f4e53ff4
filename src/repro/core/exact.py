"""Exact decisions of ``<a, phi(x)> OP b`` and exact top-k distances.

Every path that decides whether a stored row satisfies a query (interval
verification, the scan route, the octant-fallback and recovery scans,
``SequentialScan``, constraint verification, the PCA band) decides it
here, and every reported top-k distance is computed here, so all of them
answer as real arithmetic on the stored float64 values would.

A BLAS dot product of length ``d`` is within ``E`` (:func:`error_bound`)
of the exact value given a bound on ``S = sum_i |a_i phi_i|``: the
translated octant supplies one on indexed paths (:func:`octant_bound`),
the column maxima of the rows elsewhere (:func:`column_bound`).  Rows whose
BLAS value lies outside ``[b - E, b + E]`` are decided from it; the few
inside are re-decided from the exactly rounded residual (:func:`residuals`:
Dekker TwoProduct plus ``math.fsum``, ``Fraction`` when a product under- or
overflows the split).  :func:`key_band` applies the same rounding model to
the stored index keys, including their rounding to float32, and
:func:`key_window` bounds the key a stored row was filed under so that
maintenance finds its entry by key.  Derivations: ``docs/algorithms.md``
section 6.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "column_bound",
    "error_bound",
    "key_band",
    "key_rounding",
    "key_window",
    "octant_bound",
    "residuals",
    "satisfying",
    "select",
    "sorted_by_distance",
]

_U = 2.0 ** -53
# Smallest subnormal: a product that underflows is off by at most half.
_ETA = 2.0 ** -1074
# Veltkamp's splitting constant 2**27 + 1.
_SPLITTER = 134217729.0
# TwoProduct is error-free while no nonzero product nears the subnormal
# range; larger products could overflow fsum's partials.
_PRODUCT_MIN = 2.0 ** -960
_PRODUCT_MAX = 2.0 ** 1000
# Rounding a key to float32 (the stored key dtype): unit roundoff, and half
# the smallest float32 subnormal for keys that round into or below it.
_U32 = 2.0 ** -24
_ETA32 = 2.0 ** -150


def error_bound(magnitude, dim: int):
    """Forward error ``E`` of a length-``dim`` dot product with ``S <= magnitude``.

    ``2 gamma_{dim+2} * magnitude`` plus ``dim + 4`` smallest subnormals;
    the factor 2 covers ``(1 - gamma)**-1`` and rounding ``S`` and
    ``b +- E``.  Broadcasts over arrays.
    """
    n = dim + 2
    return 2.0 * (n * _U / (1.0 - n * _U)) * magnitude + (dim + 4) * _ETA


def octant_bound(wq) -> float:
    """``E`` for rows stored in ``wq``'s translated octant.

    ``S <= <a, phi> + 2 <a'', delta>`` there, and a misjudged row has
    ``<a, phi>`` within ``E`` of ``b``; ``<a'', delta> = b'' - b``.
    """
    offset = wq.query.offset
    magnitude = abs(offset) + 2.0 * abs(wq.offset_w - offset)
    return error_bound(magnitude, wq.query.normal.size)


def column_bound(query, column_max: np.ndarray) -> float:
    """``E`` for rows whose column magnitudes are at most ``column_max``."""
    return error_bound(float(np.abs(query.normal) @ column_max), query.normal.size)


def key_rounding(magnitude):
    """Bound on ``|stored - computed|`` for a float32 key of magnitude <= ``magnitude``.

    ``2**-24`` relative plus half the smallest float32 subnormal.  Keys
    that saturated at the float32 maximum are not covered: the SI/LI
    probes (:func:`repro.core.sorted_keys.key_probes`) keep them out of
    both certain intervals.  Broadcasts over arrays.
    """
    return _U32 * magnitude + _ETA32


def key_band(t_abs_max, ratio_max, key_offset, offset, dim: int):
    """SI/LI guard band around the stored-key thresholds ``T_i - <c'', delta>``.

    Covers the float64 key rounding, the rounding of
    ``T_i = (c''_i / a''_i) b''`` and of ``b''``, and the subtraction, for
    ``t_abs_max = max_i |T_i|``, ``ratio_max = max_i c''_i / a''_i`` and
    ``key_offset = <c'', delta>``.  An underflow in ``b''`` reaches ``T_i``
    scaled by ``c''_i / a''_i``, hence the second subnormal term.  A key
    near a threshold has magnitude at most ``t_abs_max + |key_offset|``,
    and its float32 rounding (:func:`key_rounding`) is the last term.
    Broadcasts over arrays for the tuning advisor's replay.
    """
    key_offset = np.abs(key_offset)
    negative = np.maximum(0.0, -offset)
    magnitude = 4.0 * t_abs_max + 5.0 * key_offset + 2.0 * ratio_max * negative
    return (
        error_bound(magnitude, dim)
        + (dim + 4) * ratio_max * _ETA
        + key_rounding(t_abs_max + key_offset)
    )


def key_window(rows: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 ``(low, high)`` holding the float64 key each of ``rows`` was stored under.

    A stored key is some float64 evaluation of ``<c, phi(x)>`` (the build
    matrix product, a maintenance matrix-vector product, a key persisted
    by an older format), and so is the key recomputed here: both lie
    within ``E = error_bound(sum_i |c_i phi_i|, d)`` of the exact value,
    hence within ``2E`` of each other.  ``k -+ 2E`` is then stepped one
    ulp outward to cover its own rounding.  A key or bound that overflows
    gives an unbounded window.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    keys = rows @ normal
    width = 2.0 * error_bound(np.abs(rows) @ np.abs(normal), normal.size)
    with np.errstate(invalid="ignore", over="ignore"):
        low = np.nextafter(keys - width, -np.inf)
        high = np.nextafter(keys + width, np.inf)
    low[np.isnan(low)] = -np.inf
    high[np.isnan(high)] = np.inf
    return low, high


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scaled = _SPLITTER * x
    high = scaled - (scaled - x)
    return high, x - high


def _fraction_residual(row: list, normal: list, offset: float) -> float:
    exact = sum((Fraction(x) * Fraction(a) for x, a in zip(row, normal)), Fraction(0))
    exact -= Fraction(offset)
    try:
        rounded = float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf
    if rounded == 0.0 and exact:
        # Below half the smallest subnormal: keep the sign, not the zero.
        return _ETA if exact > 0 else -_ETA
    return rounded


def residuals(rows: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Exactly rounded ``<normal, row> - offset`` for every row of ``rows``.

    A row's result depends only on that row, never on the rows evaluated
    with it.  Its sign is the exact residual's: a nonzero residual too
    small for a subnormal comes back as ``+-2**-1074``.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, np.size(normal))
    normal = np.asarray(normal, dtype=np.float64)
    with np.errstate(all="ignore"):
        products = rows * normal
        rows_hi, rows_lo = _split(rows)
        normal_hi, normal_lo = _split(normal)
        errors = (
            (rows_hi * normal_hi - products) + rows_hi * normal_lo + rows_lo * normal_hi
        ) + rows_lo * normal_lo
        magnitude = np.abs(products)
        # A split that overflowed leaves a non-finite error term.
        safe = (magnitude >= _PRODUCT_MIN) & (magnitude <= _PRODUCT_MAX) & np.isfinite(errors)
    if not safe.all():
        # A zero factor makes its product exact whatever the split did; a
        # row with any other product out of range goes to Fraction.
        zero = (rows == 0.0) | (normal == 0.0)
        errors[zero] = 0.0
        safe |= zero
    safe = safe.all(axis=1).tolist()
    out = np.empty(rows.shape[0], dtype=np.float64)
    rest = -float(offset)
    for position, (p, e, ok) in enumerate(zip(products.tolist(), errors.tolist(), safe)):
        if ok:
            try:
                out[position] = math.fsum([*p, *e, rest])
                continue
            except OverflowError:
                pass
        out[position] = _fraction_residual(rows[position].tolist(), normal.tolist(), -rest)
    return out


def _holds(residual: np.ndarray, op) -> np.ndarray:
    """``<a, phi> OP b`` from the sign of the exact residual."""
    if op.is_upper_bound:
        return residual < 0.0 if op.is_strict else residual <= 0.0
    return residual > 0.0 if op.is_strict else residual >= 0.0


def select(
    values: np.ndarray,
    query,
    bound: float,
    rows: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Ascending positions of the rows satisfying ``query``, decided exactly.

    ``values`` are the rows' BLAS products with ``query.normal`` and
    ``bound`` their forward error ``E``.  Only candidates within ``E`` of
    ``b`` are fetched through ``rows(positions)`` and re-decided.
    """
    offset = query.offset
    low, high = offset - bound, offset + bound
    if query.op.is_upper_bound:
        candidates = np.flatnonzero(values <= high)
        band = values[candidates] >= low
    else:
        candidates = np.flatnonzero(values >= low)
        band = values[candidates] <= high
    if not band.any():
        return candidates
    keep = _holds(residuals(rows(candidates[band]), query.normal, offset), query.op)
    band[band] = ~keep
    return candidates[~band]


def satisfying(
    rows: np.ndarray, query, bound: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, values)``: ascending rows satisfying ``query``, all products.

    ``bound`` is the forward error ``E`` the caller knows (:func:`octant_bound`
    on indexed paths); without one it comes from the column maxima of
    ``rows``.  Any dtype, layout or memmap is accepted.
    """
    rows = np.asarray(rows, dtype=np.float64)
    values = rows @ query.normal
    if bound is None:
        bound = column_bound(query, np.abs(rows).max(axis=0, initial=0.0))
    return select(values, query, bound, rows.__getitem__), values


def sorted_by_distance(
    ids: np.ndarray, rows: np.ndarray, query
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, distances)`` ascending by exact hyperplane distance, ties by id.

    A distance is ``|residual| / |a|`` with the exactly rounded residual,
    so equal winner sets report bit-identical distances on every path.
    """
    norm = float(np.linalg.norm(query.normal))
    distances = np.abs(residuals(rows, query.normal, query.offset)) / norm
    order = np.lexsort((ids, distances))
    return ids[order], distances[order]
