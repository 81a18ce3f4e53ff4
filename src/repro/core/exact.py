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
overflows the split).  The scan route reads a float32 column copy of the
rows instead (:func:`scan_columns`, :func:`scan`): its values come with
their own bound ``E32`` and are compared against float32 thresholds rounded
outward.  :func:`key_band` applies the same rounding model to
the stored index keys, including their rounding to float32.  Derivations:
``docs/algorithms.md`` section 6.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .sorted_keys import _DOWN, _UP, KEY_DTYPE, _round

__all__ = [
    "SCAN_DTYPE",
    "column_bound",
    "column_magnitudes",
    "error_bound",
    "key_band",
    "key_rounding",
    "octant_bound",
    "residuals",
    "satisfying",
    "scan",
    "scan_columns",
    "scan_scale",
    "select",
    "sorted_by_distance",
]

#: dtype of the scan route's column copy of the feature rows.
SCAN_DTYPE = KEY_DTYPE

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
# The float32 scan: the smallest float32 subnormal (a rounding of a float64
# below the normal range is off by at most half of it, a float64 scaling
# that underflows by far less), the float32 maximum, and 2**128, where a
# float64 rounds to infinity in float32.
_TINY32 = 2.0 ** -149
_MAX32 = float(np.finfo(KEY_DTYPE).max)
_LIMIT32 = 2.0 ** 128
# Below this magnitude no product or partial sum of a scan value overflows.
_FINITE32 = 2.0 ** 125
# Query normals whose largest |a_i| lies in this range are scanned unscaled.
_SCALE_FREE = (2.0 ** -64, 2.0 ** 64)


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
    Broadcasts over arrays of columns for EXPLAIN and the tuning
    advisor's replay; ``offset`` is the query's one ``b``.  On Python
    floats (the chooser's one column) it makes no numpy call.
    """
    key_offset = abs(key_offset)
    negative = max(0.0, -offset)
    magnitude = 4.0 * t_abs_max + 5.0 * key_offset + 2.0 * ratio_max * negative
    return (
        error_bound(magnitude, dim)
        + (dim + 4) * ratio_max * _ETA
        + key_rounding(t_abs_max + key_offset)
    )


def column_magnitudes(rows: np.ndarray) -> np.ndarray:
    """``min(max_j |x_ji|, 2**128)`` per column of ``rows``.

    Bounds ``|x_i|`` for every row whose float32 copy is finite: a value of
    magnitude ``2**128`` or more rounds to infinity.  The elementwise
    maximum of two results bounds the rows of both.
    """
    rows = np.asarray(rows, dtype=np.float64)
    return np.minimum(np.abs(rows).max(axis=0, initial=0.0), _LIMIT32)


def scan_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(columns, magnitudes)``: the float32 ``(d, m)`` scan copy of ``rows``.

    Column-major, so :func:`scan` streams ``d`` contiguous float32 rows;
    values beyond the float32 range become infinite.  ``magnitudes`` is
    :func:`column_magnitudes` of ``rows``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        columns = np.ascontiguousarray(rows.T, dtype=SCAN_DTYPE)
    return columns, column_magnitudes(rows)


def scan_scale(normal: np.ndarray) -> float:
    """The power of two ``s`` the float32 scan multiplies ``a`` and ``b`` by.

    ``1`` unless ``max_i |a_i|`` lies outside ``[2**-64, 2**64]``; then
    ``max_i |a_i s|`` lies in ``[0.5, 1)``, so ``fl32(a s)`` cannot
    overflow.  Scaling both sides by a power of two keeps the decision.
    """
    peak = float(np.abs(normal).max())
    if _SCALE_FREE[0] <= peak <= _SCALE_FREE[1] or not 0.0 < peak < math.inf:
        return 1.0
    return math.ldexp(1.0, -math.frexp(peak)[1])


def scan(
    columns: np.ndarray, magnitudes: np.ndarray, normal: np.ndarray
) -> tuple[np.ndarray, float]:
    """``(values, E32)``: float32 ``<fl32(a s), fl32(x)>`` of every stored row.

    ``columns`` and ``magnitudes`` come from :func:`scan_columns` (or an
    elementwise upper bound of ``magnitudes``), ``s`` is
    :func:`scan_scale`.  Every finite value is within ``E32`` of the exact
    ``s <a, x>``, for any summation order, FMA included
    (``docs/algorithms.md`` section 6).  A value the bound does not cover
    (a row beyond the float32 range, an overflowing product or sum) is
    NaN, which :func:`select` always re-decides.
    """
    normal = np.asarray(normal, dtype=np.float64)
    scaled = normal * scan_scale(normal)
    with np.errstate(under="ignore"):
        normal32 = scaled.astype(SCAN_DTYPE)
    weights = np.abs(scaled)
    magnitude = float(weights @ magnitudes)
    tail = float(weights.sum() + magnitudes.sum())
    dim = normal.size
    gamma = dim * _U32 / (1.0 - dim * _U32)
    # Rounding a s and x to float32, then the float32 dot product, then the
    # roundings into or below the subnormal range; the last factor covers
    # evaluating all of it in float64.
    inputs = _U32 * (2.0 + _U32) * magnitude
    dot = gamma * (1.0 + _U32) ** 2 * magnitude
    tiny = _TINY32 * ((1.0 + _U32) * (1.0 + gamma) * tail + 2.0 * dim)
    bound = (1.0 + 2.0 ** -30) * (inputs + dot + tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        values = normal32 @ columns
    if not (magnitudes.max(initial=0.0) <= _MAX32 and magnitude <= _FINITE32):
        values[~np.isfinite(values)] = np.nan
    return values, bound


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


def _scan_thresholds(offset: float, bound: float) -> tuple[np.floating, np.floating]:
    """float32 ``(low, high)`` with ``low <= offset - bound`` and ``high >= offset + bound``.

    The float64 difference and sum are stepped one ulp outward (the float
    next to a rounded value lies beyond the real one), then rounded
    outward to float32.
    """
    low = _round(math.nextafter(offset - bound, -math.inf), _DOWN)
    high = _round(math.nextafter(offset + bound, math.inf), _UP)
    return low, high


def select(
    values: np.ndarray,
    query,
    bound: float,
    rows: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Ascending positions of the rows satisfying ``query``, decided exactly.

    ``values`` are the rows' BLAS products with ``query.normal`` and
    ``bound`` their forward error ``E``, or float32 :func:`scan` values and
    their ``E32``; those are compared against ``s b -+ E32`` rounded
    outward to float32 scalars, so numpy neither rounds nor upcasts them.
    Only candidates within the bound of ``b``, and NaN values, are fetched
    through ``rows(positions)`` and re-decided.
    """
    offset = query.offset
    if values.dtype == SCAN_DTYPE:
        low, high = _scan_thresholds(offset * scan_scale(query.normal), bound)
    else:
        low, high = offset - bound, offset + bound
    # Negated tests keep NaN values in the band.
    if query.op.is_upper_bound:
        candidates = (~(values > high)).nonzero()[0]
        band = ~(values[candidates] < low)
    else:
        candidates = (~(values < low)).nonzero()[0]
        band = ~(values[candidates] > high)
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
