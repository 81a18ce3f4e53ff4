"""Best-index selection at query time (Section 5.1).

Given ``r`` Planar indices and one query, pick — in ``O(r d')`` time,
independent of the dataset size — the index expected to minimize the
intermediate interval.  Everything here works on the ``(d', r)`` column
stack of the indices' working normals ``c''`` and starts from one
expression, the Eq. 13 thresholds of :func:`thresholds`, computed once
per query by the collection's one chooser: the strategy (:func:`choose`),
EXPLAIN (:func:`scores`) and the chosen index's rank probes
(:func:`interval_probes`) read that one matrix; a range query's low
bound and the tuning advisor call it too, so they agree by construction.

Strategies (:class:`SelectionStrategy`):

* ``counted`` — the default: count each index's |II| against a sketch of
  its sorted keys (:func:`key_sketch`, ``SKETCH_BUCKETS + 1`` keys at
  evenly spaced ranks) and pick the fewest, ties by smaller stretch.  This
  is Eqs. 7–8 evaluated at sketch resolution, ``O(r (d' +
  SKETCH_BUCKETS))`` per query.
* ``min_stretch`` — the volume-minimization heuristic (Section 5.1.1,
  Problem 3): minimize the maximum stretch of the intermediate interval
  along any axis (Eq. 15).  The paper reports this usually wins and uses
  it for all experiments.
* ``min_angle`` — the angle-minimization heuristic (Section 5.1.2):
  maximize ``|cos|`` between the query normal and the index normal.
* ``random`` — ablation baseline: ignore the query entirely.

Both paper heuristics pick the parallel index whenever one exists
(Corollary 1): a parallel index has zero stretch and ``|cos| = 1``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from . import exact
from .sorted_keys import key_probes

__all__ = [
    "SKETCH_BUCKETS",
    "SelectionStrategy",
    "Thresholds",
    "choose",
    "interval_probes",
    "key_offsets",
    "key_sketch",
    "pooled_counts",
    "scores",
    "sketch_counts",
    "thresholds",
]


class SelectionStrategy(enum.Enum):
    """Named best-index selection strategies."""

    COUNTED = "counted"
    MIN_STRETCH = "min_stretch"
    MIN_ANGLE = "min_angle"
    RANDOM = "random"


#: Counted selection reads each index's stored keys at ranks
#: ``floor(j (n - 1) / SKETCH_BUCKETS)``, ``j = 0 .. SKETCH_BUCKETS``.
SKETCH_BUCKETS = 32


def key_sketch(sorted_keys: np.ndarray) -> np.ndarray:
    """float64 keys at ``SKETCH_BUCKETS + 1`` evenly spaced ranks of ascending keys.

    ``sorted_keys`` ascends along its first axis (one column per index
    for a stack).  All NaN for an empty index, so it counts no keys.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return np.full((SKETCH_BUCKETS + 1, *sorted_keys.shape[1:]), np.nan)
    ranks = np.arange(SKETCH_BUCKETS + 1) * (n - 1) // SKETCH_BUCKETS
    return sorted_keys[ranks].astype(np.float64)


def _per_row(vector: np.ndarray, working_columns: np.ndarray) -> np.ndarray:
    """``vector`` (one value per row) shaped to broadcast over ``working_columns``."""
    return vector.reshape((-1,) + (1,) * (working_columns.ndim - 1))


def key_offsets(working_columns: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Every column's translation key offset ``<c'', delta>``.

    Stored keys plus this offset are the working-coordinate keys.  A
    cumulative sum adds the rows strictly in order (a plain sum of one
    long column would add pairwise), so a column's offset does not depend
    on the columns stacked with it: an index's own ``(d',)`` column, the
    selection cache and the advisor's candidate stack get the same bits.
    """
    return np.add.accumulate(working_columns * _per_row(delta, working_columns), axis=0)[-1]


class Thresholds(NamedTuple):
    """Eq. 13 thresholds of a column stack for one query (see :func:`thresholds`)."""

    lo: np.ndarray
    hi: np.ndarray
    stretch: np.ndarray
    ratio: np.ndarray
    offsets: np.ndarray


def thresholds(
    working_columns: np.ndarray, offsets: np.ndarray, wq, column_min=None
) -> Thresholds:
    """Stored-key thresholds and stretch of every column for one working query.

    ``T_i = (c''_i / a''_i) b''`` (Eq. 13) and ``ratio = c''_i / a''_i``
    per component.  Shifted by the key ``offsets`` (:func:`key_offsets`)
    they bound the stored keys: keys at most ``lo = min_i T_i - <c'',
    delta>`` are in SI and keys above ``hi = max_i T_i - <c'', delta>`` in
    LI, before the guard band of :func:`interval_probes`.  ``stretch =
    (max_i T_i - min_i T_i) / min_i c''_i`` is the maximum stretch of
    Eq. 15, zero iff the column is parallel to the query (Corollary 1);
    ``column_min`` is ``min_i c''_i`` when the caller holds it (the
    selection snapshot does).  Reductions run over the first axis, so a
    ``(d',)`` column gives scalars.
    """
    ratio = working_columns / _per_row(wq.normal_w, working_columns)
    t = ratio * wq.offset_w
    t_min = np.minimum.reduce(t, axis=0)
    t_max = np.maximum.reduce(t, axis=0)
    if column_min is None:
        column_min = np.minimum.reduce(working_columns, axis=0)
    stretch = (t_max - t_min) / column_min
    return Thresholds(t_min - offsets, t_max - offsets, stretch, ratio, offsets)


def interval_probes(th: Thresholds, wq, position: int | None = None) -> tuple:
    """float32 rank probes ``(probe_lo, probe_hi)`` of the certain intervals.

    ``th`` widened by the guard band :func:`repro.core.exact.key_band`
    derives from the rounding of the keys (in float64, then to the stored
    float32), of ``T_i`` and of the offset, then rounded outward by
    :func:`~repro.core.sorted_keys.key_probes`: a stored key at most
    ``probe_lo`` is certainly in SI and one above ``probe_hi`` certainly in
    LI, for the strict and non-strict operators alike.

    Every column at once by default (EXPLAIN, the tuning advisor), or
    only the column at ``position`` of a stack, in Python floats (the
    chooser): the same operations in the same order, so its probes are
    that column's of the whole stack, bit for bit.  ``max_i |T_i|`` is
    ``max_i (c''_i / a''_i) * |b''|``: the ratios are positive and
    rounding is monotone and symmetric.
    """
    if position is None:
        ratio_max = np.maximum.reduce(th.ratio, axis=0)
        lo, hi, key_offset = th.lo, th.hi, th.offsets
    else:
        ratio_max = max(th.ratio[:, position].tolist())
        lo, hi = th.lo.item(position), th.hi.item(position)
        key_offset = th.offsets.item(position)
    tol = exact.key_band(
        ratio_max * abs(wq.offset_w),
        ratio_max,
        key_offset,
        wq.query.offset,
        wq.normal_w.size,
    )
    return key_probes(lo - tol, hi + tol)


def sketch_counts(th: Thresholds, sketch: np.ndarray) -> np.ndarray:
    """Sketch keys of every column above its SI and at most its LI threshold.

    The intermediate interval at sketch resolution, without the guard band.
    """
    return np.add.reduce((sketch > th.lo) & (sketch <= th.hi), axis=0)


def pooled_counts(th: Thresholds, sketches: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """:func:`sketch_counts` of several key sets, each weighted by the
    number of keys its set holds.

    ``sketches`` stacks one ``(SKETCH_BUCKETS + 1, r)`` sketch per key set
    and ``sizes`` holds their key counts.  The estimated |II| of the
    union, in units of ``1 / SKETCH_BUCKETS``: the sharded engine's one
    choice over its shards' sketches.
    """
    inside = sketches > th.lo
    inside &= sketches <= th.hi
    return sizes @ np.add.reduce(inside, axis=1)


def _cosines(working_columns: np.ndarray, wq) -> np.ndarray:
    """``|cos|`` between every column and the query normal (Section 5.1.2).

    Reflections preserve angles and norms, so working coordinates give the
    value of the original ones and ``wq.norm`` is ``|a''|``.
    """
    return np.abs(wq.normal_w @ working_columns) / (
        np.linalg.norm(working_columns, axis=0) * wq.norm
    )


def scores(
    working_columns: np.ndarray, offsets: np.ndarray, sketch: np.ndarray, wq, th=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, stretch, |cos|)`` of every column: each strategy's score.

    ``sketch`` is the ``(SKETCH_BUCKETS + 1, r)`` stack of
    :func:`key_sketch` columns; ``th`` the stack's thresholds, if known.
    """
    if th is None:
        th = thresholds(working_columns, offsets, wq)
    return sketch_counts(th, sketch), th.stretch, _cosines(working_columns, wq)


def choose(
    strategy: SelectionStrategy,
    working_columns: np.ndarray,
    th: Thresholds,
    sketch: np.ndarray,
    wq,
    rng: np.random.Generator,
    counts: np.ndarray | None = None,
) -> int:
    """Position of the column ``strategy`` picks for ``wq``.

    ``th`` holds the thresholds of ``working_columns``.  Counted takes
    the fewest ``counts`` (by default ``sketch``'s keys inside each
    column's interval), ties by smaller stretch, then position;
    min-stretch the smallest stretch and min-angle the largest ``|cos|``
    (first position on ties); random draws from ``rng``.
    """
    if strategy is SelectionStrategy.RANDOM:
        return int(rng.integers(0, working_columns.shape[1]))
    if strategy is SelectionStrategy.MIN_ANGLE:
        return int(_cosines(working_columns, wq).argmax())
    if strategy is SelectionStrategy.MIN_STRETCH:
        return int(th.stretch.argmin())
    if counts is None:
        counts = sketch_counts(th, sketch)
    tied = (counts == np.minimum.reduce(counts)).nonzero()[0]
    if tied.size == 1:
        return int(tied[0])
    # A stable sort orders NaN last and keeps equal stretches by position.
    return int(tied[th.stretch[tied].argsort(kind="stable")[0]])
