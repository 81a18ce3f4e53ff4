"""Best-index selection at query time (Section 5.1).

Given ``r`` Planar indices and one query, pick — in ``O(r d')`` time,
independent of the dataset size — the index expected to minimize the
intermediate interval:

* :func:`select_counted` — the default: count each index's |II| against a
  sketch of its sorted keys (:func:`key_sketch`, ``SKETCH_BUCKETS + 1``
  keys at evenly spaced ranks) and pick the fewest, ties by smaller
  stretch.  This is Eqs. 7–8 evaluated at sketch resolution, ``O(r (d' +
  SKETCH_BUCKETS))`` per query.
* :func:`select_min_stretch` — the volume-minimization heuristic
  (Section 5.1.1, Problem 3): minimize the maximum stretch of the
  intermediate interval along any axis.  The paper reports this usually
  wins and uses it for all experiments.
* :func:`select_min_angle` — the angle-minimization heuristic
  (Section 5.1.2): maximize ``|cos|`` between the query normal and the
  index normal.
* :func:`select_random` — ablation baseline: ignore the query entirely.

Both paper heuristics pick the parallel index whenever one exists
(Corollary 1): a parallel index has zero stretch and ``|cos| = 1``.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Sequence

import numpy as np

from .._util import as_rng
from ..exceptions import IndexBuildError
from ..obs import runtime as _ort
from ..obs import spans as _osp
from .planar import PlanarIndex, WorkingQuery

__all__ = [
    "SKETCH_BUCKETS",
    "SelectionStrategy",
    "counted_choice",
    "counted_scores",
    "key_offsets",
    "key_sketch",
    "select_counted",
    "select_min_stretch",
    "select_min_angle",
    "select_random",
    "make_selector",
    "stretch_scores",
    "angle_cosines",
]

Selector = Callable[[Sequence[PlanarIndex], WorkingQuery], int]


class SelectionStrategy(enum.Enum):
    """Named best-index selection strategies."""

    COUNTED = "counted"
    MIN_STRETCH = "min_stretch"
    MIN_ANGLE = "min_angle"
    RANDOM = "random"


#: Counted selection reads each index's stored keys at ranks
#: ``floor(j (n - 1) / SKETCH_BUCKETS)``, ``j = 0 .. SKETCH_BUCKETS``.
SKETCH_BUCKETS = 32


def _require_indices(indices: Sequence[PlanarIndex]) -> None:
    if not indices:
        raise IndexBuildError("cannot select from an empty index collection")


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


def key_offsets(working_columns: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Every index's translation key offset ``<c'', delta>``.

    ``working_columns`` is the ``(d', r)`` transpose of the stacked working
    normals.  Summed elementwise, so an index's offset does not depend on
    the indices stacked with it: the router and the advisor's replay get
    the same bits.
    """
    return (working_columns * delta[:, np.newaxis]).sum(axis=0)


def counted_scores(
    working_columns: np.ndarray,
    row_min: np.ndarray,
    offsets: np.ndarray,
    sketch_columns: np.ndarray,
    wq: WorkingQuery,
) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, stretch)`` of many indices for one query.

    ``working_columns`` is the ``(d', r)`` transpose of the stacked working
    normals ``W``, ``row_min`` each normal's smallest component,
    ``offsets`` each :func:`key_offsets` and ``sketch_columns`` the
    ``(SKETCH_BUCKETS + 1, r)`` stack of :func:`key_sketch` columns.  All
    thresholds come from one expression, ``(W / a'') b''``; ``counts[i]`` is
    the number of sketch keys of index ``i`` above its SI threshold and at
    most its LI threshold — the intermediate interval of
    :meth:`~repro.core.planar.PlanarIndex.interval_ranks` at sketch
    resolution, without its guard band — and ``stretch[i]`` its min-stretch
    score from the same thresholds.  Indices are columns so every
    reduction runs across contiguous rows.  The collection's router and
    the tuning advisor both call this, so they choose alike.
    """
    thresholds = (working_columns / wq.normal_w[:, np.newaxis]) * wq.offset_w
    t_min = thresholds.min(axis=0)
    t_max = thresholds.max(axis=0)
    inside = (sketch_columns > t_min - offsets) & (sketch_columns <= t_max - offsets)
    return inside.sum(axis=0), (t_max - t_min) / row_min


def counted_choice(counts: np.ndarray, stretch: np.ndarray) -> int:
    """Position with the fewest sketch keys; ties by smaller stretch, then position."""
    return int(np.lexsort((stretch, counts))[0])


def stretch_scores(
    working_matrix: np.ndarray, row_min: np.ndarray, wq: WorkingQuery
) -> np.ndarray:
    """Vectorized min-stretch scores of many index normals for one query.

    ``working_matrix`` is the ``(r, d')`` stack of working normals and
    ``row_min`` its per-row minimum (precomputable because it is
    query-independent).  Row ``i`` equals
    :meth:`~repro.core.planar.PlanarIndex.max_stretch` of index ``i`` —
    the same expression evaluated as one numpy broadcast, which is what
    both the collection's query-time router and the tuning advisor's
    workload simulation use, keeping their routing decisions identical.
    """
    thresholds = working_matrix * (wq.offset_w / wq.normal_w)
    return (thresholds.max(axis=1) - thresholds.min(axis=1)) / row_min


def angle_cosines(
    working_matrix: np.ndarray, row_norm: np.ndarray, wq: WorkingQuery
) -> np.ndarray:
    """Vectorized ``|cos(angle)|`` of many index normals against one query.

    Row ``i`` equals
    :meth:`~repro.core.planar.PlanarIndex.angle_cosine` of index ``i``;
    ``row_norm`` holds the precomputed per-row norms.
    """
    return np.abs(working_matrix @ wq.normal_w) / (
        row_norm * np.linalg.norm(wq.normal_w)
    )


def select_counted(indices: Sequence[PlanarIndex], wq: WorkingQuery) -> int:
    """Index position with the smallest |II| counted against its key sketch."""
    _require_indices(indices)
    obs_on = _ort.active()
    started = time.perf_counter() if obs_on else 0.0
    columns = np.column_stack([index.working_normal for index in indices])
    counts, stretch = counted_scores(
        columns,
        columns.min(axis=0),
        key_offsets(columns, indices[0].translator.delta),
        np.column_stack([key_sketch(index.sorted_keys) for index in indices]),
        wq,
    )
    position = counted_choice(counts, stretch)
    if obs_on:
        _osp.record("select.counted", started, chosen=position)
    return position


def select_min_stretch(indices: Sequence[PlanarIndex], wq: WorkingQuery) -> int:
    """Index position minimizing the maximum intermediate-interval stretch."""
    _require_indices(indices)
    obs_on = _ort.active()
    started = time.perf_counter() if obs_on else 0.0
    scores = [index.max_stretch(wq) for index in indices]
    position = int(np.argmin(scores))
    if obs_on:
        _osp.record("select.min_stretch", started, chosen=position)
    return position


def select_min_angle(indices: Sequence[PlanarIndex], wq: WorkingQuery) -> int:
    """Index position minimizing the angle to the query hyperplane."""
    _require_indices(indices)
    obs_on = _ort.active()
    started = time.perf_counter() if obs_on else 0.0
    scores = [index.angle_cosine(wq) for index in indices]
    position = int(np.argmax(scores))
    if obs_on:
        _osp.record("select.min_angle", started, chosen=position)
    return position


def select_random(
    indices: Sequence[PlanarIndex],
    wq: WorkingQuery,
    rng: np.random.Generator | int | None = None,
) -> int:
    """Ablation baseline: uniformly random index, blind to the query."""
    _require_indices(indices)
    position = int(as_rng(rng).integers(0, len(indices)))
    if _ort.active():
        _osp.record("select.random", time.perf_counter(), chosen=position)
    return position


def make_selector(
    strategy: SelectionStrategy | str,
    rng: np.random.Generator | int | None = None,
) -> Selector:
    """Build a selector callable for a strategy name.

    The random strategy captures its own RNG so repeated calls vary while
    remaining reproducible from a seed.
    """
    strategy = SelectionStrategy(strategy)
    if strategy is SelectionStrategy.COUNTED:
        return select_counted
    if strategy is SelectionStrategy.MIN_STRETCH:
        return select_min_stretch
    if strategy is SelectionStrategy.MIN_ANGLE:
        return select_min_angle
    generator = as_rng(rng)
    return lambda indices, wq: select_random(indices, wq, generator)
