"""Writes since the last merge, shared by every index of a collection (Section 4.4).

The paper updates a Planar index in place and recommends doing so "if a
small percentage changes".  Here an in-place change of one point moves
entries of every one of the ``r`` sorted runs, and each move rewrites a
whole key array.  So a collection does not touch its runs on a write.  It
records the write once, in one :class:`WriteLog`:

* ``pending`` — ascending ids inserted or re-keyed since the last merge.
  Their current rows are in the feature store; queries decide them
  exactly from those rows.
* ``stale`` — a bool mask by id marking the run entries of points deleted
  or re-keyed since the last merge.  Queries skip them.

Every run then holds exactly the live points minus ``pending`` once its
stale entries are skipped, so the answer of a query is the run's answer
over live entries joined with the pending ids that satisfy it.  When
``pending`` plus ``stale`` passes :func:`merge_threshold`, every index
makes one pass that drops its stale entries and merges the pending keys,
and the log is empty again.  Derivation of the threshold:
``docs/algorithms.md`` section 9.

A log state is immutable: each write builds a new one and rebinds it with
one attribute store, so a reader that snapshots :attr:`WriteLog.state`
once sees one consistent write generation.
"""

from __future__ import annotations

import math

import numpy as np

from .sorted_keys import ID_DTYPE

__all__ = ["LogState", "MERGE_ENTRY_COST", "WriteLog", "merge_threshold"]

#: Cost of merging one run entry into one index, in units of verifying one
#: pending row in one query.  Measured at 200k x 6 Indp points, r = 98,
#: OpenBLAS on one thread: a merge pass costs ~11 ns per entry per index
#: (mask gather, two compressions, two inserts), a pending row ~42 ns per
#: interval-route query (row gather, dot product, exact decision, join).
MERGE_ENTRY_COST = 0.25

_NO_IDS = np.empty(0, dtype=ID_DTYPE)


def merge_threshold(n_entries: int, n_indices: int) -> int:
    """Log size past which a collection of ``n_indices`` runs of ``n_entries`` merges.

    A merge costs ``C = r n MERGE_ENTRY_COST`` verified rows; a log of
    ``T`` entries costs about ``T / 2`` verified rows per query between
    merges, one query per logged write assumed.  Per logged write that is
    ``C / T + T / 2``, least at ``T = sqrt(2 C)``.
    """
    return max(1, math.isqrt(int(2.0 * MERGE_ENTRY_COST * n_indices * n_entries)))


class LogState:
    """One immutable generation of a :class:`WriteLog`.

    ``stale`` covers every stale id plus one trailing ``False``: ids beyond
    it clip onto that slot, so they read as not stale.  ``n_stale`` counts
    the run entries it marks, the same in every run of the collection.
    """

    __slots__ = ("pending", "stale", "n_stale")

    def __init__(self, pending: np.ndarray, stale: np.ndarray, n_stale: int) -> None:
        self.pending = pending
        self.stale = stale
        self.n_stale = n_stale

    def live(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` (run entries) without the stale ones, order kept."""
        return ids[~np.take(self.stale, ids, mode="clip")]

    def count(self, ids: np.ndarray) -> int:
        """How many of ``ids`` (run entries) are not stale."""
        return int(ids.size - np.count_nonzero(np.take(self.stale, ids, mode="clip")))

    def n_live(self, n_entries: int) -> int:
        """Live points of a collection whose runs hold ``n_entries`` each."""
        return n_entries - self.n_stale + int(self.pending.size)

    @property
    def size(self) -> int:
        """Log entries: pending ids plus stale run entries."""
        return int(self.pending.size) + self.n_stale


class WriteLog:
    """The pending ids and stale mask of one collection; ``state`` is None while empty."""

    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state: LogState | None = None

    def _write(self, marked: np.ndarray, pending: np.ndarray) -> None:
        """Rebind the state with ``marked`` run entries stale and ``pending``.

        A log left with nothing pending and nothing stale is empty again,
        so queries take the one-branch path.
        """
        state = self.state
        stale = np.zeros(1, dtype=bool) if state is None else state.stale
        n_stale = 0 if state is None else state.n_stale
        if marked.size:
            size = max(stale.size, int(marked.max()) + 2)
            grown = np.zeros(size, dtype=bool)
            grown[: stale.size] = stale
            grown[marked] = True
            stale = grown
            n_stale += int(marked.size)
        self.state = LogState(pending, stale, n_stale) if pending.size or n_stale else None

    def _pending(self) -> np.ndarray:
        return _NO_IDS if self.state is None else self.state.pending

    def insert(self, ids: np.ndarray) -> None:
        """Record points appended since the merge (no run entries yet)."""
        ids = np.ascontiguousarray(ids, dtype=ID_DTYPE)
        self._write(_NO_IDS, np.union1d(self._pending(), ids))

    def rekey(self, ids: np.ndarray) -> None:
        """Record points whose rows changed: their entries go stale, they go pending.

        An id pending already has no entry left to mark: it was inserted
        since the merge, or re-keyed and marked then.
        """
        ids = np.ascontiguousarray(ids, dtype=ID_DTYPE)
        pending = self._pending()
        self._write(ids[~np.isin(ids, pending)], np.union1d(pending, ids))

    def delete(self, ids: np.ndarray) -> None:
        """Record deleted points: their entries go stale, they leave pending."""
        ids = np.ascontiguousarray(ids, dtype=ID_DTYPE)
        pending = self._pending()
        self._write(ids[~np.isin(ids, pending)], np.setdiff1d(pending, ids))

    def memory_bytes(self) -> int:
        """Heap footprint of the pending ids and the stale mask."""
        state = self.state
        return 0 if state is None else int(state.pending.nbytes + state.stale.nbytes)
