"""Sharded parallel query execution over the Planar index machinery.

:class:`ShardedFunctionIndex` is a
:class:`~repro.core.function_index.FunctionIndex` — same query surface,
same code — that partitions the data into ``S`` shards, each owning its own
:class:`~repro.core.collection.PlanarIndexCollection` over a
:class:`~repro.parallel.view.FeatureStoreView` of one shared feature store.
A query runs as one *wave*: the facade chooses one index per working
query for every shard, as it does for its one collection (one Eq. 13
threshold matrix, counted selection over the summed shard sketches;
:meth:`~repro.core.function_index.FunctionIndex._choose`), then the
engine runs the shards one after another on the calling thread.  On the
2-core host measured (EXPERIMENTS.md, "Shard waves on the served path")
this beat the thread pool it replaced: a one-query wave spent more on
hand-offs than the overlap saved.  The shard stays the unit of failure isolation.

A wave costs close to one monolithic query (EXPERIMENTS.md, same row):

* what depends on the shards' snapshots alone — whether their normals
  agree, and the stacked sketches counted selection pools — is derived
  once per generation of snapshots, not per wave;
* an interval slice is left unsorted, and the merge sorts the union of
  the slices once, so every answer id is sorted once, as on one index;
* a scan slice maps scan positions to ids by arithmetic while the ids
  it scanned are evenly spaced
  (:meth:`~repro.parallel.view.FeatureStoreView.scan_ids`);
* each shard's part is an inline attempt in one loop that reads the
  clock only under a deadline, fires fault sites only while a plan is
  armed, opens a span only while observability is active, and enters
  the retry and degrade logic only when a part raises
  (:meth:`ShardedFunctionIndex._fan_out`).

Exactness
---------
Results are *bit-identical* to the monolithic path:

* Point ids are global (the shared store assigns them); each shard answers
  over a disjoint id subset, so inequality/range answers merge by one
  ``sort(concatenate(...))`` into exactly the monolithic sorted id array.
* All shards share one translator and the same index normals, so octant
  validation, query canonicalization, and per-point scalar products are
  the same floating-point computations as the monolithic path.  Any
  index answers exactly, so the wave's shared choice of index (or a
  shard's own, while an ``add_index``/``drop_index`` has reached only
  some shards) cannot move an answer.
* Top-k runs Algorithm 2 once per shard against a *shared* pruning
  threshold (:class:`~repro.core.topk.SharedCutoff`): each shard's
  buffered k-th distance is an upper bound on the global k-th best (the
  shard exhibits ``k`` real points at or below it), so folding the
  minimum of all published bounds into every shard's LBS cutoff preserves
  Claim 3 while letting one shard's good candidates terminate another
  shard's scan — a later shard starts from every earlier one's bound.
  The strict cutoff comparison keeps boundary candidates, so tie-breaks
  by id survive the merge through :class:`~repro.core.topk.TopKBuffer`
  unchanged.

The single-shard configuration bypasses the view: shard 0 *is* the
monolithic collection.

Fault tolerance (see ``docs/reliability.md``)
---------------------------------------------
Query waves and writes reach the shards through one loop
(:meth:`ShardedFunctionIndex._fan_out`, one shard at a time): it fires
the shard's fault site, tells shard faults from caller errors by one rule
(:func:`_is_shard_fault`; a caller error propagates unwrapped), retries
under ``retry_then_degrade``, and holds one deadline per call
(``query_timeout_s``) that later shards and retries share.  A query
shard not started before the deadline, or whose slice comes back after
it, fails with a :class:`~repro.exceptions.QueryTimeoutError`, and no
retry starts after it.  A running shard is never abandoned, so a
stalled shard holds its wave until it returns; the serving layer
answers its own deadline regardless.  A shard that still fails is
handled per the configured
:class:`~repro.reliability.degraded.FailurePolicy`:

``raise``
    Propagate a :class:`~repro.exceptions.ShardFailureError` carrying the
    failed shard's identity and fan-out kind; the first failure stops the
    wave, so later shards never start.
``degrade``
    Recover the failed shards by an exact sequential scan of their live
    points when possible; shards that cannot be recovered are dropped and
    the answer carries a :class:`~repro.reliability.degraded.DegradedInfo`
    with the exact live-point completeness fraction.
``retry_then_degrade``
    Re-execute a failed shard at once (bounded attempts, exponential
    backoff with deterministic jitter, none starting past the deadline)
    before falling back to ``degrade`` handling.

Failed shards never contribute partial results — a shard either returns
its complete slice (primary, retry, or recovery scan: all exact) or is
excluded and accounted for — so every id in a degraded answer is correct.
Writes retry under ``retry_then_degrade`` but never degrade and have no
deadline: a mutation that cannot be applied raises, because silently
dropping a shard's update would corrupt the partition.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, TypeVar

import numpy as np

from ..core.collection import Choice, PlanarIndexCollection
from ..core.domains import QueryModel
from ..core.feature_store import FeatureStore
from ..core.function_index import FunctionIndex
from ..core.phi import FeatureMap
from ..core.selection import SelectionStrategy
from ..exceptions import (
    DegradedAnswerError,
    InjectedFaultError,
    QueryTimeoutError,
    ReproError,
    ShardFailureError,
)
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from ..obs import trace as _otr
from ..reliability import faults as _flt
from ..reliability.degraded import DegradedInfo, FailurePolicy
from .sharding import assign_shards
from .view import FeatureStoreView

__all__ = ["ShardedFunctionIndex"]

_T = TypeVar("_T")

#: Exception families treated as *caller errors* in a shard's part of a
#: query or write: deterministic validation failures that every shard
#: would report identically, re-raised unwrapped so existing error
#: contracts hold.
_CALLER_ERRORS = (ValueError, KeyError, IndexError, TypeError)

#: Base backoff before a shard's first retry (doubled per later attempt).
_RETRY_BACKOFF_S = 0.05


def _is_shard_fault(error: BaseException) -> bool:
    """Whether ``error`` is an operational shard failure (vs caller error)."""
    if isinstance(error, (InjectedFaultError, ShardFailureError, TimeoutError)):
        return True
    if isinstance(error, ReproError):
        return False
    if isinstance(error, _CALLER_ERRORS):
        return False
    return True


class _SingleCollectionOnly:
    """Hides a :class:`FunctionIndex` member that reads one collection only."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: object, owner: type | None = None) -> Any:
        raise AttributeError(
            f"{self._name} reads a single Planar index collection; a sharded "
            f"engine has one per shard (use a FunctionIndex)"
        )


class ShardedFunctionIndex(FunctionIndex):
    """Sharded drop-in for :class:`~repro.core.function_index.FunctionIndex`.

    Parameters follow the monolithic facade, plus:

    n_shards:
        Number of data partitions ``S``.  ``1`` (the default) keeps the
        monolithic layout and executes inline.  Point ``id`` belongs to
        shard ``id % n_shards`` (:mod:`repro.parallel.sharding`).
    failure_policy:
        What to do when a shard of a fan-out fails:
        :class:`~repro.reliability.degraded.FailurePolicy` or its string
        name.  ``None`` (the default) resolves ``REPRO_FAULT_POLICY`` at
        construction, falling back to ``raise``.
    query_timeout_s:
        Deadline for each query call, set when it starts and shared by
        every shard and retry of it; a shard that has not produced its
        slice by then counts as failed with a
        :class:`~repro.exceptions.QueryTimeoutError`.  ``None`` disables
        deadlines.
    max_retries:
        Bounded retry attempts per failed shard under
        ``retry_then_degrade``, for queries and writes alike.  Before
        attempt ``i`` the engine sleeps ``0.05 * 2**(i-1)`` seconds
        scaled by a deterministic jitter in ``[0.5, 1.5)``.  The jitter
        uses its own fixed-seed RNG — not the engine's ``rng`` — so
        retries never perturb index-selection draws and answers stay
        bit-identical to the monolithic path.

    The single-collection extras of :class:`FunctionIndex` (``collection``,
    ``explain_report``, conjunctions and disjunctions) raise
    :class:`AttributeError` here: answered over shard 0 they would be
    wrong.

    The engine is also a context manager whose ``__exit__`` calls
    :meth:`close`.
    """

    collection = _SingleCollectionOnly()
    explain_report = _SingleCollectionOnly()
    query_conjunction = _SingleCollectionOnly()
    query_disjunction = _SingleCollectionOnly()
    _from_prebuilt = _SingleCollectionOnly()

    def __init__(
        self,
        points: np.ndarray,
        query_model: QueryModel,
        feature_map: FeatureMap | None = None,
        n_indices: int = 10,
        normals: np.ndarray | None = None,
        strategy: SelectionStrategy | str = SelectionStrategy.COUNTED,
        rng: np.random.Generator | int | None = None,
        n_shards: int = 1,
        failure_policy: FailurePolicy | str | None = None,
        query_timeout_s: float | None = None,
        max_retries: int = 2,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if query_timeout_s is not None and not query_timeout_s > 0:
            raise ValueError(
                f"query_timeout_s must be positive or None, got {query_timeout_s}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        # Not FunctionIndex.__init__: the engine builds one collection per
        # shard instead of one over the whole store.
        self._bind(points, query_model, feature_map, rng)
        self._n_shards = int(n_shards)
        #: A query wave's ``(shard, rows)`` targets: every row of every shard.
        self._every_shard = tuple((shard, slice(None)) for shard in range(self._n_shards))
        self._failure_policy = FailurePolicy.parse(failure_policy)
        self._query_timeout_s = (
            None if query_timeout_s is None else float(query_timeout_s)
        )
        self._max_retries = int(max_retries)
        # Deterministic retry jitter.  Deliberately NOT self._rng: the
        # selection strategy may consume self._rng per query, so any extra
        # draw here would desynchronize sharded answers from FunctionIndex.
        self._jitter = random.Random(0)

        # Every shard indexes the same normals over its own slice of the
        # shared store; the single-shard layout *is* the monolithic one.
        self._stores: list[FeatureStore | FeatureStoreView] = (
            [self._features]
            if self._n_shards == 1
            else [
                FeatureStoreView(self._features, shard, self._n_shards)
                for shard in range(self._n_shards)
            ]
        )
        prefixes = (
            [""] if self._n_shards == 1 else [f"s{s}:" for s in range(self._n_shards)]
        )
        self._collections = self._index_collections(
            list(zip(self._stores, prefixes)), n_indices, normals, strategy
        )
        self._record_shard_sizes()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """End the engine's life: the end of ``with`` and of a service.

        Shards run on the calling thread, so the engine holds nothing to
        release; closing is idempotent, never raises, and leaves the
        engine usable.
        """

    def __enter__(self) -> "ShardedFunctionIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedFunctionIndex(n={len(self)}, shards={self._n_shards}, "
            f"r={self.n_indices})"
        )

    @property
    def n_shards(self) -> int:
        """Number of data partitions."""
        return self._n_shards

    @property
    def failure_policy(self) -> FailurePolicy:
        """The resolved shard-failure policy (fixed at construction)."""
        return self._failure_policy

    @property
    def query_timeout_s(self) -> float | None:
        """Per-query fan-out deadline in seconds (None = no deadline)."""
        return self._query_timeout_s

    @property
    def collections(self) -> tuple[PlanarIndexCollection, ...]:
        """Per-shard Planar index collections."""
        return tuple(self._collections)

    def shard_sizes(self) -> list[int]:
        """Live point count owned by each shard."""
        return [len(store) for store in self._stores]

    def _record_shard_sizes(self) -> None:
        # A shard's keyed point count: its collection is mutated before
        # the shared store on delete, so the stores would lag here.
        if not _ort.active():
            return
        gauge = _om.shard_points()
        for shard, collection in enumerate(self._collections):
            gauge.set(len(collection[0]), shard=str(shard))

    # ------------------------------------------------------------------ #
    # The shard loop: queries and writes alike
    # ------------------------------------------------------------------ #

    @staticmethod
    def _shard_cost(result: object) -> dict[str, int]:
        """Per-shard cost counters for span annotation (small scalars only).

        Understands the fan-out result shapes: ``QueryResult``,
        ``TopKResult`` (adds the LBS ``lbs_checked`` counter), and a
        batch's list of either (cell-wise sums).  These are the counters
        the stitched-trace property test reconciles against the merged
        answer's stats, so they must mirror ``QueryStats.merged``.
        """
        parts = result if isinstance(result, list) else [result]
        stats = [part.stats for part in parts if part.stats is not None]
        cost: dict[str, int] = {}
        if stats:
            cost.update(
                verified=sum(s.n_verified for s in stats),
                ii=sum(s.ii_size for s in stats),
                results=sum(s.n_results for s in stats),
            )
        checked = [part.n_checked for part in parts if hasattr(part, "n_checked")]
        if checked:
            cost["lbs_checked"] = int(sum(checked))
        return cost

    def _observed(
        self, kind: str, call: Callable[[int, Any], _T], shard: int, rows: Any
    ) -> _T:
        """``call(shard, rows)`` inside a ``shard.<kind>`` span.

        It runs on the querying thread, so the inner collection spans
        nest under it in the stitched tree.
        """
        ctx = _otr.current()
        attrs: dict[str, object] = {"shard": shard}
        if ctx is not None:
            attrs["trace_id"] = ctx.trace_id
        with _osp.span(f"shard.{kind}", **attrs) as shard_span:
            try:
                result = call(shard, rows)
            except BaseException as exc:  # repro: noqa(REP005) — span annotates the failure kind, then re-raises unchanged
                shard_span.annotate(error=type(exc).__name__)
                raise
            shard_span.annotate(**self._shard_cost(result))
        _om.shard_queries_total().inc(kind=kind, shard=str(shard))
        return result

    @staticmethod
    def _timeout(kind: str, shard: int) -> QueryTimeoutError:
        return QueryTimeoutError(
            f"shard {shard} missed the deadline during {kind} fan-out",
            shard=shard,
            kind=kind,
        )

    def _retried(
        self, kind: str, shard: int, attempt: int, write: bool, deadline: float | None
    ) -> bool:
        """Back off before retry ``attempt`` of a shard's part and say
        whether it may run.

        Only ``retry_then_degrade`` retries, at most ``max_retries``
        times, and never so late that the retry would start at or after
        the call's deadline.  The delay is ``_RETRY_BACKOFF_S *
        2**(attempt-1)`` scaled by a deterministic jitter in
        ``[0.5, 1.5)``.
        """
        if (
            self._failure_policy is not FailurePolicy.RETRY_THEN_DEGRADE
            or attempt > self._max_retries
        ):
            return False
        delay = _RETRY_BACKOFF_S * (2 ** (attempt - 1)) * (0.5 + self._jitter.random())
        if deadline is not None and time.monotonic() + delay >= deadline:
            return False
        started = time.perf_counter()
        time.sleep(delay)
        # Reliability counters stay exact under head sampling (ENABLED),
        # while the span only joins sampled traces (active()).
        if _ort.enabled():
            label = f"maintenance:{kind}" if write else kind
            _om.shard_retries_total().inc(kind=label)
            if _ort.active():
                _osp.record("shard.retry", started, kind=label, attempt=attempt, shard=shard)
        return True

    @staticmethod
    def _shard_failure(
        kind: str, shard: int, error: Exception, write: bool
    ) -> ShardFailureError:
        """``error``, the last fault of a shard that may not retry, as the
        :class:`ShardFailureError` its fan-out raises."""
        if isinstance(error, ShardFailureError):
            return error
        label = f"maintenance:{kind}" if write else kind
        failure = ShardFailureError(
            f"shard {shard} failed during {label} fan-out: "
            f"{type(error).__name__}: {error}",
            shard=shard,
            kind=label,
        )
        failure.__cause__ = error
        return failure

    def _record_degraded(self, kind: str, degraded: DegradedInfo) -> None:
        if not _ort.enabled():
            return
        _om.degraded_queries_total().inc(kind=kind)
        if _ort.active():
            _osp.record(
                "shard.degrade",
                time.perf_counter(),
                kind=kind,
                failed=len(degraded.failed_shards),
                recovered=len(degraded.recovered_shards),
                completeness=round(degraded.completeness, 6),
            )

    def _fan_out(
        self,
        kind: str,
        call: Callable[[int, Any], _T],
        ids: np.ndarray | None = None,
        recover: Callable[[Any], _T] | None = None,
        timeout_s: float | None = None,
    ) -> tuple[list[_T | None], DegradedInfo | None]:
        """Run ``call(shard, rows)`` on each shard in turn, one shard's
        part of a query wave or a write, under the failure policy.

        On the calling thread, an attempt checks the deadline (when there
        is one), fires the shard's fault site (``shard.maintenance`` for
        a write, else ``shard.query``; only while a fault plan is armed)
        before any work, and runs ``call``; a query's part runs in a
        ``shard.<kind>`` span carrying the trace id and cost counters
        while observability is active, and a query slice that comes back
        after the deadline is dropped as a :class:`QueryTimeoutError`.  A
        running shard is never abandoned.  Each shard fault
        (:func:`_is_shard_fault`) is collected; under
        ``retry_then_degrade`` it is retried with backoff
        (:meth:`_retried`), otherwise it is the shard's failure
        (:meth:`_shard_failure`).  Any other error is the caller's and
        propagates unwrapped.

        A write passes the ``ids`` it touches: only the shards owning
        some of them run (:func:`assign_shards`), ``rows`` selecting
        each one's share, and a shard that still fails raises
        :class:`ShardFailureError` under every policy, because silently
        dropping a shard's update would corrupt the partition.

        A query wave passes ``recover(store)``, the exact stand-in for a
        shard's slice from a scan of that shard's store, and runs on
        every shard.  Its deadline, ``timeout_s`` or else the engine's
        ``query_timeout_s`` (the serving layer passes a request's
        remaining budget), is set once here: later shards and retries
        share it.  Under ``raise`` the first failing shard raises and
        later shards never start; otherwise the shards still failing are
        recovered (``shard.scan`` fault site), those whose recovery also
        fails are dropped as ``None``, and a :class:`DegradedInfo` states
        what happened.  :class:`DegradedAnswerError` is raised when no
        shard survives.

        Returns ``(slices, degraded)``: one slice per shard run;
        ``degraded`` is ``None`` unless some shard faulted.
        """
        write = recover is None
        deadline = None
        if not write:
            timeout = self._query_timeout_s if timeout_s is None else float(timeout_s)
            if timeout is not None:
                if not timeout > 0:
                    raise ValueError(f"timeout_s must be positive, got {timeout}")
                deadline = time.monotonic() + timeout
        if ids is None:
            targets = self._every_shard
        else:
            assignment = assign_shards(ids, self._n_shards)
            masks = [assignment == shard for shard in range(self._n_shards)]
            targets = [(shard, mask) for shard, mask in enumerate(masks) if mask.any()]
        observed = not write and _ort.active()
        results: list[_T | None] = []
        faults: list[tuple[int, BaseException]] = []
        for shard, rows in targets:
            attempt = 0
            while True:
                try:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise self._timeout(kind, shard)
                    if _flt.ARMED:
                        if write:
                            _flt.check("shard.maintenance", shard=shard, action=kind)
                        else:
                            _flt.check("shard.query", shard=shard, kind=kind)
                    if observed:
                        result = self._observed(kind, call, shard, rows)
                    else:
                        result = call(shard, rows)
                    if deadline is not None and time.monotonic() > deadline:
                        raise self._timeout(kind, shard)
                    break
                except Exception as exc:  # repro: noqa(REP005) — policy boundary: classify, retry, or wrap
                    if not _is_shard_fault(exc):
                        raise
                    faults.append((shard, exc))
                    attempt += 1
                    if self._retried(kind, shard, attempt, write, deadline):
                        continue
                    if write or self._failure_policy is FailurePolicy.RAISE:
                        raise self._shard_failure(kind, shard, exc, write)
                    result = None
                    break
            results.append(result)
        if write:
            self._record_shard_sizes()
        if write or not faults:
            return results, None
        # A query ran on every shard: slice i is shard i's, None if it failed.
        failed = [shard for shard, part in enumerate(results) if part is None]
        lost: list[int] = []
        for shard in failed:
            try:
                if _flt.ARMED:
                    _flt.check("shard.scan", shard=shard, kind=kind)
                obs_on = _ort.active()
                started = time.perf_counter() if obs_on else 0.0
                results[shard] = recover(self._stores[shard])
                if obs_on:
                    _osp.record(
                        "shard.recover",
                        started,
                        shard=shard,
                        kind=kind,
                        **self._shard_cost(results[shard]),
                    )
            except Exception:  # repro: noqa(REP005) — recovery is best-effort; failures are accounted, not raised
                lost.append(shard)
        first = faults[0][1]
        cause = f"{type(first).__name__}: {first}"
        if len(lost) == self._n_shards:
            raise DegradedAnswerError(
                f"every shard failed during {kind} fan-out; no degraded "
                f"answer is possible (first cause: {cause})"
            ) from first
        sizes = self.shard_sizes()
        total = sum(sizes)
        covered = sum(size for shard, size in enumerate(sizes) if shard not in lost)
        degraded = DegradedInfo(
            failed_shards=tuple(lost),
            recovered_shards=tuple(sorted({shard for shard, _ in faults} - set(lost))),
            cause=cause,
            completeness=(covered / total) if total else 1.0,
            retries=len(faults) - len(failed),
        )
        self._record_degraded(kind, degraded)
        return results, degraded
