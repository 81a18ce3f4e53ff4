"""Sharded parallel query execution over the Planar index machinery.

:class:`ShardedFunctionIndex` is a
:class:`~repro.core.function_index.FunctionIndex` — same query surface,
same code — that partitions the data into ``S`` shards, each owning its own
:class:`~repro.core.collection.PlanarIndexCollection` over a
:class:`~repro.parallel.view.FeatureStoreView` of one shared feature store.
Queries fan out across shards on a thread pool — numpy releases the GIL
inside ``matmul`` and ``searchsorted``, so the per-shard interval splits
and verification products genuinely overlap.

Exactness
---------
Results are *bit-identical* to the monolithic path:

* Point ids are global (the shared store assigns them); each shard answers
  over a disjoint id subset, so inequality/range answers merge by one
  ``sort(concatenate(...))`` into exactly the monolithic sorted id array.
* All shards share one translator and the same index normals, so octant
  validation, query canonicalization, and per-point scalar products are
  the same floating-point computations as the monolithic path.
* Top-k runs Algorithm 2 once per shard against a *shared* pruning
  threshold (:class:`~repro.core.topk.SharedCutoff`): each shard's
  buffered k-th distance is an upper bound on the global k-th best (the
  shard exhibits ``k`` real points at or below it), so folding the
  minimum of all published bounds into every shard's LBS cutoff preserves
  Claim 3 while letting one shard's good candidates terminate another
  shard's scan.  The strict cutoff comparison keeps boundary candidates,
  so tie-breaks by id survive the merge through
  :class:`~repro.core.topk.TopKBuffer` unchanged.

The single-shard configuration bypasses the view — shard 0 *is* the
monolithic collection — and a fan-out without a deadline runs its last
shard on the calling thread, so ``n_shards=1`` never starts a pool.

Fault tolerance (see ``docs/reliability.md``)
---------------------------------------------
Each fan-out wave collects per-shard results under an optional per-query
deadline (``query_timeout_s``).  A shard failure is handled per the
configured :class:`~repro.reliability.degraded.FailurePolicy`:

``raise``
    Propagate a :class:`~repro.exceptions.ShardFailureError` carrying the
    failed shard's identity and fan-out kind; still-pending futures are
    cancelled instead of leaking work.
``degrade``
    Recover the failed shards by an exact sequential scan of their live
    points when possible; shards that cannot be recovered are dropped and
    the answer carries a :class:`~repro.reliability.degraded.DegradedInfo`
    with the exact live-point completeness fraction.
``retry_then_degrade``
    Re-execute failed shards (bounded attempts, exponential backoff with
    deterministic jitter) before falling back to ``degrade`` handling.

Failed shards never contribute partial results — a shard either returns
its complete slice (primary, retry, or recovery scan: all exact) or is
excluded and accounted for — so every id in a degraded answer is correct.
Maintenance fan-outs retry under ``retry_then_degrade`` but never degrade:
a mutation that cannot be applied raises, because silently dropping a
shard's update would corrupt the partition.
"""

from __future__ import annotations

import contextvars
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutTimeout
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..core.collection import PlanarIndexCollection
from ..core.domains import QueryModel
from ..core.feature_store import FeatureStore
from ..core.function_index import FunctionIndex, scan_store
from ..core.phi import FeatureMap
from ..core.planar import QueryResult
from ..core.query import ScalarProductQuery
from ..core.selection import SelectionStrategy
from ..core.stats import QueryStats
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
from .sharding import SHARD_POLICIES, assign_shards
from .view import FeatureStoreView

__all__ = ["ShardedFunctionIndex"]

_T = TypeVar("_T")

#: Exception families treated as *caller errors* during maintenance:
#: deterministic validation failures that every shard would report
#: identically, re-raised unwrapped so existing error contracts hold.
_CALLER_ERRORS = (ValueError, KeyError, IndexError, TypeError)


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
        monolithic layout and executes inline.
    policy:
        Shard-membership policy, ``"round_robin"`` or ``"hash"``
        (:mod:`repro.parallel.sharding`).
    max_workers:
        Worker-pool size for the fan-out; defaults to
        ``min(n_shards, cpu_count)``.
    failure_policy:
        What to do when a shard of a fan-out fails:
        :class:`~repro.reliability.degraded.FailurePolicy` or its string
        name.  ``None`` (the default) resolves ``REPRO_FAULT_POLICY`` at
        construction, falling back to ``raise``.
    query_timeout_s:
        Per-query deadline for each fan-out wave; a shard that has not
        produced its slice by then counts as failed with a
        :class:`~repro.exceptions.QueryTimeoutError`.  ``None`` disables
        deadlines.
    max_retries:
        Bounded retry attempts per failed shard under
        ``retry_then_degrade`` (also applied to maintenance fan-outs).
    retry_backoff_s:
        Base backoff before retry attempt ``i``: the engine sleeps
        ``retry_backoff_s * 2**(i-1)`` scaled by a deterministic jitter
        in ``[0.5, 1.5)``.  The jitter uses its own fixed-seed RNG — not
        the engine's ``rng`` — so retries never perturb index-selection
        draws and answers stay bit-identical to the monolithic path.

    The single-collection extras of :class:`FunctionIndex` (``collection``,
    ``explain``, ``explain_report``, conjunctions and disjunctions) raise
    :class:`AttributeError` here: answered over shard 0 they would be
    wrong.

    The engine is also a context manager; :meth:`close` shuts the pool
    down (idempotent, never raises, runs on ``__exit__`` even when the
    body raised).
    """

    collection = _SingleCollectionOnly()
    explain = _SingleCollectionOnly()
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
        strategy: SelectionStrategy | str = SelectionStrategy.MIN_STRETCH,
        scan_fallback: bool = True,
        margin: float = 0.0,
        rng: np.random.Generator | int | None = None,
        n_shards: int = 1,
        policy: str = "round_robin",
        max_workers: int | None = None,
        failure_policy: FailurePolicy | str | None = None,
        query_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {policy!r}; choose from {SHARD_POLICIES}"
            )
        if query_timeout_s is not None and not query_timeout_s > 0:
            raise ValueError(
                f"query_timeout_s must be positive or None, got {query_timeout_s}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        # Not FunctionIndex.__init__: the engine builds one collection per
        # shard instead of one over the whole store.
        self._bind(points, query_model, feature_map, scan_fallback, margin, rng)
        self._n_shards = int(n_shards)
        self._policy = str(policy)
        self._max_workers = (
            min(self._n_shards, os.cpu_count() or 1)
            if max_workers is None
            else int(max_workers)
        )
        self._executor: ThreadPoolExecutor | None = None
        self._failure_policy = FailurePolicy.parse(failure_policy)
        self._query_timeout_s = (
            None if query_timeout_s is None else float(query_timeout_s)
        )
        self._max_retries = int(max_retries)
        self._retry_backoff_s = float(retry_backoff_s)
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
                FeatureStoreView(self._features, shard, self._n_shards, self._policy)
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
        """Shut down the fan-out thread pool.

        Idempotent and exception-safe: the pool reference is cleared
        *before* shutdown, so a second :meth:`close` (or closing after an
        in-query failure) is a no-op, and shutdown errors are swallowed —
        teardown must never mask the exception that triggered it.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # repro: noqa(REP005) — close() must never raise (teardown path)
            pass

    def __enter__(self) -> "ShardedFunctionIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-shard",
            )
        return self._executor

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedFunctionIndex(n={len(self)}, shards={self._n_shards}, "
            f"policy={self._policy!r}, r={self.n_indices})"
        )

    @property
    def n_shards(self) -> int:
        """Number of data partitions."""
        return self._n_shards

    @property
    def policy(self) -> str:
        """Shard-membership policy."""
        return self._policy

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
    # Fan-out machinery
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

    def _run_shard(
        self, kind: str, shard: int, fn: Callable[[PlanarIndexCollection], _T]
    ) -> _T:
        """Execute one shard's slice of a query, with per-shard telemetry.

        Pool workers run it under a copy of the submitting context, so
        their spans nest under the issuing query's open span; counters
        take one lock per increment.  The ``shard.query`` fault site fires
        *before* the work, so injected failures never leave partial shard
        state behind.  Inside a trace, the shard's work runs in a
        ``shard.<kind>`` span carrying the trace id and per-shard cost
        counters, so the inner collection spans nest under it in the
        stitched tree.
        """
        if _flt.ARMED:  # repro: noqa(REP012) — thread-shared by design: arming is process-wide and every pool thread must see it
            _flt.check("shard.query", shard=shard, kind=kind)
        if not _ort.active():
            return fn(self._collections[shard])
        ctx = _otr.current()
        attrs: dict[str, object] = {"shard": shard}
        if ctx is not None:
            attrs["trace_id"] = ctx.trace_id
        with _osp.span(f"shard.{kind}", **attrs) as shard_span:
            try:
                result = fn(self._collections[shard])
            except BaseException as exc:  # repro: noqa(REP005) — span annotates the failure kind, then re-raises unchanged
                shard_span.annotate(error=type(exc).__name__)
                raise
            shard_span.annotate(**self._shard_cost(result))
        _om.shard_queries_total().inc(kind=kind, shard=str(shard))
        return result

    def _execute_wave(
        self,
        kind: str,
        fn: Callable[[PlanarIndexCollection], _T],
        shards: Sequence[int],
        deadline: float | None,
        fail_fast: bool,
        timeout_s: float | None,
    ) -> tuple[dict[int, _T], dict[int, BaseException]]:
        """Run ``fn`` on ``shards``; collect per-shard results and failures.

        With a ``deadline`` (monotonic timestamp), every shard runs on the
        pool and each pending result is awaited only for the remaining
        budget; misses become :class:`QueryTimeoutError` and the stale
        future is cancelled.  Without one the calling thread would only
        block, so it runs the last shard itself — a one-shard wave never
        starts the pool.  Under ``fail_fast`` the first failure cancels
        every not-yet-started future instead of leaking queued work.
        """
        results: dict[int, _T] = {}
        failures: dict[int, BaseException] = {}
        inline = shards[-1] if deadline is None else None
        pooled = [shard for shard in shards if shard != inline]
        futures = {}
        if pooled:
            executor = self._ensure_executor()
            # Each shard runs in a copy of this context: it inherits the
            # query's trace and open span, and what it sets stays there.
            futures = {
                shard: executor.submit(
                    contextvars.copy_context().run, self._run_shard, kind, shard, fn
                )
                for shard in pooled
            }
        if inline is not None:
            try:
                results[inline] = self._run_shard(kind, inline, fn)
            except Exception as exc:  # repro: noqa(REP005) — fan-out failure boundary, classified by policy
                failures[inline] = exc
        for shard, future in futures.items():
            if fail_fast and failures:
                future.cancel()
                continue
            remaining: float | None = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                results[shard] = future.result(timeout=remaining)
            except _FutTimeout:
                future.cancel()
                failures[shard] = QueryTimeoutError(
                    f"shard {shard} missed the {timeout_s}s deadline during "
                    f"{kind} fan-out",
                    shard=shard,
                    kind=kind,
                )
            except Exception as exc:  # repro: noqa(REP005) — fan-out failure boundary, classified by policy
                failures[shard] = exc
        return results, failures

    def _wrap_failure(
        self, kind: str, shard: int, error: BaseException
    ) -> ShardFailureError:
        """Attach shard identity to a propagated fan-out failure."""
        if isinstance(error, ShardFailureError):
            return error
        return ShardFailureError(
            f"shard {shard} failed during {kind} fan-out: "
            f"{type(error).__name__}: {error}",
            shard=shard,
            kind=kind,
        )

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (exponential, deterministic jitter)."""
        if self._retry_backoff_s <= 0:
            return
        delay = self._retry_backoff_s * (2 ** (attempt - 1))
        delay *= 0.5 + self._jitter.random()
        time.sleep(delay)

    def _record_retry(
        self, kind: str, shards: Sequence[int], attempt: int, started: float
    ) -> None:
        # Reliability counters stay exact under head sampling (ENABLED),
        # while the span only joins sampled traces (active()).
        if not _ort.enabled():
            return
        _om.shard_retries_total().inc(len(shards), kind=kind)
        if _ort.active():
            _osp.record(
                "shard.retry", started, kind=kind, attempt=attempt, shards=len(shards)
            )

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

    def _recover(
        self,
        kind: str,
        queries: Sequence[ScalarProductQuery],
        k: int | None,
        shard: int,
    ) -> Any:
        """Exact stand-in for a failed shard's slice: scan its live points.

        The octant fallback's scan over the shard's own rows, shaped like
        the slice it replaces; its stats count every row as verified and
        none as pruned.
        """
        store = self._stores[shard]
        answers = scan_store(store, kind, queries, k)
        if k is None:
            n = len(store)
            answers = [
                QueryResult(ids, QueryStats(n, 0, n, 0, n, int(ids.size)))
                for ids in answers
            ]
        return answers if kind.startswith("batch") else answers[0]

    def _fan_out(
        self,
        kind: str,
        call: Callable[[PlanarIndexCollection], _T],
        queries: Sequence[ScalarProductQuery],
        k: int | None = None,
        timeout_s: float | None = None,
    ) -> tuple[list[_T | None], DegradedInfo | None]:
        """Run ``call`` against every shard under the failure policy.

        ``timeout_s`` overrides the engine's construction-time
        ``query_timeout_s`` for this one fan-out — the serving layer
        passes a request's remaining deadline budget here so the engine
        wave honors the end-to-end contract instead of a static knob.

        Returns ``(results, degraded)`` where ``results[shard]`` is the
        shard's slice (or ``None`` for an unrecovered shard under a
        degrading policy) and ``degraded`` is ``None`` unless at least one
        shard failed its primary execution.  Failed shards are recovered
        by :meth:`_recover` over ``queries``.  Raises
        :class:`ShardFailureError` (with shard identity) under
        ``FailurePolicy.RAISE`` and :class:`DegradedAnswerError` when no
        shard survives.
        """
        policy = self._failure_policy
        timeout = self._query_timeout_s if timeout_s is None else float(timeout_s)
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout}")
        shards = list(range(self._n_shards))
        results, failures = self._execute_wave(
            kind,
            call,
            shards,
            None if timeout is None else time.monotonic() + timeout,
            fail_fast=policy is FailurePolicy.RAISE,
            timeout_s=timeout,
        )
        if not failures:
            return [results[shard] for shard in shards], None
        first_shard = min(failures)
        first_error = failures[first_shard]
        if policy is FailurePolicy.RAISE:
            raise self._wrap_failure(kind, first_shard, first_error) from first_error
        retries = 0
        retry_recovered: list[int] = []
        if policy is FailurePolicy.RETRY_THEN_DEGRADE:
            for attempt in range(1, self._max_retries + 1):
                if not failures:
                    break
                retry_shards = sorted(failures)
                started = time.perf_counter()
                self._backoff(attempt)
                recovered_wave, failures = self._execute_wave(
                    kind,
                    call,
                    retry_shards,
                    None if timeout is None else time.monotonic() + timeout,
                    fail_fast=False,
                    timeout_s=timeout,
                )
                retries += len(retry_shards)
                results.update(recovered_wave)
                retry_recovered.extend(recovered_wave)
                self._record_retry(kind, retry_shards, attempt, started)
        scan_recovered: list[int] = []
        failed: list[int] = []
        for shard in sorted(failures):
            try:
                if _flt.ARMED:
                    _flt.check("shard.scan", shard=shard, kind=kind)
                obs_on = _ort.active()
                started = time.perf_counter() if obs_on else 0.0
                results[shard] = self._recover(kind, queries, k, shard)
                scan_recovered.append(shard)
                if obs_on:
                    _osp.record(
                        "shard.recover",
                        started,
                        shard=shard,
                        kind=kind,
                        **self._shard_cost(results[shard]),
                    )
            except Exception:  # repro: noqa(REP005) — recovery is best-effort; failures are accounted, not raised
                failed.append(shard)
        if len(failed) == self._n_shards:
            raise DegradedAnswerError(
                f"every shard failed during {kind} fan-out; no degraded "
                f"answer is possible (first cause: "
                f"{type(first_error).__name__}: {first_error})"
            ) from first_error
        sizes = self.shard_sizes()
        total = sum(sizes)
        dead = set(failed)
        covered = sum(size for shard, size in enumerate(sizes) if shard not in dead)
        degraded = DegradedInfo(
            failed_shards=tuple(failed),
            recovered_shards=tuple(sorted(set(retry_recovered) | set(scan_recovered))),
            cause=f"{type(first_error).__name__}: {first_error}",
            completeness=(covered / total) if total else 1.0,
            retries=retries,
        )
        self._record_degraded(kind, degraded)
        return [results.get(shard) for shard in shards], degraded

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (fans out to owning shards)
    # ------------------------------------------------------------------ #

    def _maintain(self, action: str, shard: int, fn: Callable[[], _T]) -> _T:
        """Run one shard's slice of a mutation under the failure policy.

        Retries under ``retry_then_degrade`` but never degrades: a shard
        mutation that cannot be applied raises a
        :class:`ShardFailureError` with the shard's identity, because
        silently dropping an update would corrupt the partition.
        Deterministic validation errors (the library's ``ValueError`` /
        ``KeyError`` families) pass through unwrapped — they are caller
        errors every shard would report identically, not shard faults.
        """
        kind = f"maintenance:{action}"
        attempt = 0
        while True:
            try:
                if _flt.ARMED:
                    _flt.check("shard.maintenance", shard=shard, action=action)
                return fn()
            except Exception as exc:  # repro: noqa(REP005) — policy boundary: classify, retry, or wrap
                if not _is_shard_fault(exc):
                    raise
                if (
                    self._failure_policy is FailurePolicy.RETRY_THEN_DEGRADE
                    and attempt < self._max_retries
                ):
                    attempt += 1
                    started = time.perf_counter()
                    self._backoff(attempt)
                    self._record_retry(kind, [shard], attempt, started)
                    continue
                raise self._wrap_failure(kind, shard, exc) from exc

    def _maintain_each(
        self,
        action: str,
        ids: np.ndarray | None,
        apply: Callable[[PlanarIndexCollection, Any], _T],
    ) -> list[_T]:
        """Apply a mutation to each owning shard (every shard if ``ids`` is None).

        Ownership masks come from :func:`assign_shards`; shards owning none
        of ``ids`` are skipped.
        """
        if ids is None:
            targets = [(shard, slice(None)) for shard in range(self._n_shards)]
        else:
            assignment = assign_shards(ids, self._n_shards, self._policy)
            masks = [assignment == shard for shard in range(self._n_shards)]
            targets = [(shard, mask) for shard, mask in enumerate(masks) if mask.any()]
        done = [
            self._maintain(
                action, shard, lambda s=shard, rows=rows: apply(self._collections[s], rows)
            )
            for shard, rows in targets
        ]
        self._record_shard_sizes()
        return done
