"""Micro-batcher: coalesces concurrent requests into engine batch calls.

The service admits requests onto one asyncio queue; this module drains
that queue and turns *windows* of requests into single
``ShardedFunctionIndex.query_batch`` / ``topk_batch`` calls — the calls
PR 8 made cheap — so concurrency buys amortization instead of executor
contention.  Answers are **bit-identical** to direct library calls: the
batcher only regroups requests, the engine's batch facades already
guarantee batch ≡ loop-of-singles (property-tested on both sides).

Coalescing policy (``window > 0``):

* the first queued request opens a batch and drains whatever else is
  already queued (same event-loop tick bursts coalesce for free);
* the batch then *lingers* — up to the window deadline — only while
  other admitted requests are still unanswered somewhere (in flight on
  the engine, or mid-parse on another connection).  A lone request on an
  otherwise idle service flushes immediately, so the window adds **zero
  latency** to unconcurrent traffic;
* ``batch_max`` caps a batch; excess requests start the next one.

``window == 0`` is strict passthrough — every request becomes its own
engine call (still concurrent across executor threads).  That is the
baseline ``benchmarks/bench_serve.py`` measures the ≥3× amortization
gate against.

Requests in one batch may mix inequality and top-k ops (and operators
and ``k``); the batcher groups by ``(op, comparison, k)`` and issues one
engine call per group, concurrently.  Each group call runs on an
executor thread under **one serve-level trace**: the engine's own
``begin`` sees the active context and nests, so shard spans stitch under
the serve root and every member request of the group reports the same
``trace_id`` (see ``docs/serving.md``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..exceptions import DeadlineExceededError, DrainTimeoutError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import trace as _otr
from ..parallel.engine import ShardedFunctionIndex
from ..reliability import faults as _flt
from .resilience import Deadline

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass(eq=False)
class PendingRequest:
    """One admitted request waiting for its batch.

    ``eq=False`` keeps dataclass identity semantics: the batcher tracks
    unresolved requests in a set, and two requests with identical
    payloads are still two distinct requests.
    """

    op: str  #: "query" | "topk"
    normal: np.ndarray
    offset: float
    comparison: str  #: "<=", "<", ">=", ">"
    k: int  #: top-k size (0 for inequality requests)
    tenant: str
    deadline: Optional[Deadline] = None  #: end-to-end budget (None = unbounded)
    future: "asyncio.Future[tuple[Any, Optional[str]]]" = field(repr=False, default=None)  # type: ignore[assignment]


def _run_group(
    engine: ShardedFunctionIndex,
    op: str,
    normals: np.ndarray,
    offsets: np.ndarray,
    k: int,
    comparison: str,
    timeout_s: Optional[float],
) -> tuple[list, Optional[str]]:
    """Execute one coalesced engine call on an executor thread.

    Opens the serve-level trace *here*, on the thread the engine call
    runs on: the engine's facade trace root is then a null handle
    (traces never nest) and its shard fan-out stitches under this root,
    so one coalesced call yields one trace.  Returns the positionally
    aligned answers plus the trace id the member responses share.

    ``timeout_s`` is the group's deadline-derived engine budget; a stall
    injected at ``serve.dispatch`` burns it on this thread, off the
    event loop.
    """
    if _flt.ARMED:
        _flt.check("serve.dispatch", op=op, n=len(offsets))
    with _otr.root(
        "serve", shards=engine.n_shards, op=op, n_requests=len(offsets)
    ) as trace:
        if op == "query":
            answers: list = engine.query_batch(
                normals, offsets, comparison, timeout_s=timeout_s
            )
        else:
            answers = engine.topk_batch(
                normals, offsets, k, comparison, timeout_s=timeout_s
            )
        if trace:
            degraded = next(
                (answer.degraded for answer in answers if answer.degraded is not None),
                None,
            )
            if _ort.enabled():
                _om.answer_completeness().observe(
                    degraded.completeness if degraded is not None else 1.0,
                    kind="serve",
                )
            trace.set(
                degraded=degraded,
                shards=engine.n_shards,
                n_queries=len(offsets),
                results=sum(int(np.asarray(answer.ids).size) for answer in answers),
            )
    return answers, trace.trace_id


class MicroBatcher:
    """Owns the request queue and the coalescing loop.

    Single-threaded under the event loop except for the engine calls,
    which run on the loop's default executor.  ``outstanding`` counts
    admitted requests whose futures are unresolved — the service uses it
    as the admission queue depth (it is the true backlog: queued, in a
    forming batch, or in flight on the engine).
    """

    def __init__(
        self,
        engine: ShardedFunctionIndex,
        *,
        window_s: float,
        batch_max: int,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window must be >= 0, got {window_s}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self._engine = engine
        self._window_s = window_s
        self._batch_max = batch_max
        self._queue: "asyncio.Queue[PendingRequest]" = asyncio.Queue()
        self._outstanding = 0
        self._unresolved: set[PendingRequest] = set()
        self._task: Optional[asyncio.Task] = None
        self._stats = {"batches": 0, "batched_requests": 0, "max_batch": 0}

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet answered (the live backlog)."""
        return self._outstanding

    def stats(self) -> dict:
        """Snapshot of batching counters (batches, members, max size)."""
        snapshot = dict(self._stats)
        mean = (
            snapshot["batched_requests"] / snapshot["batches"]
            if snapshot["batches"]
            else 0.0
        )
        snapshot["mean_batch"] = round(mean, 3)
        return snapshot

    def start(self) -> None:
        """Start the coalescing loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Drain the backlog within the budget, then fail-fast leftovers.

        Callers must stop accepting new requests first (close the HTTP
        server).  Requests flushed inside ``drain_timeout_s`` resolve
        normally; anything still unanswered when the budget runs out gets
        :class:`DrainTimeoutError` set on its future — an explicit 503
        instead of a dead connection — so shutdown is bounded no matter
        what is stuck on the engine.
        """
        deadline = asyncio.get_running_loop().time() + drain_timeout_s
        while self._outstanding > 0 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._unresolved:
            error = DrainTimeoutError(
                f"{len(self._unresolved)} request(s) still unanswered when the "
                f"{drain_timeout_s}s drain budget ran out"
            )
            for member in list(self._unresolved):
                self._resolve(member, error=error)

    async def enqueue(self, request: PendingRequest) -> tuple[Any, Optional[str]]:
        """Queue one admitted request and await ``(answer, trace_id)``."""
        request.future = asyncio.get_running_loop().create_future()
        self._outstanding += 1
        self._unresolved.add(request)
        # Serve-layer families record unconditionally: running the service
        # is explicit opt-in, and /metrics must be useful without REPRO_OBS
        # (engine internals still arm separately).
        _om.serve_queue_depth().set(float(self._outstanding))
        self._queue.put_nowait(request)
        return await request.future

    async def _run(self) -> None:
        """The coalescing loop: form batches, dispatch engine groups."""
        while True:
            first = await self._queue.get()
            batch = [first]
            if self._window_s > 0 and self._batch_max > 1:
                await self._fill(batch)
            self._dispatch(batch)

    async def _fill(self, batch: list) -> None:
        """Grow ``batch`` up to the size cap / window deadline.

        Lingering is conditional: once the queue is drained, keep
        waiting only while other admitted requests are still unanswered
        (they may join this window); an idle service flushes at once.
        The linger is also capped by the *tightest member's* remaining
        deadline budget — a batch never idles a nearly-expired request
        past its 504 to wait for company.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._window_s
        while len(batch) < self._batch_max:
            while len(batch) < self._batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if len(batch) >= self._batch_max:
                return
            if self._outstanding <= len(batch):
                return
            remaining = deadline - loop.time()
            for member in batch:
                if member.deadline is not None:
                    remaining = min(remaining, member.deadline.remaining_s())
            if remaining <= 0:
                return
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), timeout=remaining)
                )
            except asyncio.TimeoutError:
                return

    def _dispatch(self, batch: list) -> None:
        """Group a batch by ``(op, comparison, k)`` and fire engine calls."""
        if _flt.ARMED:
            try:
                _flt.check("serve.flush", n=len(batch))
            except Exception as exc:  # repro: noqa(REP005) — injected flush fault fans out to every member future
                for request in batch:
                    self._resolve(request, error=exc)
                return
        self._stats["batches"] += 1
        self._stats["batched_requests"] += len(batch)
        if len(batch) > self._stats["max_batch"]:
            self._stats["max_batch"] = len(batch)
        groups: dict[tuple[str, str, int], list[PendingRequest]] = {}
        for request in batch:
            key = (request.op, request.comparison, request.k)
            groups.setdefault(key, []).append(request)
        loop = asyncio.get_running_loop()
        for (op, comparison, k), members in groups.items():
            loop.create_task(self._execute_group(op, comparison, k, members))

    async def _execute_group(
        self,
        op: str,
        comparison: str,
        k: int,
        members: list,
    ) -> None:
        """Run one grouped engine call and resolve its member futures.

        Members whose deadline already expired fail fast with ``504``
        material instead of burning an engine slot; the survivors' engine
        call gets a deadline-derived ``timeout_s`` (the *loosest* member's
        remaining budget, so a tight stranger coalesced into the group
        cannot shrink everyone else's engine time — per-request deadline
        enforcement stays at the service layer).
        """
        live: list[PendingRequest] = []
        for member in members:
            if member.deadline is not None:
                member.deadline.mark("linger")
                if member.deadline.expired():
                    _om.serve_deadline_expired_total().inc(stage="dispatch")
                    self._resolve(
                        member,
                        error=DeadlineExceededError(
                            "deadline budget exhausted before the engine call"
                        ),
                    )
                    continue
            live.append(member)
        if not live:
            return
        timeout_s: Optional[float] = None
        if all(member.deadline is not None for member in live):
            timeout_s = max(
                0.001, max(member.deadline.remaining_s() for member in live)
            )
        _om.serve_batch_size().observe(float(len(live)), op=op)
        normals = np.stack([member.normal for member in live])
        offsets = np.asarray(
            [member.offset for member in live], dtype=np.float64
        )
        loop = asyncio.get_running_loop()
        try:
            answers, trace_id = await loop.run_in_executor(
                None,
                _run_group,
                self._engine,
                op,
                normals,
                offsets,
                k,
                comparison,
                timeout_s,
            )
        except Exception as exc:  # repro: noqa(REP005) — fan the group failure out to every member future; the HTTP layer maps it to a status
            for member in live:
                self._resolve(member, error=exc)
            return
        for member, answer in zip(live, answers):
            self._resolve(member, result=(answer, trace_id))

    def _resolve(
        self,
        member: PendingRequest,
        *,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve one member future and retire it from the backlog.

        Guarded on set membership so a request can only be retired once —
        the drain fail-fast path and a late engine completion may both
        try to resolve the same member.
        """
        if member not in self._unresolved:
            return
        self._unresolved.discard(member)
        self._outstanding -= 1
        _om.serve_queue_depth().set(float(self._outstanding))
        if member.future.done():
            return
        if error is not None:
            member.future.set_exception(error)
        else:
            member.future.set_result(result)
