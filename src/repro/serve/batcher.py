"""Micro-batcher: coalesces concurrent requests into engine batch calls.

The service hands each admitted request to :meth:`MicroBatcher.enqueue`,
which appends it to a pending list; this module turns *windows* of
pending requests into single ``ShardedFunctionIndex.query_batch`` /
``topk_batch`` calls, so a window of requests costs one trace and one
shard fan-out wave instead of one each.  Answers are **bit-identical**
to direct library calls: the batcher only regroups requests, and every
batch member runs the single-query path, so batch ≡ loop-of-singles
holds by construction.

Coalescing policy (``window > 0``):

* the first pending request schedules one flush (``loop.call_soon``), so
  whatever else is enqueued in the same event-loop tick joins its batch
  (same-tick bursts coalesce for free);
* the batch then *lingers* — on a timer, up to the window deadline —
  only while other admitted requests are still unanswered somewhere (in
  flight on the engine, or mid-parse on another connection); a request
  enqueued meanwhile flushes again at once.  A lone request on an
  otherwise idle service flushes immediately, so the window adds **zero
  latency** to unconcurrent traffic;
* ``batch_max`` caps a batch; excess requests start the next one.

``window == 0`` is strict passthrough — every request becomes its own
engine call (still concurrent across executor threads).  That is the
baseline ``benchmarks/bench_serve.py`` measures the ≥3× amortization
gate against.

Requests in one batch may mix inequality and top-k ops (and operators
and ``k``); the batcher groups by ``(op, comparison, k)`` and the flush
starts one engine call per group on the loop's default executor,
concurrently.  The executor thread posts the answers back to the event
loop as one callback, which resolves the member futures: a lone request
is read, flushed, answered and written in five loop turns, with no task
created on the way.  asyncio still posts its own completion of the
future ``run_in_executor`` returns, which nothing awaits; it lands in
the same loop turn as the answers nearly always (2,971 and 2,984 of
3,000 keep-alive requests in two runs).  Resolving the members from that
future's done-callback instead costs a sixth turn per request (6.02
against 5.03).
Each group call runs on an executor thread under **one serve-level
trace**: the engine's own ``begin`` sees the active context and nests,
so shard spans stitch under the serve root and every member request of
the group reports the same ``trace_id`` (see ``docs/serving.md``).
A request's deadline is one loop timer, cancelled when the answer
arrives; if it fires first, the request's await raises
:class:`asyncio.TimeoutError` (the service answers ``504``).
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


def _expire(future: "asyncio.Future") -> None:
    """A request's deadline timer: fail its await unless it was answered."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class MicroBatcher:
    """Owns the pending list, the coalescing flush and the engine executor.

    Single-threaded under the event loop except for the engine calls,
    which run on the loop's default executor.  ``outstanding`` counts admitted requests whose
    futures are unresolved — the service uses it as the admission queue
    depth (it is the true backlog: pending, in a forming batch, or in
    flight on the engine).
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
        self._pending: list[PendingRequest] = []
        #: The scheduled flush: a ``call_soon`` handle, or the linger
        #: timer while ``_lingering``; None when no flush is due.
        self._flush_handle: Optional[asyncio.Handle] = None
        self._lingering = False
        #: Loop time the forming batch opened (its window's start).
        self._opened: Optional[float] = None
        self._outstanding = 0
        self._unresolved: set[PendingRequest] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
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
        """Bind the running event loop: the flushes and answers run on it."""
        self._loop = asyncio.get_running_loop()

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Drain the backlog within the budget, then fail-fast leftovers.

        Callers must stop accepting new requests first (close the HTTP
        server).  Requests flushed inside ``drain_timeout_s`` resolve
        normally; anything still unanswered when the budget runs out gets
        :class:`DrainTimeoutError` set on its future — an explicit 503
        instead of a dead connection — so shutdown is bounded no matter
        what is stuck on the engine.  An engine call still running is
        not waited for: its executor thread finishes it and the late
        answer is dropped.
        """
        deadline = asyncio.get_running_loop().time() + drain_timeout_s
        while self._outstanding > 0 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._pending.clear()
        if self._unresolved:
            error = DrainTimeoutError(
                f"{len(self._unresolved)} request(s) still unanswered when the "
                f"{drain_timeout_s}s drain budget ran out"
            )
            for member in list(self._unresolved):
                self._resolve(member, error=error)

    async def enqueue(self, request: PendingRequest) -> tuple[Any, Optional[str]]:
        """Add one admitted request to the pending list and await
        ``(answer, trace_id)``.

        A request with a ``deadline`` arms one loop timer for its
        remaining budget (at least 1 ms), cancelled once the answer
        arrives; if it fires first, the await raises
        :class:`asyncio.TimeoutError` while the request stays counted
        until its engine call returns.
        """
        loop = self._loop
        if loop is None:
            raise RuntimeError("micro-batcher is not started")
        future = request.future = loop.create_future()
        self._outstanding += 1
        self._unresolved.add(request)
        # Serve-layer families record unconditionally: running the service
        # is explicit opt-in, and /metrics must be useful without REPRO_OBS
        # (engine internals still arm separately).
        _om.serve_queue_depth().set(float(self._outstanding))
        self._pending.append(request)
        if self._flush_handle is None or self._lingering:
            # A lingering batch re-checks at once: the newcomer may fill it.
            if self._flush_handle is not None:
                self._flush_handle.cancel()
            self._lingering = False
            self._flush_handle = loop.call_soon(self._flush)
        if request.deadline is None:
            return await future
        timer = loop.call_later(
            max(request.deadline.remaining_s(), 0.001), _expire, future
        )
        try:
            return await future
        finally:
            timer.cancel()

    def _flush(self, expired: bool = False) -> None:
        """Cut the pending list into batches and dispatch them.

        A batch takes up to ``batch_max`` pending requests under a
        window, else one.  Under a window it *lingers* instead of
        dispatching while it has room, other admitted requests are still
        unanswered (they may join it), and neither the window nor the
        tightest member's remaining deadline budget has run out — a batch
        never idles a nearly-expired request past its 504 to wait for
        company.  The linger is one timer that flushes with ``expired``
        set, which dispatches the head batch as it is; an idle service
        flushes at once.
        """
        self._flush_handle = None
        self._lingering = False
        loop = self._loop
        pending = self._pending
        size = self._batch_max if self._window_s > 0 else 1
        while pending:
            batch = pending[:size]
            if not expired and len(batch) < size:
                if self._opened is None:
                    self._opened = loop.time()
                linger = self._linger_s(batch, loop.time())
                if linger > 0:
                    self._flush_handle = loop.call_later(linger, self._flush, True)
                    self._lingering = True
                    return
            del pending[: len(batch)]
            self._opened = None
            expired = False
            self._dispatch(batch)

    def _linger_s(self, batch: list, now: float) -> float:
        """How long ``batch`` may still wait for company (<= 0: dispatch now)."""
        if self._outstanding <= len(batch):
            return 0.0
        remaining = self._opened + self._window_s - now
        for member in batch:
            if member.deadline is not None:
                remaining = min(remaining, member.deadline.remaining_s())
        return remaining

    def _dispatch(self, batch: list) -> None:
        """Group a batch by ``(op, comparison, k)`` and start its engine calls."""
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
        for (op, comparison, k), members in groups.items():
            self._submit(op, comparison, k, members)

    def _submit(
        self,
        op: str,
        comparison: str,
        k: int,
        members: list,
    ) -> None:
        """Start one grouped engine call on the executor.

        Members whose deadline already expired fail fast with ``504``
        material instead of burning an engine slot; the survivors' engine
        call gets a deadline-derived ``timeout_s`` (the *loosest* member's
        remaining budget, so a tight stranger coalesced into the group
        cannot shrink everyone else's engine time — per-request deadline
        enforcement stays at the service layer).  The call runs as
        :meth:`_call` on the loop's default executor.
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
        try:
            self._loop.run_in_executor(
                None, self._call, live, op, normals, offsets, k, comparison, timeout_s
            )
        except RuntimeError as exc:  # the loop's executor is shut down
            for member in live:
                self._resolve(member, error=exc)

    def _call(
        self,
        live: list,
        op: str,
        normals: np.ndarray,
        offsets: np.ndarray,
        k: int,
        comparison: str,
        timeout_s: Optional[float],
    ) -> None:
        """One group's engine call, on an executor thread.

        The answers, or the failure, go straight back to the loop as one
        :meth:`_finish` callback.  The future ``run_in_executor`` returns
        is not awaited: a done-callback on it would run one loop turn
        after asyncio copies its state over, and the members would wait
        that turn.  asyncio's own post of that state still happens, but
        it normally shares :meth:`_finish`'s turn (module docstring).
        """
        outcome: Any = None
        error: Optional[Exception] = None
        try:
            outcome = _run_group(
                self._engine, op, normals, offsets, k, comparison, timeout_s
            )
        except Exception as exc:  # repro: noqa(REP005) — fan the group failure out to every member future; the HTTP layer maps it to a status
            error = exc
        try:
            self._loop.call_soon_threadsafe(self._finish, live, outcome, error)
        except RuntimeError:  # the loop closed while the call ran; nobody awaits it
            pass

    def _finish(self, live: list, outcome: Any, error: Optional[Exception]) -> None:
        """Resolve a group's member futures from its engine call's
        ``(answers, trace_id)`` or its failure.

        A failure fans out to every member future; the HTTP layer maps
        it to a status.
        """
        if error is not None:
            for member in live:
                self._resolve(member, error=error)
            return
        answers, trace_id = outcome
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
