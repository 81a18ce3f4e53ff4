"""Trace contexts: deterministic ids, head sampling, one tree per query.

A *trace* wraps one facade query end to end.  Each trace carries:

* a **deterministic 64-bit trace id** — a splitmix64 hash of a process
  counter mixed with ``REPRO_OBS_SEED``, so two runs with the same seed
  assign identical ids to identical query sequences and a log line can
  be replayed to the exact query that produced it;
* a **head-sampling decision** computed purely from the id bits against
  the rate ``REPRO_OBS`` armed the layer at.  The decision is made once,
  at the root, and inherited by everything the query touches — including
  shard work on executor threads — so a trace is always complete or
  absent, never half-recorded;
* a **root span** that every span of the query nests under.

The trace and its innermost open span live in one context variable,
:data:`repro.obs.runtime.CONTEXT`.  Executor submissions run their work
under ``contextvars.copy_context().run``, so shard spans stitch into the
issuing query's tree and an unsampled trace mutes its shard work too
(:func:`repro.obs.runtime.active` is false while the current trace is
unsampled).  That is what lets tracing and the query log stay armed in
production at ``REPRO_OBS=0.01`` — the armed-but-unsampled cost is
bounded by the ≤5% gate in ``benchmarks/bench_obs_overhead.py``.  The
always-on ``repro_traces_total{kind,sampled}`` counter records *every*
trace so throughput numbers never need extrapolating by the sample rate.

Facade protocol: every traced entry point (``FunctionIndex._traced``,
``PlanarIndex.query``/``topk``, the serve dispatch) opens its trace with
:func:`root`::

    with trace.root(kind, shards=n) as tr:
        result = body()
        if tr:
            tr.set(stats=result.stats.to_dict, results=len(result))

``root`` returns a falsy null handle when the layer is disarmed or a
trace is already open (nested facade calls contribute spans to the outer
trace), aborts the trace when the body raises, and finishes it with
whatever ``set`` handed over otherwise.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Union

from . import events as _events
from . import metrics as _metrics
from . import runtime as _rt
from . import spans as _spans

__all__ = [
    "TraceContext",
    "root",
    "begin",
    "finish",
    "abort",
    "current",
    "is_sampled",
    "set_seed",
    "reset_ids",
    "find_trace",
]

_MASK64 = (1 << 64) - 1
#: Weyl-sequence increment of splitmix64 (odd, near 2**64 / phi).
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """One splitmix64 finalization round: uniform 64-bit avalanche."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def _parse_int(raw: str, default: int) -> int:
    """Parse an int env value, falling back to ``default`` on junk."""
    raw = raw.strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


_id_lock = threading.Lock()
_seed: int = _parse_int(os.environ.get("REPRO_OBS_SEED", ""), 0) & _MASK64
_counter: int = 0


def set_seed(seed: int) -> None:
    """Re-seed the trace-id sequence and restart the counter."""
    global _seed, _counter
    with _id_lock:
        _seed = int(seed) & _MASK64
        _counter = 0


def reset_ids() -> None:
    """Restart the id counter (same seed) — test isolation hook."""
    global _counter
    with _id_lock:
        _counter = 0


def _next_id() -> int:
    """Next deterministic 64-bit trace id (never 0)."""
    global _counter
    with _id_lock:
        _counter += 1
        state = (_seed + _counter * _GAMMA) & _MASK64
    return _splitmix64(state) or 1


def is_sampled(trace_id64: int, rate: Optional[float] = None) -> bool:
    """Head-sampling decision as a pure function of the id bits.

    The top 53 bits of the id are interpreted as a uniform fraction in
    [0, 1); the trace is kept when that fraction falls below ``rate``.
    Deterministic given (seed, query ordinal), so a logged trace id can
    be replayed under the same seed and *will* be sampled again.
    """
    if rate is None:
        rate = _rt.rate()
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return (trace_id64 >> 11) / float(1 << 53) < rate


class TraceContext:
    """Mutable per-query trace state threaded through a facade call."""

    __slots__ = ("_hex", "id64", "kind", "sampled", "root", "started", "attrs", "token")

    def __init__(
        self,
        id64: int,
        kind: str,
        sampled: bool,
        root: Optional[_spans.SpanRecord],
        started: float,
    ) -> None:
        self._hex: Optional[str] = None
        self.id64 = id64
        self.kind = kind
        self.sampled = sampled
        self.root = root
        self.started = started
        self.attrs: Dict[str, Any] = {}
        self.token: Optional[Any] = None

    @property
    def trace_id(self) -> str:
        """16-hex-digit trace id, formatted on first use.

        Unsampled traces on the armed fast path never need the string
        form, so the format cost is deferred until a span annotation or
        a query-log record actually asks for it.
        """
        hex_id = self._hex
        if hex_id is None:
            hex_id = self._hex = format(self.id64, "016x")
        return hex_id


def current() -> Optional[TraceContext]:
    """The trace context active in this execution context, if any."""
    return _rt.CONTEXT.get()[0]


def begin(kind: str, **attrs: Any) -> Optional[TraceContext]:
    """Open a trace root for a facade query; ``None`` when not tracing.

    Returns ``None`` when the obs layer is disarmed *or* a trace is
    already active in this context (nested facade calls — e.g. a batch
    fanning into per-query calls — contribute spans to the outer trace
    instead of starting their own).  Callers must balance a non-``None``
    return with exactly one :func:`finish` or :func:`abort` in the same
    context; :func:`root` does that for them.
    """
    rate = _rt.rate()
    if not rate:
        return None
    outer, parent = _rt.CONTEXT.get()
    if outer is not None:
        return None
    id64 = _next_id()
    sampled = is_sampled(id64, rate)
    ctx = TraceContext(id64, kind, sampled, None, time.perf_counter())
    if sampled:
        ctx.root = _spans.SpanRecord(
            f"query.{kind}", ctx.started, attrs={"trace_id": ctx.trace_id, **attrs}
        )
    if attrs:
        ctx.attrs.update(attrs)
    ctx.token = _rt.CONTEXT.set((ctx, ctx.root if sampled else parent))
    return ctx


#: Per-query cost counters: either the mapping itself or a zero-argument
#: callable producing it.  Facades pass the callable form (typically a
#: bound ``QueryStats.to_dict``) so the armed-but-unsampled fast path
#: never materializes a dict nobody reads.
StatsArg = Optional[Union[Mapping[str, Any], Callable[[], Mapping[str, Any]]]]

#: ``(registry generation, counter)`` cache for ``repro_traces_total``.
#: The counter is bumped once per facade query, so the per-call registry
#: lookup (a lock acquire plus a dict probe) is worth skipping; the
#: generation key keeps the cache honest across ``metrics.reset()``.
_TRACES_TOTAL: Optional[tuple] = None


def _traces_counter() -> Any:
    """``repro_traces_total`` family, cached against registry resets."""
    global _TRACES_TOTAL
    generation = _metrics.generation()
    cached = _TRACES_TOTAL
    if cached is None or cached[0] != generation:
        cached = (generation, _metrics.traces_total())
        _TRACES_TOTAL = cached  # repro: noqa(REP012) — idempotent cache; racing threads compute the same value
    return cached[1]


def _resolve_stats(stats: StatsArg) -> Optional[Mapping[str, Any]]:
    """Materialize a lazy stats argument (no-op for plain mappings)."""
    if callable(stats):
        return stats()
    return stats


def _close(ctx: TraceContext) -> float:
    """Restore the context ``ctx`` was opened in; returns the latency."""
    latency = time.perf_counter() - ctx.started
    _rt.CONTEXT.reset(ctx.token)
    if ctx.root is not None:
        ctx.root.duration = latency
        _spans.complete(ctx.root, _rt.CONTEXT.get()[1])
    return latency


def finish(
    ctx: TraceContext,
    *,
    stats: StatsArg = None,
    degraded: Optional[Any] = None,
    shards: int = 1,
    retries: int = 0,
    n_queries: int = 1,
    results: Optional[int] = None,
) -> None:
    """Close a trace successfully and emit its telemetry.

    ``stats`` is a flat mapping of per-stage cost counters (candidates
    verified, |II| window sizes, LBS scan counts...) **or a zero-argument
    callable producing one** — the callable is only invoked for sampled
    or slow traces, keeping the unsampled fast path allocation-free;
    ``degraded`` is a ``DegradedInfo``-shaped object exposing
    ``to_dict()`` or ``None``.  Always increments ``repro_traces_total``;
    emits a query-log record when the event log is armed and the trace
    is sampled (or slower than the slow-query threshold, which is
    always logged).
    """
    latency = _close(ctx)
    resolved: Optional[Mapping[str, Any]] = None
    if ctx.root is not None:
        resolved = _resolve_stats(stats)
        if resolved:
            ctx.root.attrs.update(resolved)
    if _rt.enabled():
        _traces_counter().inc(kind=ctx.kind, sampled="1" if ctx.sampled else "0")
    if _events.armed():
        slow = latency * 1000.0 >= _events.slow_ms()
        if ctx.sampled or slow:
            if resolved is None:
                resolved = _resolve_stats(stats)
            _events.emit(
                _build_record(
                    ctx,
                    latency,
                    stats=resolved,
                    degraded=degraded,
                    shards=shards,
                    retries=retries,
                    n_queries=n_queries,
                    results=results,
                    slow=slow,
                )
            )


def abort(ctx: TraceContext, error: BaseException) -> None:
    """Close a trace whose facade raised; errored traces always log."""
    if ctx.root is not None:
        ctx.root.attrs["error"] = type(error).__name__
    latency = _close(ctx)
    if _rt.enabled():
        _traces_counter().inc(kind=ctx.kind, sampled="1" if ctx.sampled else "0")
    if _events.armed():
        record = _build_record(ctx, latency, slow=latency * 1000.0 >= _events.slow_ms())
        record["error"] = f"{type(error).__name__}: {error}"
        _events.emit(record)


def _build_record(
    ctx: TraceContext,
    latency: float,
    *,
    stats: Optional[Mapping[str, Any]] = None,
    degraded: Optional[Any] = None,
    shards: int = 1,
    retries: int = 0,
    n_queries: int = 1,
    results: Optional[int] = None,
    slow: bool = False,
) -> Dict[str, Any]:
    """One JSON-ready query-log record (schema: docs/observability.md)."""
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "trace_id": ctx.trace_id,
        "op": ctx.kind,
        "latency_ms": round(latency * 1000.0, 3),
        "sampled": ctx.sampled,
        "slow": slow,
        "shards": int(shards),
        "retries": int(retries),
        "n_queries": int(n_queries),
    }
    if results is not None:
        record["results"] = int(results)
    if stats:
        record["cost"] = {key: value for key, value in stats.items() if value is not None}
    record["degraded"] = degraded.to_dict() if degraded is not None else None
    if ctx.sampled and ctx.root is not None:
        record["trace"] = ctx.root.to_dict()
    return record


class _NullRoot:
    """Handle :func:`root` returns when the query is not traced."""

    __slots__ = ()

    trace_id: Optional[str] = None

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullRoot":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_ROOT = _NullRoot()


class _Root:
    """Handle on an open trace: finishes it on exit, aborts it on error."""

    __slots__ = ("ctx", "_outcome")

    def __init__(self, ctx: TraceContext) -> None:
        self.ctx = ctx
        self._outcome: Dict[str, Any] = {}

    @property
    def trace_id(self) -> str:
        return self.ctx.trace_id

    def set(self, **outcome: Any) -> None:
        """Hand over :func:`finish` keywords (stats, degraded, results...)."""
        self._outcome.update(outcome)

    def __enter__(self) -> "_Root":
        return self

    def __exit__(self, exc_type: Any, exc: Optional[BaseException], tb: Any) -> None:
        if exc is None:
            finish(self.ctx, **self._outcome)
        else:
            abort(self.ctx, exc)


def root(kind: str, **attrs: Any) -> Union[_Root, _NullRoot]:
    """Open a ``kind`` trace for the ``with`` block it is entered by.

    Returns a falsy null handle (``trace_id`` ``None``) when the layer is
    disarmed or a trace is already open here, so callers build the
    outcome they hand to :meth:`_Root.set` only ``if tr:``.
    """
    if not _rt.rate():  # the disarmed fast path skips begin's call
        return _NULL_ROOT
    ctx = begin(kind, **attrs)
    return _NULL_ROOT if ctx is None else _Root(ctx)


def find_trace(prefix: str) -> Optional[_spans.SpanRecord]:
    """Most recent retained trace whose id starts with ``prefix``.

    Looks through the in-process ring buffer newest-first.  The CLI
    (``repro obs trace <id>``) falls back to the query log for traces
    that already rotated out.
    """
    prefix = prefix.strip().lower()
    if not prefix:
        return None
    for candidate in reversed(_spans.recent_traces()):
        trace_id = str(candidate.attrs.get("trace_id", ""))
        if trace_id.startswith(prefix):
            return candidate
    return None
