"""Trace contexts: deterministic ids, head sampling, cross-thread stitching.

A *trace* wraps one facade query end to end.  Each trace carries:

* a **deterministic 64-bit trace id** — a splitmix64 hash of a process
  counter mixed with ``REPRO_OBS_SEED``, so two runs with the same seed
  assign identical ids to identical query sequences and a log line can
  be replayed to the exact query that produced it;
* a **head-sampling decision** computed purely from the id bits against
  ``REPRO_OBS_SAMPLE`` (default 1.0).  The decision is made once, at the
  root, and inherited by everything the query touches — including shard
  work on executor threads — so a trace is always complete or absent,
  never half-recorded;
* a **root span** that shard spans from worker threads stitch into via
  :func:`attach`, turning what used to be orphan per-thread roots into
  one tree per query.

Unsampled traces mute per-query telemetry on every participating thread
(:func:`repro.obs.runtime.mute`), which is what lets tracing and the
query log stay armed in production at ``REPRO_OBS_SAMPLE=0.01`` —
the armed-but-unsampled cost is bounded by the ≤5% gate in
``benchmarks/bench_obs_overhead.py``.  The always-on
``repro_traces_total{kind,sampled}`` counter records *every* trace so
throughput numbers never need extrapolating by the sample rate.

Facade protocol: every query of ``FunctionIndex`` (and so of its
subclass ``ShardedFunctionIndex``) runs through one helper,
``FunctionIndex._traced`` in :mod:`repro.core.function_index`::

    def _traced(self, kind, body, *args):
        ctx = trace.begin(kind, shards=...)
        if ctx is None:              # disarmed, or nested in a trace
            return body(*args)
        try:
            result = body(*args)
        except BaseException as exc:
            trace.abort(ctx, exc)
            raise
        trace.finish(ctx, stats=..., degraded=..., shards=..., retries=...)
        return result

Executor submission sites capture the issuing thread's context with
:func:`current` and re-enter it on the worker via ``with attach(ctx):``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Union

from . import events as _events
from . import metrics as _metrics
from . import runtime as _rt
from . import spans as _spans

__all__ = [
    "TraceContext",
    "begin",
    "finish",
    "abort",
    "current",
    "attach",
    "is_sampled",
    "sample_rate",
    "set_sample_rate",
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


def _parse_float(raw: str, default: float) -> float:
    """Parse a float env value, falling back to ``default`` on junk."""
    raw = raw.strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _parse_int(raw: str, default: int) -> int:
    """Parse an int env value, falling back to ``default`` on junk."""
    raw = raw.strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


#: Head-sampling rate in [0, 1]; 1.0 keeps every trace (the historical
#: behaviour, and what the instrumented test lanes run with).
SAMPLE_RATE: float = min(
    1.0, max(0.0, _parse_float(os.environ.get("REPRO_OBS_SAMPLE", ""), 1.0))
)

_id_lock = threading.Lock()
_seed: int = _parse_int(os.environ.get("REPRO_OBS_SEED", ""), 0) & _MASK64
_counter: int = 0


def sample_rate() -> float:
    """The current head-sampling rate."""
    return SAMPLE_RATE


def set_sample_rate(rate: float) -> float:
    """Set the head-sampling rate (clamped to [0, 1]); returns the old one."""
    global SAMPLE_RATE
    previous = SAMPLE_RATE
    SAMPLE_RATE = min(1.0, max(0.0, float(rate)))
    return previous


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
        rate = SAMPLE_RATE
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return (trace_id64 >> 11) / float(1 << 53) < rate


class TraceContext:
    """Mutable per-query trace state threaded through a facade call."""

    __slots__ = ("_hex", "id64", "kind", "sampled", "root", "started", "attrs")

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


class _Current(threading.local):
    """Per-thread active trace context (at most one; traces never nest)."""

    def __init__(self) -> None:  # pragma: no cover - trivial
        self.ctx: Optional[TraceContext] = None


_CURRENT = _Current()


def current() -> Optional[TraceContext]:
    """The trace context active on this thread, if any."""
    return _CURRENT.ctx  # repro: noqa(REP012) — threading.local by construction; workers see their own slot


def begin(kind: str, **attrs: Any) -> Optional[TraceContext]:
    """Open a trace root for a facade query; ``None`` when not tracing.

    Returns ``None`` when the obs layer is disarmed *or* a trace is
    already active on this thread (nested facade calls — e.g. a batch
    fanning into per-query calls — contribute spans to the outer trace
    instead of starting their own).  Callers must balance a non-``None``
    return with exactly one :func:`finish` or :func:`abort`.
    """
    if not _rt.ENABLED:  # repro: noqa(REP012) — thread-shared flag; enabling obs is process-wide by design
        return None
    if _CURRENT.ctx is not None:
        return None
    id64 = _next_id()
    sampled = is_sampled(id64)
    started = time.perf_counter()
    root: Optional[_spans.SpanRecord] = None
    ctx = TraceContext(id64, kind, sampled, root, started)
    if sampled:
        ctx.root = _spans.open_span(f"query.{kind}", trace_id=ctx.trace_id, **attrs)
    else:
        _rt.mute()
    if attrs:
        ctx.attrs.update(attrs)
    _CURRENT.ctx = ctx
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
    """Tear down thread state for ``ctx``; returns the latency in seconds."""
    latency = time.perf_counter() - ctx.started
    _CURRENT.ctx = None
    if ctx.sampled and ctx.root is not None:
        _spans.close_span(ctx.root)
    elif not ctx.sampled:
        _rt.unmute()
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
    if _rt.ENABLED:  # repro: noqa(REP012) — thread-shared flag; enabling obs is process-wide by design
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
    if _rt.ENABLED:  # repro: noqa(REP012) — thread-shared flag; enabling obs is process-wide by design
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


@contextmanager
def attach(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Re-enter a captured trace context on an executor worker thread.

    Inside the block the worker inherits the trace's sampling decision:
    sampled traces get the root span adopted (worker spans stitch into
    the issuing query's tree), unsampled traces mute the worker's
    telemetry for the duration.  ``attach(None)`` is a no-op so callers
    can pass :func:`current`'s result unconditionally.
    """
    if ctx is None:
        yield
        return
    previous = _CURRENT.ctx
    _CURRENT.ctx = ctx
    if ctx.sampled and ctx.root is not None:
        _spans.adopt(ctx.root)
        try:
            yield
        finally:
            _spans.release(ctx.root)
            _CURRENT.ctx = previous
    else:
        _rt.mute()
        try:
            yield
        finally:
            _rt.unmute()
            _CURRENT.ctx = previous


def find_trace(prefix: str) -> Optional[_spans.SpanRecord]:
    """Most recent retained trace whose id starts with ``prefix``.

    Looks through the in-process ring buffer newest-first.  The CLI
    (``repro obs trace <id>``) falls back to the query log for traces
    that already rotated out.
    """
    prefix = prefix.strip().lower()
    if not prefix:
        return None
    for root in reversed(_spans.recent_traces()):
        trace_id = str(root.attrs.get("trace_id", ""))
        if trace_id.startswith(prefix):
            return root
    return None
