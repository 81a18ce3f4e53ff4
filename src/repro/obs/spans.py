"""Tracing spans: wall-time trees for the query pipeline.

A *span* is a named, timed section of work.  Spans nest — entering a
span while another is open makes it a child — so one ``collection.query``
call produces a small tree::

    collection.query                       412.3 us
      select                                18.1 us
      binary_search                          6.4 us
      verify_II                            131.0 us
      materialize                           22.7 us

Completed **root** spans (those with no parent) are pushed onto a
process-local ring buffer of recent traces so a REPL or the ``repro obs
dump`` CLI can inspect the last few queries without any collector
infrastructure.  Every completed span also feeds the
``repro_span_seconds`` histogram, labeled by span name.

Two APIs, two cost profiles:

``span(name, **attrs)``
    Context manager.  When the layer is disabled it returns a shared
    no-op singleton whose ``__enter__``/``__exit__`` do nothing — cheap,
    but still a call.  Use it at *per-query* granularity.

``record(name, started, **attrs)``
    Manual O(1) recording for hot inner sections: callers snapshot
    ``time.perf_counter()`` themselves, guarded by a local boolean, so
    the disabled path costs a single branch and no function call::

        obs_on = _rt.active()
        t0 = time.perf_counter() if obs_on else 0.0
        ... work ...
        if obs_on:
            record("binary_search", t0)

The innermost open span lives in :data:`repro.obs.runtime.CONTEXT`, so
spans nest per execution context, not per thread: a sharded query's
shards run on the querying thread and open their spans under its root,
and work handed to another thread under ``contextvars.copy_context().run``
does too, so a query produces one tree instead of a pile of orphan
roots.  A span that closes after its parent has closed (work that
outlived its query) is not attached — the parent's tree may already be
published — but still feeds ``repro_span_seconds``.

Everything here is O(1) per span — no per-point work ever happens in
this module (REP006 stays structurally impossible).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, TypeVar

from . import metrics as _metrics
from . import runtime as _rt

__all__ = [
    "SpanRecord",
    "span",
    "record",
    "traced",
    "current_span",
    "complete",
    "recent_traces",
    "clear_traces",
    "set_trace_capacity",
    "trace_capacity",
]

_F = TypeVar("_F", bound=Callable[..., Any])

#: Default number of recent root traces retained in the ring buffer.
DEFAULT_TRACE_CAPACITY = 64


@dataclass
class SpanRecord:
    """One completed (or in-flight) timed section.

    ``duration`` is in seconds and is ``0.0`` until the span closes.
    ``attrs`` holds small scalar annotations (sizes, labels) — never
    arrays.  ``children`` are sub-spans in completion order; ``closed``
    turns true when the span completes, after which no child attaches.
    """

    name: str
    start: float
    duration: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)
    closed: bool = field(default=False, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly nested representation."""
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_us": round(self.duration * 1e6, 3),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, indent: int = 0, width: int = 44) -> str:
        """Human-readable tree, one span per line."""
        lines: List[str] = []
        self._render_into(lines, indent, width)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], indent: int, width: int) -> None:
        label = "  " * indent + self.name
        attrs = ""
        if self.attrs:
            attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        lines.append(f"{label:<{width}s}{self.duration * 1e6:>12.1f} us{attrs}")
        for child in self.children:
            child._render_into(lines, indent + 1, width)

    def walk(self) -> Iterator["SpanRecord"]:
        """Yield this span then all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


_traces: Deque[SpanRecord] = deque(maxlen=DEFAULT_TRACE_CAPACITY)
#: Guards the ring buffer and every parent/child link, so a span closing
#: on a worker thread cannot attach to a parent that is closing.
_tree_lock = threading.Lock()


class _NullSpan:
    """Shared do-nothing span returned while the layer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens a :class:`SpanRecord` in the context."""

    __slots__ = ("_record", "_token")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self._record = SpanRecord(name=name, start=0.0, attrs=attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach scalar attributes to the open span."""
        self._record.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        trace = _rt.CONTEXT.get()[0]
        self._token = _rt.CONTEXT.set((trace, self._record))
        self._record.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        rec = self._record
        rec.duration = time.perf_counter() - rec.start
        _rt.CONTEXT.reset(self._token)
        complete(rec, _rt.CONTEXT.get()[1])


def complete(rec: SpanRecord, parent: Optional[SpanRecord]) -> None:
    """Attach a finished span to ``parent``, or publish it as a trace.

    A span whose parent has already closed is dropped from the tree:
    the parent may be published, and a late child must not change it.
    """
    with _tree_lock:
        rec.closed = True
        if parent is None:
            _traces.append(rec)  # repro: noqa(REP012) — trace ring is thread-shared by design; shard threads append under its lock
        elif not parent.closed:
            parent.children.append(rec)
    if _rt.enabled():
        _metrics.span_seconds().observe(rec.duration, name=rec.name)


def span(name: str, **attrs: Any):
    """Open a timed section; nests under any currently-open span.

    Returns a no-op singleton when the observability layer is disabled
    (or the current trace is sampled out), so the call is safe (and
    cheap) on hot paths — though the hottest inner sections should
    prefer :func:`record`.
    """
    if not _rt.active():
        return _NULL_SPAN
    return _ActiveSpan(name, attrs)


def record(name: str, started: float, **attrs: Any) -> None:
    """O(1) manual span recording for hot inner sections.

    ``started`` is a ``time.perf_counter()`` snapshot taken by the
    caller *before* the work; the span closes now.  The caller is
    responsible for guarding the call with ``runtime.active()`` — this
    function records unconditionally so a locally-captured flag stays
    consistent even if the layer is toggled mid-query.
    """
    now = time.perf_counter()
    rec = SpanRecord(name=name, start=started, duration=now - started, attrs=attrs)
    complete(rec, _rt.CONTEXT.get()[1])


def traced(name: Optional[str] = None) -> Callable[[_F], _F]:
    """Decorator form of :func:`span`.

    The wrapper checks ``runtime.active()`` first and calls the function
    directly when disabled (or sampled out), so the overhead off-mode is
    one attribute read and a branch.
    """

    def decorate(func: _F) -> _F:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _rt.active():
                return func(*args, **kwargs)
            with _ActiveSpan(span_name, {}):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def current_span() -> Optional[SpanRecord]:
    """The innermost open span in this context, if any."""
    return _rt.CONTEXT.get()[1]


def recent_traces(limit: Optional[int] = None) -> List[SpanRecord]:
    """Most recent completed root traces, oldest first."""
    with _tree_lock:
        traces = list(_traces)
    if limit is not None and limit >= 0:
        traces = traces[-limit:]
    return traces


def clear_traces() -> None:
    """Drop all retained traces (capacity is preserved)."""
    with _tree_lock:
        _traces.clear()


def set_trace_capacity(capacity: int) -> None:
    """Resize the ring buffer, keeping the newest ``capacity`` traces."""
    if capacity < 1:
        raise ValueError("trace capacity must be >= 1")
    global _traces
    with _tree_lock:
        _traces = deque(_traces, maxlen=capacity)


def trace_capacity() -> int:
    """Current ring-buffer capacity."""
    with _tree_lock:
        return _traces.maxlen or DEFAULT_TRACE_CAPACITY
