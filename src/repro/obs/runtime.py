"""The one switch and the one per-query context of the observability layer.

**The switch.**  ``REPRO_OBS`` holds the head-sampling rate the layer is
armed at: ``1``/``true``/``yes``/``on`` mean 1.0, a number in (0, 1] is
that rate, and anything else — unset, ``0``, ``off`` — leaves the layer
disarmed.  :func:`enable` / :func:`disable` set the same state at
runtime (e.g. around a single benchmark, or from a REPL while diagnosing
a live index); rate 0 means off in both places.

**The context.**  :data:`CONTEXT` is a :class:`contextvars.ContextVar`
holding ``(trace, span)``: the :class:`~repro.obs.trace.TraceContext` of
the query being served and the innermost open
:class:`~repro.obs.spans.SpanRecord`.  It is the only per-query state the
layer keeps.  Work handed to an executor carries it across the hop by
running under a copy of the submitting context::

    executor.submit(contextvars.copy_context().run, fn, *args)

so shard spans stitch into the issuing query's tree and nothing a task
sets survives into the next task on the same pool thread.

Hot paths read :func:`active` into a local boolean once per query::

    from ..obs import runtime as _rt
    ...
    obs_on = _rt.active()
    if obs_on:
        <record metrics / spans>

:func:`active` is ``ENABLED and the current trace (if any) is sampled``:
an unsampled trace mutes everything its query touches, including shard
work on executor threads.  The disarmed path short-circuits on
``ENABLED`` before reading the context, so it costs one module-attribute
read plus a branch.  Both the disarmed (<2%) and armed-at-1%-sampling
(≤5%) gates on ``PlanarIndex.query`` are enforced by
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import contextvars
import os
from typing import Any, Optional, Tuple

__all__ = ["ENABLED", "CONTEXT", "enabled", "rate", "enable", "disable", "active"]

_TRUTHY = {"1", "true", "yes", "on"}


def _parse_rate(raw: str) -> float:
    """``REPRO_OBS`` value → head-sampling rate (0.0 = disarmed)."""
    raw = raw.strip().lower()
    if raw in _TRUTHY:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        return 0.0
    return value if 0.0 < value <= 1.0 else 0.0


#: Head-sampling rate in (0, 1] while armed, 0.0 while disarmed.
RATE: float = _parse_rate(os.environ.get("REPRO_OBS", ""))

#: Whether instrumentation records anything (``RATE > 0``).  Mutated
#: only through :func:`enable` / :func:`disable`; hot paths read it
#: directly, and ``perfbench`` refuses to measure while it is true.
ENABLED: bool = RATE > 0.0

#: ``(trace, span)`` of the query running in this context.
CONTEXT: contextvars.ContextVar[Tuple[Optional[Any], Optional[Any]]] = (
    contextvars.ContextVar("repro_obs", default=(None, None))
)


def enabled() -> bool:
    """Whether the observability layer is currently armed."""
    return ENABLED  # repro: noqa(REP012) — thread-shared flag; arming obs is process-wide by design


def rate() -> float:
    """The armed head-sampling rate; 0.0 while disarmed."""
    return RATE  # repro: noqa(REP012) — thread-shared flag; arming obs is process-wide by design


def active() -> bool:
    """Whether instrumentation should record *in this context, right now*.

    ``ENABLED and not muted``: the process switch short-circuits first so
    the disarmed hot path never reads the context.  A query is muted when
    its trace was head-sampled out (:mod:`repro.obs.trace`).
    """
    if not ENABLED:  # repro: noqa(REP012) — thread-shared flag; arming obs is process-wide by design
        return False
    trace = CONTEXT.get()[0]
    return trace is None or trace.sampled


def enable(rate: float = 1.0) -> float:
    """Arm metrics, spans, and EXPLAIN counters at head-sampling ``rate``.

    ``rate`` is in [0, 1]; 0 disarms, exactly like :func:`disable`.
    Returns the previous rate, so ``enable(previous)`` restores it.
    """
    global ENABLED, RATE
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"head-sampling rate must be in [0, 1], got {rate}")
    previous = RATE
    RATE = rate
    ENABLED = rate > 0.0
    return previous


def disable() -> float:
    """Return the instrumentation to its zero-cost no-op mode.

    Returns the previous rate, so ``enable(previous)`` restores it.
    """
    return enable(0.0)
