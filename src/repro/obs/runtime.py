"""Global on/off switch for the observability layer.

The switch mirrors the sanitizer's design philosophy (PR 1) with one
deliberate difference: where ``REPRO_SANITIZE`` is read once at import
time (so the no-op path can return the undecorated function object), the
observability flag is a *runtime* global so metrics can be armed
programmatically mid-process (``obs.enable()``) — e.g. around a single
benchmark, or from a REPL while diagnosing a live index.

Hot paths read :func:`active` into a local boolean once per query::

    from ..obs import runtime as _rt
    ...
    obs_on = _rt.active()
    if obs_on:
        <record metrics / spans>

:func:`active` combines the process-wide :data:`ENABLED` global with a
per-thread *mute* depth used by head sampling (:mod:`repro.obs.trace`):
when a query's trace id falls outside the sample, the whole query —
including shard work fanned out to executor threads — is muted so the
armed-but-unsampled cost collapses to one extra thread-local read.  The
disarmed path short-circuits on ``ENABLED`` before touching the
thread-local, so its cost is unchanged: one module-attribute read plus a
branch, a few tens of nanoseconds against queries measured in tens of
microseconds.  Both the disarmed (<2%) and armed-at-1%-sampling (≤5%)
gates on ``PlanarIndex.query`` are enforced by
``benchmarks/bench_obs_overhead.py``.

``REPRO_OBS=1`` (or ``true``/``yes``/``on``) in the environment arms the
layer from process start, which is how CI runs the tier-1 suite fully
instrumented.
"""

from __future__ import annotations

import os
import threading

__all__ = ["ENABLED", "enabled", "enable", "disable", "active", "mute", "unmute"]

_TRUTHY = {"1", "true", "yes", "on"}

#: Whether instrumentation records anything.  Mutated only through
#: :func:`enable` / :func:`disable`; hot paths read it directly.
ENABLED: bool = os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY


class _MuteState(threading.local):
    """Per-thread sampling-mute depth (0 = recording)."""

    def __init__(self) -> None:  # pragma: no cover - trivial
        self.depth = 0


_MUTED = _MuteState()


def enabled() -> bool:
    """Whether the observability layer is currently recording."""
    return ENABLED


def active() -> bool:
    """Whether instrumentation should record *on this thread, right now*.

    ``ENABLED and not muted``: the process switch short-circuits first so
    the disarmed hot path never pays the thread-local lookup.  Muting is
    how head sampling (:mod:`repro.obs.trace`) silences the per-query
    telemetry of unsampled traces while the layer stays armed.
    """
    if not ENABLED:  # repro: noqa(REP012) — thread-shared flag; enabling obs is process-wide by design
        return False
    return not _MUTED.depth  # repro: noqa(REP012) — threading.local by construction; each worker sees its own depth


def mute() -> None:
    """Silence instrumentation on this thread (nestable)."""
    _MUTED.depth += 1


def unmute() -> None:
    """Undo one :func:`mute`; never drops below zero."""
    if _MUTED.depth > 0:
        _MUTED.depth -= 1


def enable() -> None:
    """Arm metrics, spans, and EXPLAIN counters for this process."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Return the instrumentation to its zero-cost no-op mode."""
    global ENABLED
    ENABLED = False
