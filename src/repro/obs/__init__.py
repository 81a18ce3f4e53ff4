"""repro.obs — observability for the Planar index.

Three cooperating pieces (see ``docs/observability.md``):

* :mod:`~repro.obs.metrics` — a process-local registry of counters,
  gauges, and log-bucket histograms covering pruning splits
  (|SI|/|II|/|LI|), selection outcomes, verification counts, and
  latencies.
* :mod:`~repro.obs.spans` — tracing spans recording wall-time trees per
  query (``collection.query`` → ``select`` → ``binary_search`` →
  ``verify_II`` → ``materialize``) into a ring buffer of recent traces.
* :mod:`~repro.obs.explain` — structured EXPLAIN reports produced by
  ``PlanarIndex.explain`` / ``IndexCollection.explain``.

Production telemetry on top (this is what the serving layer consumes):

* :mod:`~repro.obs.trace` — deterministic per-query trace ids, head
  sampling at the rate ``REPRO_OBS`` arms the layer with, and one
  trace-root helper (:func:`~repro.obs.trace.root`).  The trace and its
  innermost span live in one context variable
  (:data:`~repro.obs.runtime.CONTEXT`) that executor hops carry with
  ``contextvars.copy_context().run``, so a sharded query is one tree,
  not a pile of orphan roots.
* :mod:`~repro.obs.events` — a rotating JSONL query log
  (``REPRO_OBS_LOG``): one record per sampled query with latency, cost
  counters, shard fan-out, retries, and ``DegradedInfo``.
* :mod:`~repro.obs.slo` — declarative latency/completeness objectives
  evaluated into error-budget burn rates (``repro slo check``), plus
  :mod:`~repro.obs.dashboard` (``repro top``).

Everything is **off by default**: the instrumented hot paths check one
call (:func:`runtime.active`) and skip all bookkeeping, with a measured
cost under 2% on ``PlanarIndex.query`` — and under 5% when armed at 1%
head sampling (``benchmarks/bench_obs_overhead.py``).  One switch arms
it: ``REPRO_OBS=1`` (or a head-sampling rate such as ``REPRO_OBS=0.01``)
in the environment, or :func:`enable` (``enable(rate)``) at runtime;
rate 0 means off.

This package never imports :mod:`repro.core` — the cores import *us*.
"""

from __future__ import annotations

from .events import configure as configure_query_log
from .events import tail as tail_query_log
from .exporters import (
    default_state_path,
    load_state,
    merge_into_file,
    save_state,
    to_json,
    to_prometheus,
)
from .explain import ExplainReport, IndexCandidate, render_report
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from .metrics import reset as reset_metrics
from .runtime import active, disable, enable, enabled
from .slo import Objective, ObjectiveStatus, evaluate as evaluate_slos
from .spans import (
    SpanRecord,
    clear_traces,
    current_span,
    recent_traces,
    record,
    set_trace_capacity,
    span,
    traced,
)
from .trace import TraceContext, begin, current, find_trace, finish, root

__all__ = [
    # runtime switch
    "enable",
    "disable",
    "enabled",
    "active",
    # traces
    "TraceContext",
    "root",
    "begin",
    "finish",
    "current",
    "find_trace",
    # query log
    "configure_query_log",
    "tail_query_log",
    # SLOs
    "Objective",
    "ObjectiveStatus",
    "evaluate_slos",
    # metrics
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_metrics",
    # spans
    "SpanRecord",
    "span",
    "record",
    "traced",
    "current_span",
    "recent_traces",
    "clear_traces",
    "set_trace_capacity",
    # explain
    "ExplainReport",
    "IndexCandidate",
    "render_report",
    # exporters
    "to_json",
    "to_prometheus",
    "default_state_path",
    "save_state",
    "load_state",
    "merge_into_file",
]
