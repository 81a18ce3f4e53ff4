"""Process-local metrics registry: counters, gauges, histograms.

The registry is the single sink for every quantitative signal the Planar
index emits — pruning splits (|SI|/|LI|/|II|), best-index selection
choices, verification counts, and query/span/bench latencies.  It is
deliberately dependency-free (stdlib only) and Prometheus-shaped so the
exporters in :mod:`repro.obs.exporters` can emit standard exposition text
without translation.

Design constraints, in order:

1. **O(1) per query.**  Every recording call is a dict update keyed by a
   label tuple; sizes are added as scalars, never per point.  This is the
   REP006 discipline applied to bookkeeping.
2. **Labels are declared up front.**  A metric family fixes its label
   names at creation; every sample must bind exactly those names.  This
   catches label drift at the recording site instead of producing a
   corrupt exposition later.
3. **Histograms use fixed log-scale latency buckets** (three per decade
   from 1 µs to 10 s by default) so latency distributions from different
   runs and hosts are directly comparable and mergeable.

Thread safety: every mutation holds the family's lock.  The layer is
armed explicitly (``REPRO_OBS=1`` / ``obs.enable()``), so the lock cost
is never paid on the default path.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from typing import Iterator, Mapping, Sequence

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "registry",
    "reset",
    "generation",
    "queries_total",
    "query_latency",
    "count_query",
    "interval_points",
    "verified_points",
    "selection_total",
    "ii_estimate_error",
    "rows_gathered",
    "store_scans",
    "indexed_points",
    "shard_queries_total",
    "shard_points",
    "span_seconds",
    "bench_seconds",
    "explain_total",
    "tuning_recorded_total",
    "tuning_workload_size",
    "tuning_plans_total",
    "tuning_predicted_ii_mean",
    "faults_injected_total",
    "shard_retries_total",
    "degraded_queries_total",
    "checksum_failures_total",
    "atomic_writes_total",
    "traces_total",
    "answer_completeness",
    "slo_burn_rate",
    "slo_observed",
    "slo_ok",
    "serve_requests_total",
    "serve_request_seconds",
    "serve_batch_size",
    "serve_shed_total",
    "serve_queue_depth",
    "serve_deadline_expired_total",
    "breaker_state",
    "breaker_transitions_total",
    "serve_health_state",
]

#: Fixed log-scale latency buckets (seconds): three per decade, 1 µs – 10 s.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 3.0), 12) for exponent in range(-18, 4)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _MetricBase:
    """Shared plumbing: name/help/label validation and the series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        """Label values as a tuple in declared order; strict name check."""
        if len(labels) != len(self.labelnames) or any(
            name not in labels for name in self.labelnames
        ):
            raise ValueError(
                f"metric {self.name!r} requires labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_MetricBase):
    """Monotonically increasing sum, one series per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        amount = float(amount)
        if amount < 0.0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0.0 if never incremented)."""
        return self._series.get(self._key(labels), 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """Copy of all series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._series)

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every series (merge/export format)."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in sorted(self.series().items())
            ],
        }


class Gauge(_MetricBase):
    """Point-in-time value (index sizes, ring-buffer occupancy, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def remove(self, **labels: object) -> None:
        """Drop the labelled series entirely (no-op when absent).

        Gauges describe *current* state, so when the entity behind a label
        disappears (an index is dropped, a shard is retired) the series
        must go with it — otherwise a relabelled survivor aliases the
        stale value.  Counters deliberately have no ``remove``: their
        history stays valid under relabelling.
        """
        key = self._key(labels)
        with self._lock:
            self._series.pop(key, None)

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0.0 if never set)."""
        return self._series.get(self._key(labels), 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """Copy of all series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._series)

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every series (merge/export format)."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in sorted(self.series().items())
            ],
        }


class HistogramSeries:
    """One labelled histogram series: per-bucket counts plus sum/count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        # counts[i] holds observations in (bucket[i-1], bucket[i]];
        # counts[n_buckets] is the +Inf overflow cell.
        self.counts = [0] * (n_buckets + 1)
        self.total = 0.0
        self.count = 0

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts in Prometheus ``le`` semantics."""
        running = 0
        out = []
        for cell in self.counts:
            running += cell
            out.append(running)
        return out


class Histogram(_MetricBase):
    """Fixed-bucket histogram (log-scale latency buckets by default)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be non-empty and strictly increasing"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled series."""
        value = float(value)
        key = self._key(labels)
        position = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = HistogramSeries(len(self.buckets))
            series.counts[position] += 1
            series.total += value
            series.count += 1

    def series(self) -> dict[tuple[str, ...], HistogramSeries]:
        """Live series map (read-only by convention)."""
        with self._lock:
            return dict(self._series)

    def count(self, **labels: object) -> int:
        """Number of observations in the labelled series."""
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations in the labelled series."""
        series = self._series.get(self._key(labels))
        return series.total if series is not None else 0.0

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every series, including bucket counts."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "counts": list(series.counts),
                    "sum": series.total,
                    "count": series.count,
                }
                for key, series in sorted(self.series().items())
            ],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create registry of metric families, snapshot/restore-able."""

    def __init__(self) -> None:
        self._metrics: dict[str, _MetricBase] = {}
        self._lock = threading.Lock()
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Family management
    # ------------------------------------------------------------------ #

    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: Sequence[str], **kwargs
    ) -> _MetricBase:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a counter family."""
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Get or create a histogram family (latency buckets by default)."""
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labelnames, buckets=buckets or LATENCY_BUCKETS
        )

    def get(self, name: str) -> _MetricBase | None:
        """The registered family called ``name``, or None."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_MetricBase]:
        with self._lock:
            families = sorted(self._metrics.items())
        return iter([metric for _, metric in families])

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every family and all recorded samples."""
        with self._lock:
            self._metrics.clear()
            self._generation += 1

    def generation(self) -> int:
        """Monotonic count of :meth:`reset` calls.

        Hot paths that cache a family object (to skip the registry lock
        per increment) key their cache on this value so a reset can't
        leave them writing into a family the registry no longer holds.
        """
        return self._generation

    def n_samples(self) -> int:
        """Total recorded samples across all families (0 means pristine)."""
        total = 0
        for metric in self:
            if isinstance(metric, Histogram):
                total += sum(series.count for series in metric.series().values())
            else:
                total += len(metric.series())  # type: ignore[union-attr]
        return total

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-able dump of every family and series."""
        return {"metrics": [metric.snapshot() for metric in self]}

    def restore(self, snapshot: Mapping) -> None:
        """Merge a :meth:`snapshot` dump into this registry.

        Counters and histogram cells are *added* (so restore composes
        across runs); gauges are overwritten with the stored value.
        """
        for entry in snapshot.get("metrics", []):
            kind = entry.get("type")
            if kind not in _KINDS:
                raise ValueError(f"unknown metric type {kind!r} in snapshot")
            name = entry["name"]
            labelnames = tuple(entry.get("labelnames", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                counter = self.counter(name, help_text, labelnames)
                for row in entry.get("series", []):
                    counter.inc(float(row["value"]), **row.get("labels", {}))
            elif kind == "gauge":
                gauge = self.gauge(name, help_text, labelnames)
                for row in entry.get("series", []):
                    gauge.set(float(row["value"]), **row.get("labels", {}))
            else:
                buckets = tuple(entry.get("buckets", LATENCY_BUCKETS))
                histogram = self.histogram(name, help_text, labelnames, buckets)
                if histogram.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket layout differs from snapshot"
                    )
                for row in entry.get("series", []):
                    key = histogram._key(row.get("labels", {}))
                    counts = [int(cell) for cell in row["counts"]]
                    if len(counts) != len(histogram.buckets) + 1:
                        raise ValueError(
                            f"histogram {name!r} series has {len(counts)} cells, "
                            f"expected {len(histogram.buckets) + 1}"
                        )
                    with histogram._lock:
                        series = histogram._series.get(key)
                        if series is None:
                            series = histogram._series[key] = HistogramSeries(
                                len(histogram.buckets)
                            )
                        for position, cell in enumerate(counts):
                            series.counts[position] += cell
                        series.total += float(row.get("sum", 0.0))
                        series.count += int(row.get("count", 0))


_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry every instrument records into."""
    return _DEFAULT


def reset() -> None:
    """Clear the default registry (CLI ``repro obs reset`` and tests)."""
    _DEFAULT.reset()


def generation() -> int:
    """Reset generation of the default registry (family-cache key)."""
    return _DEFAULT.generation()


# --------------------------------------------------------------------- #
# Standard instrument catalogue (see docs/observability.md)
# --------------------------------------------------------------------- #


def queries_total() -> Counter:
    """Queries answered, by kind / route / selection strategy."""
    return _DEFAULT.counter(
        "repro_queries_total",
        "Queries answered, by kind (inequality/topk/range/scan/scan_topk), "
        "route (intervals/scan/octant-fallback/baseline), and selection strategy.",
        ("kind", "route", "strategy"),
    )


def query_latency() -> Histogram:
    """End-to-end query wall time in seconds, by kind and route."""
    return _DEFAULT.histogram(
        "repro_query_latency_seconds",
        "End-to-end query wall time (seconds).",
        ("kind", "route"),
    )


def count_query(kind: str, route: str, strategy: str, started: float) -> None:
    """Count one answered query and observe its wall time since ``started``
    (a ``time.perf_counter()`` reading)."""
    queries_total().inc(kind=kind, route=route, strategy=strategy)
    query_latency().observe(time.perf_counter() - started, kind=kind, route=route)


def interval_points() -> Counter:
    """SI/II/LI cardinalities accumulated per index position."""
    return _DEFAULT.counter(
        "repro_interval_points_total",
        "Points classified into each interval (si/ii/li) per index position.",
        ("interval", "index"),
    )


def verified_points() -> Counter:
    """Points whose scalar product was actually evaluated."""
    return _DEFAULT.counter(
        "repro_verified_points_total",
        "Points whose scalar product was evaluated, by query kind.",
        ("kind",),
    )


def selection_total() -> Counter:
    """Best-index selection outcomes per strategy and chosen position."""
    return _DEFAULT.counter(
        "repro_selection_total",
        "Best-index selections, by strategy and chosen index position.",
        ("strategy", "index"),
    )


#: Estimate-error histogram buckets: |estimated - counted| |II| as a fraction of n.
II_ERROR_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.5, 1.0,
)


def ii_estimate_error() -> Histogram:
    """How far counted selection's sketch estimate was from the exact |II|."""
    return _DEFAULT.histogram(
        "repro_ii_estimate_error",
        "|sketch-estimated - counted| intermediate interval of the chosen "
        "index, as a fraction of the indexed points (counted selection).",
        (),
        buckets=II_ERROR_BUCKETS,
    )


def rows_gathered() -> Counter:
    """Feature rows gathered for verification (FeatureStore.take_rows)."""
    return _DEFAULT.counter(
        "repro_store_rows_gathered_total",
        "Feature rows gathered for verification via FeatureStore.take_rows.",
    )


def store_scans() -> Counter:
    """Full feature-matrix scans issued by the cost-based router."""
    return _DEFAULT.counter(
        "repro_store_scans_total",
        "Full feature-matrix scans issued (FeatureStore.scan_values).",
    )


def indexed_points() -> Gauge:
    """Live key count per Planar index."""
    return _DEFAULT.gauge(
        "repro_indexed_points",
        "Live keys per Planar index position.",
        ("index",),
    )


def shard_queries_total() -> Counter:
    """Per-shard query executions of the sharded engine."""
    return _DEFAULT.counter(
        "repro_shard_queries_total",
        "Shard-local query executions of the sharded engine, by query kind "
        "(inequality/range/topk/batch) and shard.",
        ("kind", "shard"),
    )


def shard_points() -> Gauge:
    """Live points owned by each shard of a sharded engine."""
    return _DEFAULT.gauge(
        "repro_shard_points",
        "Live points owned per shard of the sharded execution engine.",
        ("shard",),
    )


def span_seconds() -> Histogram:
    """Span durations by span name (populated by repro.obs.spans)."""
    return _DEFAULT.histogram(
        "repro_span_seconds",
        "Tracing span durations (seconds), by span name.",
        ("name",),
    )


def bench_seconds() -> Histogram:
    """Benchmark harness timings (repro.bench.harness.time_call)."""
    return _DEFAULT.histogram(
        "repro_bench_seconds",
        "Benchmark harness call timings (seconds), by bench label.",
        ("bench",),
    )


def explain_total() -> Counter:
    """EXPLAIN reports produced, by planned route."""
    return _DEFAULT.counter(
        "repro_explain_total",
        "EXPLAIN reports produced, by planned route.",
        ("route",),
    )


def tuning_recorded_total() -> Counter:
    """Workload sketches recorded, by query kind."""
    return _DEFAULT.counter(
        "repro_tuning_recorded_total",
        "Query sketches recorded into the workload ring buffer, by kind "
        "(inequality/range/topk/batch).",
        ("kind",),
    )


def tuning_workload_size() -> Gauge:
    """Sketches currently retained by the global workload recorder."""
    return _DEFAULT.gauge(
        "repro_tuning_workload_size",
        "Query sketches currently retained in the workload ring buffer.",
    )


def tuning_plans_total() -> Counter:
    """Tuning-plan lifecycle events, by action (advise/dry_run/apply)."""
    return _DEFAULT.counter(
        "repro_tuning_plans_total",
        "Tuning plan lifecycle events, by action (advise/dry_run/apply).",
        ("action",),
    )


def tuning_predicted_ii_mean() -> Gauge:
    """Advisor-predicted mean |II| before/after the proposed portfolio."""
    return _DEFAULT.gauge(
        "repro_tuning_predicted_ii_mean",
        "Advisor-predicted mean intermediate-interval size over the recorded "
        "workload, by stage (baseline/proposed).",
        ("stage",),
    )


def faults_injected_total() -> Counter:
    """Injected faults fired, by site and kind (chaos testing only)."""
    return _DEFAULT.counter(
        "repro_reliability_faults_injected_total",
        "Deliberately injected faults fired, by site and kind "
        "(error/stall/torn); only nonzero while a fault plan is armed.",
        ("site", "kind"),
    )


def shard_retries_total() -> Counter:
    """Shard retry attempts spent recovering fan-out failures, by kind."""
    return _DEFAULT.counter(
        "repro_reliability_shard_retries_total",
        "Shard retry attempts under failure policy retry_then_degrade, "
        "by fan-out kind.",
        ("kind",),
    )


def degraded_queries_total() -> Counter:
    """Answers returned with a DegradedInfo annotation, by kind."""
    return _DEFAULT.counter(
        "repro_reliability_degraded_queries_total",
        "Query answers annotated with DegradedInfo (shard failures "
        "recovered or degraded), by fan-out kind.",
        ("kind",),
    )


def checksum_failures_total() -> Counter:
    """Persistence checksum/manifest verification failures, by artifact."""
    return _DEFAULT.counter(
        "repro_reliability_checksum_failures_total",
        "Persisted-artifact integrity failures detected at load time "
        "(checksum mismatch, truncation, manifest damage), by artifact.",
        ("artifact",),
    )


def atomic_writes_total() -> Counter:
    """Atomic artifact writes committed via temp-file + os.replace."""
    return _DEFAULT.counter(
        "repro_reliability_atomic_writes_total",
        "Crash-safe artifact writes committed (temp file fsynced and "
        "renamed over the destination), by artifact.",
        ("artifact",),
    )


def traces_total() -> Counter:
    """Facade traces begun, by op kind and sampling decision.

    Incremented for *every* trace — sampled or not — so exact query
    counts survive head sampling (``count / rate`` extrapolation is
    never needed for throughput).
    """
    return _DEFAULT.counter(
        "repro_traces_total",
        "Facade query traces begun, by op kind "
        "(inequality/range/topk/batch) and head-sampling decision.",
        ("kind", "sampled"),
    )


#: Completeness histogram buckets: fractions of the full answer set.
COMPLETENESS_BUCKETS: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def answer_completeness() -> Histogram:
    """Per-answer completeness fraction (1.0 unless degraded), by kind."""
    return _DEFAULT.histogram(
        "repro_answer_completeness",
        "Fraction of the data each answer covered (1.0 unless shards "
        "were lost and the answer degraded), by op kind.",
        ("kind",),
        buckets=COMPLETENESS_BUCKETS,
    )


def slo_burn_rate() -> Gauge:
    """Error-budget burn rate per declared objective (1.0 = at budget)."""
    return _DEFAULT.gauge(
        "repro_slo_burn_rate",
        "Error-budget burn rate per declared objective; > 1.0 means the "
        "objective is violated over the evaluated window.",
        ("objective",),
    )


def slo_observed() -> Gauge:
    """Observed value per objective (quantile seconds / completeness)."""
    return _DEFAULT.gauge(
        "repro_slo_observed",
        "Observed value per declared objective (estimated latency "
        "quantile in seconds, or mean completeness fraction).",
        ("objective",),
    )


def slo_ok() -> Gauge:
    """1 when the objective is met over the evaluated window, else 0."""
    return _DEFAULT.gauge(
        "repro_slo_ok",
        "Whether each declared objective is currently met (1) or "
        "violated (0) over the evaluated window.",
        ("objective",),
    )


def serve_requests_total() -> Counter:
    """Serving-layer requests, by tenant, op, and terminal status."""
    return _DEFAULT.counter(
        "repro_serve_requests_total",
        "HTTP query-service requests, by tenant, op (query/topk), and "
        "terminal status (ok/shed/error).",
        ("tenant", "op", "status"),
    )


def serve_request_seconds() -> Histogram:
    """End-to-end served request latency (admission to response), by op."""
    return _DEFAULT.histogram(
        "repro_serve_request_seconds",
        "End-to-end served request latency in seconds, admission through "
        "response, by op (query/topk).",
        ("op",),
    )


#: Micro-batch size buckets: powers of two up to the default size cap.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def serve_batch_size() -> Histogram:
    """Requests coalesced per engine batch call, by op."""
    return _DEFAULT.histogram(
        "repro_serve_batch_size",
        "Requests the micro-batcher coalesced into each engine batch "
        "call, by op (query/topk); mean = amortization factor.",
        ("op",),
        buckets=BATCH_SIZE_BUCKETS,
    )


def serve_shed_total() -> Counter:
    """Requests shed before the engine, by tenant and reason."""
    return _DEFAULT.counter(
        "repro_serve_shed_total",
        "Requests rejected before reaching the engine (429 or 503), by "
        "tenant and reason (quota/queue_full/brownout/breaker/draining/"
        "fault).",
        ("tenant", "reason"),
    )


def serve_queue_depth() -> Gauge:
    """Admitted requests currently queued ahead of the batcher."""
    return _DEFAULT.gauge(
        "repro_serve_queue_depth",
        "Admitted requests currently waiting in the serving queue.",
    )


def serve_deadline_expired_total() -> Counter:
    """Requests whose end-to-end deadline budget ran out, by stage."""
    return _DEFAULT.counter(
        "repro_serve_deadline_expired_total",
        "Requests answered 504 because the end-to-end deadline budget ran "
        "out, by the pipeline stage that noticed (accept/await/dispatch).",
        ("stage",),
    )


def breaker_state() -> Gauge:
    """Circuit-breaker state per (tenant, op): 0 closed, 1 open, 2 half-open."""
    return _DEFAULT.gauge(
        "repro_breaker_state",
        "Per-(tenant, op) circuit-breaker state: 0=closed, 1=open, "
        "2=half_open.",
        ("tenant", "op"),
    )


def breaker_transitions_total() -> Counter:
    """Circuit-breaker transitions, by (tenant, op) and entered state."""
    return _DEFAULT.counter(
        "repro_breaker_transitions_total",
        "Circuit-breaker state transitions, by tenant, op, and the state "
        "entered (open/half_open/closed).",
        ("tenant", "op", "state"),
    )


def serve_health_state() -> Gauge:
    """Service health lifecycle: 0 healthy, 1 degraded, 2 browned_out, 3 draining."""
    return _DEFAULT.gauge(
        "repro_serve_health_state",
        "Service health-state machine: 0=healthy, 1=degraded, "
        "2=browned_out, 3=draining.",
    )
