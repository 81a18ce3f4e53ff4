"""Unit tests for trace contexts: ids, head sampling, facade protocol."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import QueryModel, ShardedFunctionIndex
from repro.obs import clear_traces, recent_traces
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.reliability import faults as _flt

#: Armed at this rate, every trace of the seed-0 id sequence is sampled out.
UNSAMPLED_RATE = 1e-9


@pytest.fixture
def tracing():
    """Armed obs with full sampling and a restored trace-id sequence."""
    previous = obs_runtime.enable()
    obs_trace.set_seed(0)
    clear_traces()
    yield
    clear_traces()
    obs_trace.set_seed(0)
    obs_runtime.enable(previous)


class TestIds:
    def test_ids_deterministic_per_seed(self, tracing):
        obs_trace.set_seed(42)
        first = [obs_trace._next_id() for _ in range(5)]
        obs_trace.set_seed(42)
        second = [obs_trace._next_id() for _ in range(5)]
        assert first == second
        obs_trace.set_seed(43)
        assert [obs_trace._next_id() for _ in range(5)] != first

    def test_reset_ids_restarts_sequence(self, tracing):
        obs_trace.set_seed(7)
        first = obs_trace._next_id()
        obs_trace.reset_ids()
        assert obs_trace._next_id() == first

    def test_ids_are_nonzero_64bit(self, tracing):
        for _ in range(100):
            id64 = obs_trace._next_id()
            assert 0 < id64 < 2**64


class TestSampling:
    def test_pure_function_of_id_bits(self, tracing):
        id64 = obs_trace._next_id()
        assert obs_trace.is_sampled(id64, 0.5) == obs_trace.is_sampled(id64, 0.5)

    def test_rate_extremes(self, tracing):
        id64 = obs_trace._next_id()
        assert obs_trace.is_sampled(id64, 1.0)
        assert not obs_trace.is_sampled(id64, 0.0)

    def test_rate_roughly_respected(self, tracing):
        obs_trace.set_seed(3)
        kept = sum(
            obs_trace.is_sampled(obs_trace._next_id(), 0.1) for _ in range(2000)
        )
        assert 100 < kept < 300  # ~200 expected; splitmix64 is uniform

    def test_enable_returns_previous_rate_and_rejects_out_of_range(self, tracing):
        assert obs_runtime.enable(0.25) == 1.0
        assert obs_runtime.rate() == 0.25 and obs_runtime.ENABLED
        assert obs_runtime.disable() == 0.25
        assert obs_runtime.rate() == 0.0 and not obs_runtime.ENABLED
        assert obs_runtime.enable(0.5) == 0.0
        assert obs_runtime.enable(0.0) == 0.5  # rate 0 means off
        assert not obs_runtime.ENABLED
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                obs_runtime.enable(bad)

    @pytest.mark.parametrize(
        "raw, rate",
        [
            ("1", 1.0),
            ("true", 1.0),
            (" ON ", 1.0),
            ("0.01", 0.01),
            ("1.0", 1.0),
            ("", 0.0),
            ("0", 0.0),
            ("off", 0.0),
            ("2", 0.0),
            ("-0.5", 0.0),
            ("junk", 0.0),
        ],
    )
    def test_repro_obs_value_is_the_rate(self, raw, rate):
        assert obs_runtime._parse_rate(raw) == rate


class TestFacadeProtocol:
    def test_begin_none_when_disarmed(self):
        previous = obs_runtime.disable()
        try:
            assert obs_trace.begin("inequality") is None
            with obs_trace.root("inequality") as trace:
                assert not trace and trace.trace_id is None
        finally:
            obs_runtime.enable(previous)

    def test_begin_none_when_nested(self, tracing):
        ctx = obs_trace.begin("batch")
        assert ctx is not None
        try:
            assert obs_trace.begin("inequality") is None
            with obs_trace.root("inequality") as inner:
                assert not inner
        finally:
            obs_trace.finish(ctx)

    def test_root_finishes_with_handed_outcome(self, tracing):
        with obs_trace.root("inequality", shards=2) as trace:
            assert trace and obs_trace.current() is trace.ctx
            trace.set(stats={"n_verified": 4}, results=1)
        assert obs_trace.current() is None
        (root,) = recent_traces()
        assert root.attrs == {"trace_id": trace.trace_id, "shards": 2, "n_verified": 4}

    def test_root_aborts_on_exception(self, tracing):
        with pytest.raises(ValueError, match="boom"):
            with obs_trace.root("topk"):
                raise ValueError("boom")
        assert obs_trace.current() is None
        assert recent_traces()[-1].attrs["error"] == "ValueError"

    def test_sampled_trace_opens_root_span(self, tracing):
        ctx = obs_trace.begin("inequality")
        assert ctx is not None and ctx.sampled
        assert obs_trace.current() is ctx
        with obs_spans.span("child"):
            pass
        obs_trace.finish(ctx, stats={"n_verified": 3})
        assert obs_trace.current() is None
        roots = recent_traces()
        assert [root.name for root in roots] == ["query.inequality"]
        assert roots[0].attrs["trace_id"] == ctx.trace_id
        assert roots[0].attrs["n_verified"] == 3
        assert [child.name for child in roots[0].children] == ["child"]

    def test_unsampled_trace_mutes_telemetry(self, tracing):
        obs_runtime.enable(UNSAMPLED_RATE)
        before = obs_metrics.registry().n_samples()
        ctx = obs_trace.begin("inequality")
        assert ctx is not None and not ctx.sampled
        assert not obs_runtime.active()  # per-query telemetry is muted
        with obs_spans.span("child"):
            pass
        obs_trace.finish(ctx)
        assert obs_runtime.active()
        assert recent_traces() == []
        # Only the exact traces_total counter moved.
        counter = obs_metrics.traces_total()
        assert counter.value(kind="inequality", sampled="0") >= 1.0
        assert obs_metrics.registry().n_samples() >= before

    def test_traces_total_counts_every_trace(self, tracing):
        counter = obs_metrics.traces_total()
        sampled_before = counter.value(kind="range", sampled="1")
        ctx = obs_trace.begin("range")
        obs_trace.finish(ctx)
        assert counter.value(kind="range", sampled="1") == sampled_before + 1

    def test_abort_closes_and_marks_error(self, tracing):
        ctx = obs_trace.begin("topk")
        obs_trace.abort(ctx, ValueError("boom"))
        assert obs_trace.current() is None
        root = recent_traces()[-1]
        assert root.attrs["error"] == "ValueError"

    def test_find_trace_by_prefix(self, tracing):
        ctx = obs_trace.begin("inequality")
        obs_trace.finish(ctx)
        assert obs_trace.find_trace(ctx.trace_id[:6]) is not None
        assert obs_trace.find_trace("not-a-trace") is None


@pytest.fixture
def engine():
    """A 2-shard engine.

    Any ambient fault plan (the chaos CI lane arms ``REPRO_FAULTS``
    process-wide) is disarmed meanwhile and restored afterwards, as
    ``tests/serve``'s ``pristine_faults`` does: these waves assert which
    shards ran, and whether the lane's global ``every=7`` counter lands
    on one of them depends on how many shard calls earlier tests made."""
    previous_plan = _flt.active_plan()
    _flt.disarm()
    rng = np.random.default_rng(0)
    points = rng.integers(1, 30, size=(200, 3)).astype(np.float64)
    model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
    try:
        with ShardedFunctionIndex(
            points, model, n_indices=2, rng=0, n_shards=2, failure_policy="degrade"
        ) as sharded:
            yield sharded
    finally:
        if previous_plan is not None:
            _flt.arm(previous_plan)


def _wave(engine, fn):
    """Run ``fn`` on both shards as one engine wave, under a deadline.

    Returns ``(slices, failed)``: a failing shard is recovered by an
    empty stand-in slice, and ``failed`` names the shards that needed it.
    """
    slices, degraded = engine._fan_out(
        "probe", lambda shard, _rows: fn(shard), recover=lambda store: [], timeout_s=30.0
    )
    return slices, () if degraded is None else degraded.recovered_shards


def _probe(seen):
    def fn(shard):
        seen.append(
            (
                threading.get_ident(),
                obs_trace.current(),
                obs_spans.current_span(),
                obs_runtime.active(),
            )
        )
        return []

    return fn


class TestContextPropagation:
    """Shard work runs on the querying thread, in the query's context."""

    def test_no_trace_is_noop(self, tracing, engine):
        seen = []
        slices, failed = _wave(engine, _probe(seen))
        assert not failed and slices == [[], []]
        assert all(ident == threading.get_ident() for ident, *_ in seen)
        assert all(trace is None and active for _, trace, _, active in seen)
        # Without a trace each shard span is its own root, as before.
        assert [root.name for root in recent_traces()] == ["shard.probe"] * 2

    def test_sampled_trace_stitches_shard_spans(self, tracing, engine):
        seen = []
        with obs_trace.root("inequality") as trace:
            _wave(engine, _probe(seen))
        assert all(ident == threading.get_ident() for ident, *_ in seen)
        assert all(current is trace.ctx for _, current, _, _ in seen)
        assert all(span.name == "shard.probe" for _, _, span, _ in seen)
        roots = recent_traces()
        assert len(roots) == 1, "shard spans must stitch, not orphan"
        assert [child.name for child in roots[0].children] == ["shard.probe"] * 2
        for child in roots[0].children:
            assert child.attrs["trace_id"] == trace.trace_id

    def test_unsampled_trace_mutes_shard_work(self, tracing, engine):
        obs_runtime.enable(UNSAMPLED_RATE)
        shard_queries = obs_metrics.shard_queries_total()
        before = shard_queries.value(kind="probe", shard="0")
        seen = []
        with obs_trace.root("inequality") as trace:
            assert not trace.ctx.sampled
            _wave(engine, _probe(seen))
        assert all(current is trace.ctx and not active for _, current, _, active in seen)
        assert recent_traces() == []
        assert shard_queries.value(kind="probe", shard="0") == before

    def test_failed_shard_leaks_nothing_to_the_next_task(self, tracing, engine):
        def failing(shard):
            with obs_spans.span("inner"):
                raise RuntimeError("shard exploded")

        with obs_trace.root("inequality") as sampled:
            assert sampled.ctx.sampled
            _, failures = _wave(engine, failing)
            assert set(failures) == {0, 1}
            assert obs_spans.current_span().name == "query.inequality"
        obs_runtime.enable(UNSAMPLED_RATE)
        with obs_trace.root("inequality") as unsampled:
            assert not unsampled.ctx.sampled
            _, failures = _wave(engine, failing)
        assert set(failures) == {0, 1}
        obs_runtime.enable(1.0)
        assert obs_trace.current() is None and obs_spans.current_span() is None
        clear_traces()
        seen = []
        _wave(engine, _probe(seen))
        assert all(trace is None and span.name == "shard.probe" for _, trace, span, _ in seen)
        assert [root.name for root in recent_traces()] == ["shard.probe"] * 2


class TestQueryLogIntegration:
    def test_sampled_trace_emits_record(self, tracing, tmp_path):
        log = tmp_path / "q.jsonl"
        previous = obs_events.configure(str(log))
        try:
            ctx = obs_trace.begin("inequality")
            obs_trace.finish(ctx, stats={"n_verified": 5}, results=2)
        finally:
            obs_events.configure(previous)
        (record,) = obs_events.tail(5, str(log))
        assert record["trace_id"] == ctx.trace_id
        assert record["op"] == "inequality"
        assert record["sampled"] is True
        assert record["cost"]["n_verified"] == 5
        assert record["results"] == 2
        assert record["degraded"] is None
        assert record["trace"]["name"] == "query.inequality"

    def test_unsampled_fast_trace_not_logged(self, tracing, tmp_path):
        log = tmp_path / "q.jsonl"
        obs_runtime.enable(UNSAMPLED_RATE)
        previous = obs_events.configure(str(log))
        try:
            ctx = obs_trace.begin("inequality")
            obs_trace.finish(ctx)
        finally:
            obs_events.configure(previous)
        assert obs_events.tail(5, str(log)) == []

    def test_slow_unsampled_trace_always_logged(self, tracing, tmp_path):
        log = tmp_path / "q.jsonl"
        obs_runtime.enable(UNSAMPLED_RATE)
        previous = obs_events.configure(str(log))
        threshold = obs_events.set_slow_ms(0.0)  # everything is "slow"
        try:
            ctx = obs_trace.begin("inequality")
            obs_trace.finish(ctx)
        finally:
            obs_events.set_slow_ms(threshold)
            obs_events.configure(previous)
        (record,) = obs_events.tail(5, str(log))
        assert record["slow"] is True
        assert record["sampled"] is False
        assert "trace" not in record  # unsampled records carry no span tree

    def test_errored_trace_always_logged(self, tracing, tmp_path):
        log = tmp_path / "q.jsonl"
        obs_runtime.enable(UNSAMPLED_RATE)
        previous = obs_events.configure(str(log))
        try:
            ctx = obs_trace.begin("topk")
            obs_trace.abort(ctx, RuntimeError("shard exploded"))
        finally:
            obs_events.configure(previous)
        (record,) = obs_events.tail(5, str(log))
        assert record["error"].startswith("RuntimeError")
