"""Property tests: cross-thread trace stitching of the sharded engine.

ISSUE 7 acceptance: a sharded facade query must produce exactly ONE
stitched trace tree — shard spans emitted on executor threads adopt the
facade's root instead of becoming orphan per-thread roots — and the
tree must reconcile: every ``shard.*`` span carries the parent trace id,
and the per-shard cost counters annotated on the shard spans (including
``shard.recover`` scans) sum to the merged answer's stats.  The
reconciliation must hold under injected shard *error* faults too, where
retries and recovery scans contribute extra child spans.

The property tests inject error faults only.  A stall fault abandons a
worker at the query deadline; :class:`TestLateShardSpans` pins that the
abandoned worker's span never reaches the already-published tree.
"""

from __future__ import annotations

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryModel, ShardedFunctionIndex
from repro.obs import clear_traces, recent_traces
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.reliability import faults as _flt


@st.composite
def stitching_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=8, max_value=120))
    n_shards = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    offset_scale = draw(st.floats(min_value=0.1, max_value=1.2))
    fault_shard = draw(st.integers(min_value=0, max_value=4))
    fault_times = draw(st.sampled_from([None, 1, 3]))
    return dim, n, n_shards, seed, offset_scale, fault_shard, fault_times


def _build(case):
    dim, n, n_shards, seed, offset_scale, fault_shard, fault_times = case
    rng = np.random.default_rng(seed)
    points = rng.integers(1, 30, size=(n, dim)).astype(np.float64)
    model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
    engine = ShardedFunctionIndex(
        points,
        model,
        n_indices=2,
        rng=seed,
        n_shards=n_shards,
        failure_policy="retry_then_degrade",
    )
    normal = np.asarray(rng.integers(1, 6, size=dim), dtype=np.float64)
    offset = float(np.round(offset_scale * normal @ points.max(axis=0)))
    spec = None
    if fault_times is not None:
        spec = f"shard.query:error:shard={fault_shard % n_shards}"
        if fault_times:
            spec += f":times={fault_times}"
    return engine, normal, offset, spec


def _shard_spans(root, kind):
    """All costed / errored shard-level spans of a stitched tree."""
    names = {f"shard.{kind}", "shard.recover"}
    return [span for span in root.walk() if span.name in names]


def _assert_stitched(root, kind, stats, n_results):
    """One tree, ids propagated, counters reconciled against ``stats``."""
    trace_id = root.attrs["trace_id"]
    spans = _shard_spans(root, kind)
    assert spans, "stitched tree has no shard spans"
    costed = [span for span in spans if "verified" in span.attrs]
    for span in spans:
        if span.name != "shard.recover":
            assert span.attrs["trace_id"] == trace_id
        # Errored attempts carry the failure kind instead of counters.
        assert "verified" in span.attrs or "error" in span.attrs
    assert sum(span.attrs["verified"] for span in costed) == stats.n_verified
    assert sum(span.attrs["ii"] for span in costed) == stats.ii_size
    assert sum(span.attrs["results"] for span in costed) == n_results


class TestStitchedTraces:
    """Each facade kind yields one reconciled tree per query."""

    def setup_method(self):
        self._previous = obs_runtime.enable()

    def teardown_method(self):
        clear_traces()
        obs_runtime.enable(self._previous)

    @settings(max_examples=40, deadline=None)
    @given(case=stitching_cases())
    def test_query_single_root_and_cost_reconciliation(self, case):
        engine, normal, offset, spec = _build(case)
        with engine:
            clear_traces()
            if spec is None:
                answer = engine.query(normal, offset)
            else:
                with _flt.injected(spec):
                    answer = engine.query(normal, offset)
            roots = recent_traces()
            assert len(roots) == 1, "shard spans must stitch, not orphan"
            root = roots[0]
            assert root.name == "query.inequality"
            if answer.degraded is not None and answer.degraded.failed_shards:
                # Unrecovered shards are absent from both the merged stats
                # and the costed spans — reconciliation still holds below.
                assert answer.degraded.completeness < 1.0
            _assert_stitched(root, "inequality", answer.stats, len(answer))

    @settings(max_examples=25, deadline=None)
    @given(case=stitching_cases())
    def test_batch_is_one_trace(self, case):
        engine, normal, offset, spec = _build(case)
        rng = np.random.default_rng(7)
        normals = np.stack([normal, np.asarray(rng.integers(1, 6, size=normal.size), dtype=np.float64)])
        offsets = np.array([offset, offset])
        with engine:
            clear_traces()
            if spec is None:
                answers = engine.query_batch(normals, offsets)
            else:
                with _flt.injected(spec):
                    answers = engine.query_batch(normals, offsets)
            roots = recent_traces()
            assert len(roots) == 1, "a batch is one trace, not one per query"
            root = roots[0]
            assert root.name == "query.batch"
            trace_id = root.attrs["trace_id"]
            spans = _shard_spans(root, "batch")
            assert spans
            for span in spans:
                if span.name != "shard.recover":
                    assert span.attrs["trace_id"] == trace_id
            costed = [span for span in spans if "verified" in span.attrs]
            parts = [answer.stats for answer in answers if answer.stats is not None]
            assert sum(span.attrs["verified"] for span in costed) == sum(
                part.n_verified for part in parts
            )
            assert sum(span.attrs["results"] for span in costed) == sum(
                len(answer) for answer in answers
            )

    @settings(max_examples=25, deadline=None)
    @given(case=stitching_cases())
    def test_topk_reconciles_lbs_counters(self, case):
        engine, normal, offset, spec = _build(case)
        with engine:
            clear_traces()
            if spec is None:
                result = engine.topk(normal, offset, k=5)
            else:
                with _flt.injected(spec):
                    result = engine.topk(normal, offset, k=5)
            roots = recent_traces()
            assert len(roots) == 1
            root = roots[0]
            assert root.name == "query.topk"
            spans = _shard_spans(root, "topk")
            costed = [span for span in spans if "lbs_checked" in span.attrs]
            assert costed
            for span in spans:
                if span.name != "shard.recover":
                    assert span.attrs["trace_id"] == root.attrs["trace_id"]
            assert sum(span.attrs["lbs_checked"] for span in costed) == result.n_checked


class TestLateShardSpans:
    """A worker abandoned at the deadline must not mutate a published trace."""

    def test_timed_out_shard_span_is_not_attached(self, obs_enabled):
        rng = np.random.default_rng(3)
        points = rng.integers(1, 30, size=(200, 3)).astype(np.float64)
        model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
        normals = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.0]])
        offsets = np.array([60.0, 40.0])
        histogram = obs_metrics.span_seconds()
        engine = ShardedFunctionIndex(
            points,
            model,
            n_indices=2,
            rng=0,
            n_shards=2,
            failure_policy="degrade",
            query_timeout_s=0.05,
        )
        with engine:
            before = histogram.count(name="shard.batch")
            with _flt.injected("shard.query:stall:ms=300:shard=0"):
                answers = engine.query_batch(normals, offsets)
                assert answers[0].degraded is not None
                (root,) = recent_traces()
                published = [child.name for child in root.children]
                assert published == ["shard.batch", "shard.recover", "shard.degrade"]
                # The stalled worker still finishes its span afterwards:
                # it feeds the histogram but stays out of the tree.
                waited = time.monotonic() + 10.0
                while histogram.count(name="shard.batch") < before + 2:
                    assert time.monotonic() < waited, "stalled worker never finished"
                    time.sleep(0.01)
            assert [child.name for child in root.children] == published
            assert recent_traces() == [root]
