"""Integration tests: instrumentation of the live query pipeline.

The key property (ISSUE acceptance): for a deterministic selection
strategy, ``explain()`` reports exactly the SI/II/LI sizes, verification
count, and result count that ``query()`` measures for the same query —
the EXPLAIN layer must never drift from the executor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FunctionIndex, QueryModel
from repro.obs import metrics as obs_metrics
from repro.obs import recent_traces, to_prometheus
from repro.obs import runtime as obs_runtime


@st.composite
def explain_cases(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=5, max_value=120))
    n_indices = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    strategy = draw(st.sampled_from(["min_stretch", "min_angle"]))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    return dim, n, n_indices, seed, strategy, fraction


class TestExplainMatchesQuery:
    @settings(max_examples=40, deadline=None)
    @given(case=explain_cases())
    def test_sizes_identical(self, case):
        dim, n, n_indices, seed, strategy, fraction = case
        rng = np.random.default_rng(seed)
        points = rng.uniform(1.0, 100.0, size=(n, dim))
        model = QueryModel.uniform(dim=dim, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(
            points, model, n_indices=n_indices, strategy=strategy, rng=seed
        )
        normal = model.sample_normal(seed)
        # Offset sweeps from "nothing satisfies" to "everything satisfies".
        offset = fraction * float(normal @ points.max(axis=0)) * dim
        answer = index.query(normal, offset)
        report = index.explain_report(normal, offset)
        assert report.si_size == answer.stats.si_size
        assert report.ii_size == answer.stats.ii_size
        assert report.li_size == answer.stats.li_size
        assert report.n_verified == answer.stats.n_verified
        assert report.n_results == answer.stats.n_results == len(answer)
        assert report.si_size + report.ii_size + report.li_size == len(index)


@pytest.fixture
def small_index(uniform_points, uniform_model):
    return FunctionIndex(uniform_points, uniform_model, n_indices=5, rng=3)


class TestMetricsRecorded:
    def test_query_increments_counters(self, small_index, uniform_model, obs_enabled):
        counter = obs_metrics.queries_total()
        latency = obs_metrics.query_latency()
        normal = uniform_model.sample_normal(0)
        offset = 30.0 * float(normal.sum())
        answer = small_index.query(normal, offset)
        strategy = small_index.collection.strategy.value

        before = counter.value(
            kind="inequality", route="intervals", strategy=strategy
        ) + counter.value(kind="inequality", route="scan", strategy=strategy)
        lat_before = latency.count(kind="inequality", route="intervals") + latency.count(
            kind="inequality", route="scan"
        )
        small_index.query(normal, offset)
        after = counter.value(
            kind="inequality", route="intervals", strategy=strategy
        ) + counter.value(kind="inequality", route="scan", strategy=strategy)
        lat_after = latency.count(kind="inequality", route="intervals") + latency.count(
            kind="inequality", route="scan"
        )
        assert after == before + 1
        assert lat_after == lat_before + 1
        assert answer.stats is not None

    def test_batch_members_count_under_their_own_kind(
        self, small_index, uniform_model, obs_enabled
    ):
        """A 2-query batch, one member planned and one octant fallback,
        adds 2 to ``repro_queries_total{kind="inequality"}``."""
        counter = obs_metrics.queries_total()

        def inequalities():
            return sum(
                value for key, value in counter.series().items() if key[0] == "inequality"
            )

        normal = uniform_model.sample_normal(0)
        normals = np.vstack([normal, -normal])
        before = inequalities()
        planned, fallback = small_index.query_batch(normals, [500.0, 500.0])
        assert not planned.used_fallback and fallback.used_fallback
        assert inequalities() == before + 2

    def test_interval_partition_counters(self, small_index, uniform_model, obs_enabled):
        intervals = obs_metrics.interval_points()
        verified = obs_metrics.verified_points()
        normal = uniform_model.sample_normal(1)
        offset = 30.0 * float(normal.sum())
        ver_before = verified.value(kind="inequality")
        si_before = sum(
            value
            for key, value in intervals.series().items()
            if key[0] == "si"
        )
        answer = small_index.query(normal, offset)
        ver_after = verified.value(kind="inequality")
        si_after = sum(
            value
            for key, value in intervals.series().items()
            if key[0] == "si"
        )
        assert ver_after - ver_before == answer.stats.n_verified
        assert si_after - si_before == answer.stats.si_size

    def test_selection_counter(self, small_index, uniform_model, obs_enabled):
        selections = obs_metrics.selection_total()
        before = sum(selections.series().values())
        normal = uniform_model.sample_normal(2)
        small_index.query(normal, 100.0)
        assert sum(selections.series().values()) == before + 1

    def test_query_span_tree(self, small_index, uniform_model, obs_enabled):
        normal = uniform_model.sample_normal(4)
        small_index.query(normal, 30.0 * float(normal.sum()))
        trace = recent_traces()[-1]
        # The facade now opens a trace root; the collection span nests under
        # it, after the wave's index choice (as on a sharded engine).
        assert trace.name == "query.inequality"
        assert "trace_id" in trace.attrs
        names = [child.name for child in trace.children]
        assert names.index("select") < names.index("collection.query")
        (collection,) = [c for c in trace.children if c.name == "collection.query"]
        child_names = {child.name for child in collection.children}
        assert "binary_search" in child_names
        assert child_names & {"verify_II", "materialize", "scan"}

    def test_batch_stages_use_single_query_names(
        self, small_index, uniform_points, uniform_model, obs_enabled
    ):
        """A batched trace names its stages as the single-query path does."""
        normals = np.stack([uniform_model.sample_normal(s) for s in range(8)])
        top = uniform_points.max(axis=0)
        fractions = np.linspace(0.05, 0.95, len(normals))
        offsets = fractions * (normals @ top)

        def stages(roots):
            return {
                span.name
                for root in roots
                for span in root.walk()
                if not span.name.startswith(("query.", "collection."))
            }

        for normal, offset in zip(normals, offsets):
            small_index.query(normal, offset)
        single = stages(recent_traces(len(normals)))
        small_index.query_batch(normals, offsets)
        batch = stages(recent_traces(1))
        assert {"verify_II", "scan"} <= batch, "batch must take both routes"
        assert batch <= single

    def test_topk_span_tree(self, small_index, uniform_model, obs_enabled):
        normal = uniform_model.sample_normal(5)
        small_index.topk(normal, 80.0 * float(normal.sum()), k=10)
        trace = recent_traces()[-1]
        assert trace.name == "query.topk"
        assert "trace_id" in trace.attrs
        (collection,) = [c for c in trace.children if c.name == "collection.topk"]
        child_names = {child.name for child in collection.children}
        assert "binary_search" in child_names

    def test_prometheus_export_has_acceptance_series(
        self, small_index, uniform_model, obs_enabled
    ):
        normal = uniform_model.sample_normal(6)
        small_index.query(normal, 30.0 * float(normal.sum()))
        text = to_prometheus()
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert "repro_query_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        for interval in ("si", "ii", "li"):
            assert f'repro_interval_points_total{{interval="{interval}"' in text

    def test_disabled_path_records_nothing(
        self, small_index, uniform_model, obs_disabled
    ):
        registry = obs_metrics.registry()
        before = registry.n_samples()
        traces_before = len(recent_traces())
        normal = uniform_model.sample_normal(7)
        answer = small_index.query(normal, 30.0 * float(normal.sum()))
        small_index.topk(normal, 80.0 * float(normal.sum()), k=5)
        assert registry.n_samples() == before
        assert len(recent_traces()) == traces_before
        assert answer.stats is not None  # stats stay on, only telemetry is off
