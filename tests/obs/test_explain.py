"""EXPLAIN layer tests: report structures, renderer, and core methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FunctionIndex, ScalarProductQuery
from repro.obs.explain import ExplainReport, IndexCandidate, render_report

from ..conftest import one_index


class TestReportStructures:
    def test_to_dict_drops_none(self):
        report = ExplainReport(kind="inequality", route="scan", n_total=10)
        payload = report.to_dict()
        assert payload["kind"] == "inequality"
        assert "si_size" not in payload and "strategy" not in payload

    def test_to_dict_full(self):
        report = ExplainReport(
            kind="inequality",
            route="intervals",
            n_total=100,
            strategy="min_stretch",
            chosen_index=2,
            index_normal=(1.0, 2.0),
            candidates=(IndexCandidate(0, 1.5, 0.9, 30, chosen=True),),
            rank_lo=10,
            rank_hi=40,
            si_size=10,
            ii_size=30,
            li_size=60,
            n_verified=30,
            n_results=12,
            estimated_pruned=0.7,
            actual_pruned=0.7,
            notes=("hello",),
            extra={"k": 1},
        )
        payload = report.to_dict()
        assert payload["candidates"][0]["chosen"] is True
        assert payload["index_normal"] == [1.0, 2.0]
        assert payload["notes"] == ["hello"]
        assert payload["extra"] == {"k": 1}

    def test_render_contains_sections(self):
        report = ExplainReport(
            kind="inequality",
            route="intervals",
            n_total=100,
            strategy="min_stretch",
            chosen_index=1,
            candidates=(
                IndexCandidate(0, 2.0, 0.8, 50),
                IndexCandidate(1, 1.0, 0.95, 20, chosen=True),
            ),
            si_size=30,
            ii_size=20,
            li_size=50,
            n_verified=20,
            n_results=7,
            estimated_pruned=0.8,
            actual_pruned=0.8,
        )
        text = render_report(report)
        assert "EXPLAIN" in text
        assert "strategy=min_stretch" in text
        assert "candidates:" in text
        assert "|SI|=30" in text and "|II|=20" in text
        assert "estimated= 80.00%" in text
        assert text == report.render()


@pytest.fixture
def built_index(uniform_points, uniform_model):
    return FunctionIndex(uniform_points, uniform_model, n_indices=6, rng=7)


class TestPlanarExplain:
    def test_matches_query_stats(self, uniform_points, intervals_route):
        collection = one_index(uniform_points, np.array([1.0, 1.0, 1.0, 1.0]))
        query = ScalarProductQuery(
            np.array([2.0, 1.0, 1.0, 3.0]), float(uniform_points.sum(axis=1).mean())
        )
        result = collection.query(query)
        report = collection.explain(query)
        assert report.route == "intervals"
        assert report.si_size == result.stats.si_size
        assert report.ii_size == result.stats.ii_size
        assert report.li_size == result.stats.li_size
        assert report.n_verified == result.stats.n_verified
        assert report.n_results == len(result.ids)


class TestCollectionExplain:
    def test_candidates_cover_all_indices(self, built_index, uniform_model):
        normal = uniform_model.sample_normal(3)
        offset = 40.0 * float(normal.sum())
        report = built_index.collection.explain(ScalarProductQuery(normal, offset))
        assert len(report.candidates) == built_index.n_indices
        assert sum(candidate.chosen for candidate in report.candidates) == 1
        chosen = next(c for c in report.candidates if c.chosen)
        assert chosen.position == report.chosen_index
        assert report.route in ("intervals", "scan")
        assert report.si_size + report.ii_size + report.li_size == report.n_total

    def test_matches_query(self, built_index, uniform_model):
        for seed in range(5):
            normal = uniform_model.sample_normal(seed)
            offset = 30.0 * float(normal.sum())
            answer = built_index.query(normal, offset)
            report = built_index.explain_report(normal, offset)
            assert report.n_results == len(answer)
            assert report.si_size == answer.stats.si_size
            assert report.ii_size == answer.stats.ii_size
            assert report.li_size == answer.stats.li_size
            assert report.n_verified == answer.stats.n_verified


class TestOctantFallbackExplain:
    def test_fallback_report(self, built_index):
        normal = np.array([-1.0, 2.0, 1.0, 1.0])  # sign outside the octant
        report = built_index.explain_report(normal, 10.0)
        assert report.route == "octant-fallback"
        assert report.n_verified == report.n_total == len(built_index)
        assert report.actual_pruned == 0.0
        assert report.notes  # carries the octant error message
        answer = built_index.query(normal, 10.0)
        assert answer.used_fallback
        assert report.n_results == len(answer)

