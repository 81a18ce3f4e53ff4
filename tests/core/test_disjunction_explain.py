"""Tests for disjunctive queries and the EXPLAIN planner introspection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DisjunctiveQuery,
    FunctionIndex,
    QueryModel,
    ScalarProductQuery,
)
from repro.exceptions import InvalidQueryError


@pytest.fixture
def setup(rng):
    points = rng.uniform(1, 100, size=(3000, 4))
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    index = FunctionIndex(points, model, n_indices=30, rng=0)
    return points, model, index


class TestDisjunctiveQuery:
    def test_empty_rejected(self):
        with pytest.raises(InvalidQueryError):
            DisjunctiveQuery([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError):
            DisjunctiveQuery(
                [ScalarProductQuery(np.ones(2), 1.0), ScalarProductQuery(np.ones(3), 1.0)]
            )

    def test_evaluate_is_logical_or(self, rng):
        points = rng.uniform(0, 10, size=(100, 2))
        c1 = ScalarProductQuery(np.array([1.0, 0.001]), 3.0)
        c2 = ScalarProductQuery(np.array([0.001, 1.0]), 3.0)
        disj = DisjunctiveQuery([c1, c2])
        expected = c1.evaluate(points) | c2.evaluate(points)
        assert np.array_equal(disj.evaluate(points), expected)


class TestAnswerDisjunction:
    def test_two_constraints_exact(self, setup, rng):
        points, model, index = setup
        for _ in range(5):
            c1 = ScalarProductQuery(model.sample_normal(rng), float(rng.uniform(300, 600)))
            c2 = ScalarProductQuery(model.sample_normal(rng), float(rng.uniform(700, 1000)), ">=")
            answer = index.query_disjunction([c1, c2])
            truth = np.nonzero(c1.evaluate(points) | c2.evaluate(points))[0]
            assert np.array_equal(answer.ids, truth)

    def test_tautology_returns_everything(self, setup, rng):
        points, model, index = setup
        normal = model.sample_normal(rng)
        answer = index.query_disjunction([(normal, 500.0), (normal, 500.0, ">")])
        assert len(answer) == len(points)

    def test_single_constraint_matches_plain_query(self, setup, rng):
        points, model, index = setup
        normal = model.sample_normal(rng)
        disj = index.query_disjunction([(normal, 500.0)])
        plain = index.query(normal, 500.0)
        assert np.array_equal(disj.ids, plain.ids)

    def test_conjunction_subset_of_disjunction(self, setup, rng):
        points, model, index = setup
        constraints = [
            (model.sample_normal(rng), 600.0),
            (model.sample_normal(rng), 500.0),
        ]
        conj = set(index.query_conjunction(constraints).ids.tolist())
        disj = set(index.query_disjunction(constraints).ids.tolist())
        assert conj <= disj


@given(seed=st.integers(0, 300), n_constraints=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_property_disjunction_exact(seed, n_constraints):
    rng = np.random.default_rng(seed)
    points = rng.uniform(1, 50, size=(300, 3))
    model = QueryModel.uniform(dim=3, low=1.0, high=4.0)
    index = FunctionIndex(points, model, n_indices=8, rng=seed)
    ops = ["<=", "<", ">=", ">"]
    constraints = [
        ScalarProductQuery(
            model.sample_normal(rng),
            float(rng.uniform(50, 400)),
            ops[int(rng.integers(0, 4))],
        )
        for _ in range(n_constraints)
    ]
    answer = index.query_disjunction(constraints)
    mask = np.zeros(len(points), dtype=bool)
    for constraint in constraints:
        mask |= constraint.evaluate(points)
    assert np.array_equal(answer.ids, np.nonzero(mask)[0])


class TestExplain:
    def test_intervals_route_for_matched_query(self, setup):
        points, model, index = setup
        # Query with an existing index normal: near-empty intermediate.
        normal = index.collection[0].normal
        report = index.explain_report(normal, 500.0)
        assert report.route == "intervals"
        assert report.chosen_index == 0
        assert report.ii_size <= 1
        assert report.si_size + report.ii_size + report.li_size == report.n_total
        assert report.n_verified == report.ii_size

    def test_scan_route_for_hostile_query(self, rng):
        points = rng.uniform(1, 100, size=(2000, 2))
        model = QueryModel.uniform(dim=2, low=1.0, high=50.0)
        index = FunctionIndex(points, model, normals=np.array([[1.0, 50.0]]), rng=0)
        report = index.explain_report(np.array([50.0, 1.0]), 2000.0)
        assert report.route == "scan"
        assert report.n_verified == report.n_total == len(points)

    def test_octant_fallback_route(self, setup):
        _, _, index = setup
        report = index.explain_report(np.array([-1.0, -1.0, -1.0, -1.0]), 100.0)
        assert report.route == "octant-fallback"
        assert report.notes  # the octant error names the reason

    def test_plan_matches_execution(self, setup, rng):
        points, model, index = setup
        normal = model.sample_normal(rng)
        report = index.explain_report(normal, 500.0)
        answer = index.query(normal, 500.0)
        assert report.strategy == index.collection.strategy.value
        assert report.n_total == answer.stats.n_total
        assert report.ii_size == answer.stats.ii_size
        assert report.n_verified == answer.stats.n_verified
