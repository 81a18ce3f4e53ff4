"""Tests for ScalarProductQuery / Comparison / TopKQuery."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Comparison, FunctionIndex, QueryModel, ScalarProductQuery, TopKQuery
from repro.exceptions import InvalidQueryError


class TestComparison:
    def test_parse_strings(self):
        assert Comparison.parse("<=") is Comparison.LE
        assert Comparison.parse(">") is Comparison.GT
        assert Comparison.parse(Comparison.GE) is Comparison.GE

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidQueryError):
            Comparison.parse("==")

    def test_upper_bound_and_strict_flags(self):
        assert Comparison.LE.is_upper_bound and not Comparison.LE.is_strict
        assert Comparison.LT.is_upper_bound and Comparison.LT.is_strict
        assert not Comparison.GE.is_upper_bound and not Comparison.GE.is_strict
        assert not Comparison.GT.is_upper_bound and Comparison.GT.is_strict

    def test_flip_is_involution(self):
        for op in Comparison:
            assert op.flipped().flipped() is op

    @pytest.mark.parametrize(
        "op,expected",
        [
            (Comparison.LE, [True, True, False]),
            (Comparison.LT, [True, False, False]),
            (Comparison.GE, [False, True, True]),
            (Comparison.GT, [False, False, True]),
        ],
    )
    def test_evaluate(self, op, expected):
        lhs = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(op.evaluate(lhs, 2.0), expected)


class TestScalarProductQuery:
    def test_basic_construction(self):
        query = ScalarProductQuery([1.0, 2.0], 5.0)
        assert query.dim == 2
        assert query.op is Comparison.LE
        assert query.hyperplane.offset == 5.0

    def test_op_string_accepted(self):
        query = ScalarProductQuery([1.0], 1.0, ">")
        assert query.op is Comparison.GT

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidQueryError):
            ScalarProductQuery([0.0, 0.0], 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidQueryError):
            ScalarProductQuery([np.inf, 1.0], 1.0)
        with pytest.raises(InvalidQueryError):
            ScalarProductQuery([1.0, 1.0], np.nan)

    def test_normal_read_only(self):
        query = ScalarProductQuery([1.0, 2.0], 5.0)
        with pytest.raises(ValueError):
            query.normal[0] = 3.0

    def test_callers_normal_is_copied_not_frozen(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        points = np.random.default_rng(0).uniform(1.0, 40.0, size=(200, 4))
        index = FunctionIndex(
            points, QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4), n_indices=3, rng=0
        )
        index.query(a, 300.0)
        index.topk(a, 300.0, 5)
        query = ScalarProductQuery(a, 300.0)
        assert a.flags.writeable
        a[0] = 9.0
        assert query.normal[0] == 1.0

    def test_canonical_noop_for_nonnegative_offset(self):
        query = ScalarProductQuery([1.0, -1.0], 0.0)
        assert query.canonical() is query

    def test_canonical_negates_for_negative_offset(self):
        query = ScalarProductQuery([1.0, -2.0], -3.0, "<=")
        canon = query.canonical()
        assert np.array_equal(canon.normal, [-1.0, 2.0])
        assert canon.offset == 3.0
        assert canon.op is Comparison.GE

    def test_canonical_preserves_semantics(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        for op in Comparison:
            query = ScalarProductQuery([1.0, -2.0, 0.5], -1.5, op)
            assert np.array_equal(query.evaluate(pts), query.canonical().evaluate(pts))

    def test_evaluate_matches_manual(self):
        query = ScalarProductQuery([2.0, 1.0], 4.0, "<")
        pts = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(query.evaluate(pts), [True, False, False])

    def test_distance(self):
        query = ScalarProductQuery([3.0, 4.0], 5.0)
        assert query.distance([[0.0, 0.0]])[0] == pytest.approx(1.0)

    def test_with_op(self):
        query = ScalarProductQuery([1.0], 1.0)
        assert query.with_op(">=").op is Comparison.GE


class TestTopKQuery:
    def test_valid(self):
        tkq = TopKQuery(ScalarProductQuery([1.0, 1.0], 1.0), 5)
        assert tkq.k == 5 and tkq.dim == 2

    def test_invalid_k(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery(ScalarProductQuery([1.0], 1.0), 0)

    def test_invalid_query_type(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery("not a query", 3)
