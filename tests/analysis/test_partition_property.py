"""Property test: the SI/LI/II interval partition is semantically exact.

For integer-valued and for real-valued data and queries, with every
``<a, phi(x)>`` judged by ``fractions.Fraction`` arithmetic on the stored
float64 values:

* every point the index places in SI certainly satisfies ``<a, x> < b``,
* every point in LI certainly satisfies ``<a, x> > b``,
* every boundary point (``<a, x> == b`` exactly) lands in the
  intermediate interval — this is what makes the strict operators
  (``<``, ``>``) correct, because only II is re-verified, and
* the full query answer matches rational arithmetic and the sequential
  scan for all four comparison operators.

The offset is the key of one data row (nudged by a few ulps in the
real-valued cases), so every case has a point on or next to the
hyperplane.  Integer cases keep every product exact, so the anchor sits
exactly on it and the strict/non-strict answers genuinely differ.  Some
cases use an index normal parallel to the query normal (Corollary 1):
SI and LI then share one threshold, the anchor's key sits on it, and only
the derived guard band keeps the anchor out of SI and LI.  Run with
``REPRO_SANITIZE=1`` the same properties hold with every entry point
contract-checked.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Comparison, ScalarProductQuery
from repro.scan.baseline import SequentialScan

from ..conftest import fraction_values, one_index

pytestmark = pytest.mark.usefixtures("intervals_route")

# Small magnitudes: products and sums stay far below 2**53, so float64
# arithmetic over these integers is exact and equality is deterministic.
_coord = st.integers(min_value=-50, max_value=50)
_weight = st.integers(min_value=1, max_value=9)
_sign = st.sampled_from([-1, 1])
# Real-valued mantissas; each column is scaled by 10**[-3, 3].
_real = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_real_weight = st.floats(min_value=0.1, max_value=10.0)


def _normals(draw, dim, weight):
    """Index and query normals sharing a sign pattern (octant compatibility).

    Magnitudes differ so the interval split is non-trivial, except when the
    index normal is drawn parallel to the query normal (a power-of-two
    multiple of it, so parallel exactly).
    """
    signs = np.array(draw(st.lists(_sign, min_size=dim, max_size=dim)), dtype=np.float64)
    query_normal = signs * np.array(
        draw(st.lists(weight, min_size=dim, max_size=dim)), dtype=np.float64
    )
    if draw(st.booleans()):
        index_normal = query_normal * 2.0 ** draw(st.integers(-2, 2))
    else:
        index_normal = signs * np.array(
            draw(st.lists(weight, min_size=dim, max_size=dim)), dtype=np.float64
        )
    return index_normal, query_normal


@st.composite
def partition_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(
        st.lists(
            st.lists(_coord, min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    features = np.array(rows, dtype=np.float64)
    index_normal, query_normal = _normals(draw, dim, _weight)
    # Offset = exact key of one row under the query normal: at least one
    # point sits exactly on the hyperplane.
    anchor = draw(st.integers(min_value=0, max_value=n - 1))
    offset = float(query_normal @ features[anchor])
    op = draw(st.sampled_from(list(Comparison)))
    return features, index_normal, query_normal, offset, op, anchor


@st.composite
def real_partition_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(
        st.lists(st.lists(_real, min_size=dim, max_size=dim), min_size=n, max_size=n)
    )
    scales = 10.0 ** np.array(
        draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), dtype=np.float64
    )
    features = np.array(rows, dtype=np.float64) * scales
    index_normal, query_normal = _normals(draw, dim, _real_weight)
    anchor = draw(st.integers(min_value=0, max_value=n - 1))
    offset = float(query_normal @ features[anchor])
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        offset = float(np.nextafter(offset, np.inf if ulps > 0 else -np.inf))
    op = draw(st.sampled_from(list(Comparison)))
    return features, index_normal, query_normal, offset, op, anchor


def _check_partition(features, index_normal, query_normal, offset, op):
    """Assert the partition and the answers; returns the exact-boundary ids."""
    collection = one_index(features, index_normal)
    index = collection[0]
    query = ScalarProductQuery(query_normal, offset, op)
    residuals = [value - Fraction(offset) for value in fraction_values(features, query_normal)]
    below = {i for i, r in enumerate(residuals) if r < 0}
    above = {i for i, r in enumerate(residuals) if r > 0}
    boundary = np.array([i for i, r in enumerate(residuals) if r == 0], dtype=np.int64)

    # 1. End-to-end answers agree with rational arithmetic and the scan.
    satisfied = below if op.is_upper_bound else above
    if not op.is_strict:
        satisfied = satisfied | set(boundary.tolist())
    got = collection.query(query)
    np.testing.assert_array_equal(got.ids, np.array(sorted(satisfied), dtype=np.int64))
    np.testing.assert_array_equal(got.ids, SequentialScan(features).query(query))

    # 2. The certain intervals really are certain (strictly), so they are
    # valid for strict and non-strict operators alike.
    wq = collection.working_query(query)
    plan = collection.plan(wq)
    r_lo, r_hi, n = plan.r_lo, plan.r_hi, plan.n
    si_ids = set(index._keys.ids_in_rank_range(0, r_lo).tolist())
    li_ids = set(index._keys.ids_in_rank_range(r_hi, n).tolist())
    ii_ids = set(index._keys.ids_in_rank_range(r_lo, r_hi).tolist())
    # A canonicalized query (negated normal) swaps which side SI holds.
    lower, upper = (below, above) if wq.query is query else (above, below)
    assert si_ids <= lower, "SI must strictly satisfy < b"
    assert li_ids <= upper, "LI must strictly satisfy > b"
    assert len(si_ids) + len(ii_ids) + len(li_ids) == n == len(features)

    # 3. Every exact-boundary point is in the intermediate interval: the
    # measure-zero slice the strict operators depend on is re-verified,
    # never bulk-classified.
    assert set(boundary.tolist()) <= ii_ids

    # 4. Strict vs non-strict answers differ by exactly the boundary set.
    strict = collection.query(
        query.with_op(Comparison.LT if op.is_upper_bound else Comparison.GT)
    )
    loose = collection.query(
        query.with_op(Comparison.LE if op.is_upper_bound else Comparison.GE)
    )
    np.testing.assert_array_equal(np.setdiff1d(loose.ids, strict.ids), boundary)
    return boundary


@settings(max_examples=120, deadline=None)
@given(case=partition_cases())
def test_partition_matches_brute_force(case):
    features, index_normal, query_normal, offset, op, anchor = case
    boundary = _check_partition(features, index_normal, query_normal, offset, op)
    assert anchor in boundary


@settings(max_examples=150, deadline=None)
@given(case=real_partition_cases())
def test_real_valued_partition_matches_rational_arithmetic(case):
    features, index_normal, query_normal, offset, op, _ = case
    _check_partition(features, index_normal, query_normal, offset, op)


@settings(max_examples=60, deadline=None)
@given(case=partition_cases())
def test_stats_are_consistent(case):
    features, index_normal, query_normal, offset, op, _ = case
    result = one_index(features, index_normal).query(ScalarProductQuery(query_normal, offset, op))
    stats = result.stats
    assert stats.si_size + stats.ii_size + stats.li_size == stats.n_total
    assert stats.n_verified == stats.ii_size
    assert stats.n_results == len(result.ids)
    assert 0.0 <= stats.pruned_fraction <= 1.0


def test_subnormal_offset_stays_inside_the_guard_band():
    """``b'' = <a'', delta>`` underflows to a subnormal, and its rounding
    reaches the thresholds multiplied by ``c''/a''`` (about 18 here): the
    point exactly on the hyperplane must still land in II, not in LI."""
    features = np.array([[2.2250738585072014e-313], [0.0]])
    boundary = _check_partition(
        features, np.array([-2.0]), np.array([-0.109375]), 0.0, Comparison.LE
    )
    assert boundary.tolist() == [1]
