"""The exact evaluator against rational arithmetic.

Rows are planted on the query hyperplane and one to three ulps off it, with
columns spanning six decades, so a BLAS product alone lands on the wrong
side of ``b`` for some of them.  Every decision and every residual must
equal what ``fractions.Fraction`` arithmetic on the stored float64 values
gives, whatever the dtype, memory order or backing of the rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Comparison, ScalarProductQuery
from repro.core import exact

from ..conftest import fraction_values

_HOLDS = {
    Comparison.LE: lambda r: r <= 0,
    Comparison.LT: lambda r: r < 0,
    Comparison.GE: lambda r: r >= 0,
    Comparison.GT: lambda r: r > 0,
}


def _planted(seed: int, dim: int, n: int = 120):
    """``(rows, normal, offset)`` with rows on and near ``<normal, row> = offset``.

    Dyadic rows (10-bit mantissas, column exponents over +-2**10, about six
    decades) and a dyadic normal make every base product and sum exact, so
    rows sharing the anchor's value sit exactly on the hyperplane.  Copies
    of the anchor with one coordinate moved by 1-3 ulps sit just off it.
    """
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-10, 11, size=dim)
    rows = rng.integers(1, 2**10, size=(n, dim)) * 2.0 ** exponents
    normal = rng.integers(1, 32, size=dim) * 2.0 ** rng.integers(-3, 4, size=dim)
    anchor = rows[int(rng.integers(0, n))].copy()
    offset = float(anchor @ normal)
    near = np.repeat(anchor[None, :], 12, axis=0)
    for row in near[1:]:
        column = int(rng.integers(0, dim))
        toward = np.inf if rng.random() < 0.5 else -np.inf
        for _ in range(int(rng.integers(1, 4))):
            row[column] = np.nextafter(row[column], toward)
    rows = np.vstack([rows, near])
    return rows[rng.permutation(rows.shape[0])], normal, offset


def _truth(rows, normal, offset, op):
    bound = Fraction(offset)
    return np.array(
        [
            position
            for position, value in enumerate(fraction_values(rows, normal))
            if _HOLDS[op](value - bound)
        ],
        dtype=np.int64,
    )


class TestDecisions:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(1, 8),
        op=st.sampled_from(list(Comparison)),
    )
    def test_matches_fraction_reference(self, seed, dim, op):
        rows, normal, offset = _planted(seed, dim)
        query = ScalarProductQuery(normal, offset, op)
        positions, values = exact.satisfying(rows, query)
        assert np.array_equal(positions, _truth(rows, normal, offset, op))
        assert np.array_equal(values, rows @ normal)

    @pytest.mark.parametrize("op", list(Comparison))
    def test_planted_rows_are_decided_on_both_sides(self, op):
        rows, normal, offset = _planted(5, 6)
        residuals = [value - Fraction(offset) for value in fraction_values(rows, normal)]
        assert any(r == 0 for r in residuals)
        assert any(0 < abs(r) < 1e-9 * abs(offset) for r in residuals)
        query = ScalarProductQuery(normal, offset, op)
        assert np.array_equal(
            exact.satisfying(rows, query)[0], _truth(rows, normal, offset, op)
        )

    def test_octant_bound_decides_exactly(self):
        rows, normal, offset = _planted(11, 5)
        query = ScalarProductQuery(normal, offset, "<=")
        # Rows are positive and so is the normal: an octant with delta = 0,
        # where b'' = b.
        wq = type("WQ", (), {"query": query, "offset_w": offset})()
        by_octant = exact.satisfying(rows, query, exact.octant_bound(wq))[0]
        assert np.array_equal(by_octant, _truth(rows, normal, offset, Comparison.LE))


class TestLayouts:
    """float32, Fortran-order and memmap rows decide as their float64 values do."""

    def _check(self, rows, normal, offset):
        as_float64 = np.asarray(rows, dtype=np.float64)
        for op in Comparison:
            query = ScalarProductQuery(normal, offset, op)
            positions, _ = exact.satisfying(rows, query)
            assert np.array_equal(positions, _truth(as_float64, normal, offset, op))

    def test_float32_rows(self):
        rows, normal, offset = _planted(3, 4)
        rows32 = rows.astype(np.float32)
        offset = float(rows32[0].astype(np.float64) @ normal)
        self._check(rows32, normal, offset)

    def test_fortran_order_rows(self):
        rows, normal, offset = _planted(4, 6)
        fortran = np.asfortranarray(rows)
        assert not fortran.flags["C_CONTIGUOUS"]
        self._check(fortran, normal, offset)

    def test_memmap_rows(self, tmp_path):
        rows, normal, offset = _planted(6, 3)
        path = tmp_path / "rows.f64"
        mapped = np.memmap(path, dtype=np.float64, mode="w+", shape=rows.shape)
        mapped[:] = rows
        mapped.flush()
        reopened = np.memmap(path, dtype=np.float64, mode="r", shape=rows.shape)
        self._check(reopened, normal, offset)


class TestResiduals:
    def test_correctly_rounded(self):
        rows, normal, offset = _planted(9, 7)
        got = exact.residuals(rows, normal, offset)
        want = [float(value - Fraction(offset)) for value in fraction_values(rows, normal)]
        assert got.tolist() == want

    def test_under_and_overflowing_products(self):
        rows = np.array(
            [
                [1e-200, 1e-200],
                [1e300, 1e10],
                [0.0, 1e308],
                [1.7e308, 1.0],  # the split of 1.7e308 overflows
                [3e-170, -2e-170],
                [0.0, 0.0],
            ]
        )
        normal = np.array([1e-200, 3.0])
        for offset in (0.5, 0.0, -1e-300):
            got = exact.residuals(rows, normal, offset)
            for position, value in enumerate(fraction_values(rows, normal)):
                residual = value - Fraction(offset)
                try:
                    want = float(residual)
                except OverflowError:
                    want = np.inf if residual > 0 else -np.inf
                assert got[position] == want

    def test_distance_of_a_row_does_not_depend_on_its_batch(self):
        rows, normal, offset = _planted(13, 6)
        query = ScalarProductQuery(normal, offset)
        ids = np.arange(rows.shape[0], dtype=np.int64)
        together_ids, together = exact.sorted_by_distance(ids, rows, query)
        alone = {
            int(i): exact.sorted_by_distance(ids[i : i + 1], rows[i : i + 1], query)[1][0]
            for i in ids
        }
        assert [alone[int(i)] for i in together_ids] == together.tolist()
        # Ascending by distance, ties broken by id.
        pairs = list(zip(together.tolist(), together_ids.tolist()))
        assert pairs == sorted(pairs)


class TestBounds:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 8))
    def test_column_bound_covers_the_blas_error(self, seed, dim):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-10.0, 10.0, size=(200, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
        normal = rng.uniform(-5.0, 5.0, size=dim)
        query = ScalarProductQuery(normal, 1.0)
        bound = exact.column_bound(query, np.abs(rows).max(axis=0))
        for value, blas in zip(fraction_values(rows, normal), (rows @ normal).tolist()):
            assert abs(Fraction(blas) - value) <= Fraction(bound)
