"""Tests for the Claim 1 translation machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.selection import key_offsets
from repro.exceptions import DimensionMismatchError, InvalidQueryError
from repro.geometry import Translator


class TestConstruction:
    def test_octant_validation(self):
        with pytest.raises(InvalidQueryError):
            Translator(np.array([1.0, 0.0]))

    def test_initial_delta_zero(self):
        translator = Translator(np.array([1.0, -1.0]))
        assert np.array_equal(translator.delta, [0.0, 0.0])
        assert translator.dim == 2


class TestObserve:
    def test_first_octant_data_needs_no_shift(self):
        translator = Translator(np.array([1.0, 1.0]))
        assert translator.observe([[1.0, 2.0], [3.0, 4.0]]) is False
        assert np.array_equal(translator.delta, [0.0, 0.0])

    def test_eq10_delta_is_largest_wrong_sign_magnitude(self):
        """delta_i = max |phi_i(x)| over points whose sign disagrees (Eq. 10)."""
        translator = Translator(np.array([1.0, 1.0]))
        translator.observe([[-3.0, 5.0], [-7.0, -1.0], [2.0, 4.0]])
        assert np.array_equal(translator.delta, [7.0, 1.0])

    def test_delta_never_shrinks(self):
        translator = Translator(np.array([1.0]))
        translator.observe([[-10.0]])
        assert translator.observe([[-2.0]]) is False
        assert translator.delta[0] == 10.0

    def test_delta_grows_monotonically(self):
        translator = Translator(np.array([1.0]))
        translator.observe([[-5.0]])
        assert translator.observe([[-9.0]]) is True
        assert translator.delta[0] == 9.0

    def test_empty_batch_is_noop(self):
        translator = Translator(np.array([1.0, 1.0]))
        assert translator.observe(np.empty((0, 2))) is False

    def test_dimension_mismatch(self):
        translator = Translator(np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            translator.observe([[1.0, 2.0, 3.0]])


class TestCoordinateMaps:
    def test_to_working_lands_in_first_octant(self):
        translator = Translator(np.array([1.0, -1.0]))
        pts = np.array([[-4.0, 6.0], [3.0, -2.0]])
        translator.observe(pts)
        working = translator.to_working(pts)
        assert np.all(working >= 0.0)

    def test_reflect_normal(self):
        translator = Translator(np.array([1.0, -1.0]))
        assert np.array_equal(translator.reflect_normal([2.0, -3.0]), [2.0, 3.0])

    def test_transform_query_eq12(self):
        """b'' = b + sum sign(O,i) a_i delta_i (Eq. 12)."""
        translator = Translator(np.array([1.0, -1.0]))
        translator.observe([[-4.0, 6.0]])  # delta = (4, 6)
        normal_w, offset_w = translator.transform_query([2.0, -3.0], 10.0)
        assert np.array_equal(normal_w, [2.0, 3.0])
        assert offset_w == pytest.approx(10.0 + 2.0 * 4.0 + 3.0 * 6.0)

    def test_transform_query_sign_mismatch_raises(self):
        translator = Translator(np.array([1.0, 1.0]))
        with pytest.raises(InvalidQueryError, match="incompatible"):
            translator.transform_query([1.0, -1.0], 5.0)

    def test_key_offset(self):
        translator = Translator(np.array([1.0, 1.0]))
        translator.observe([[-2.0, -3.0]])
        offset = key_offsets(np.array([5.0, 7.0]), translator.delta)
        assert offset == pytest.approx(10.0 + 21.0)


@given(
    pts=hnp.arrays(
        np.float64,
        (20, 3),
        elements=st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
    ),
    signs=hnp.arrays(np.int8, 3, elements=st.sampled_from([-1, 1])),
)
@settings(max_examples=60, deadline=None)
def test_translation_preserves_inequality(pts, signs):
    """<a'', y''> <= b'' iff <a, y> <= b for every observed point (Claim 1)."""
    translator = Translator(signs.astype(np.float64))
    translator.observe(pts)
    normal = signs.astype(np.float64) * np.array([1.5, 2.0, 0.5])
    offset = 12.0
    normal_w, offset_w = translator.transform_query(normal, offset)
    working = translator.to_working(pts)
    lhs_original = pts @ normal
    lhs_working = working @ normal_w
    # The two sides differ by exactly the constant offset shift.
    np.testing.assert_allclose(
        lhs_working - lhs_original,
        offset_w - offset,
        rtol=1e-9,
        atol=1e-6 * max(1.0, np.abs(pts).max()),
    )
    assert np.all(working >= -1e-9 * max(1.0, np.abs(pts).max()))
