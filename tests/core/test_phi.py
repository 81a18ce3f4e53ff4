"""Tests for feature maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FeatureMap, identity_map, polynomial_map, product_map
from repro.exceptions import DimensionMismatchError


class TestFeatureMap:
    def test_shape_validation_on_input(self):
        fmap = identity_map(3)
        with pytest.raises(DimensionMismatchError):
            fmap(np.ones((2, 4)))

    def test_shape_validation_on_output(self):
        bad = FeatureMap(lambda pts: pts[:, :1], in_dim=3, out_dim=3)
        with pytest.raises(DimensionMismatchError):
            bad(np.ones((2, 3)))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(lambda p: p, in_dim=0, out_dim=1)

    def test_names_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            FeatureMap(lambda p: p, in_dim=2, out_dim=2, names=["only_one"])

    def test_default_names(self):
        fmap = FeatureMap(lambda p: p, in_dim=2, out_dim=2)
        assert fmap.names == ("phi_0", "phi_1")

    def test_single_point_promoted(self):
        fmap = identity_map(2)
        out = fmap([1.0, 2.0])
        assert out.shape == (1, 2)


class TestIdentityMap:
    def test_identity(self):
        fmap = identity_map(3)
        pts = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(fmap(pts), pts)
        assert fmap.in_dim == fmap.out_dim == 3


    def test_only_identity_map_is_identity(self):
        assert identity_map(3).is_identity
        names = ["x_0", "x_1", "x_2"]
        assert not FeatureMap(lambda p: p, 3, 3, names).is_identity
        assert not FeatureMap.from_callable(lambda p: 2 * p, 3, 3, names).is_identity
        assert not product_map(3, [(0,), (1,), (2,)]).is_identity
        with pytest.raises(AttributeError):
            identity_map(3).is_identity = False


class TestProductMap:
    def test_example1_power_factor_features(self):
        """phi(active, reactive, voltage, current) = (active, voltage*current)."""
        fmap = product_map(4, [(0,), (2, 3)])
        pts = np.array([[5.0, 1.0, 230.0, 2.0]])
        assert np.allclose(fmap(pts), [[5.0, 460.0]])
        assert fmap.names == ("x_0", "x_2*x_3")

    def test_constant_term(self):
        fmap = product_map(2, [(), (0,)])
        out = fmap(np.array([[3.0, 4.0], [5.0, 6.0]]))
        assert np.allclose(out, [[1.0, 3.0], [1.0, 5.0]])

    def test_repeated_index_squares(self):
        fmap = product_map(1, [(0, 0)])
        assert np.allclose(fmap([[3.0]]), [[9.0]])

    def test_out_of_range_index(self):
        with pytest.raises(DimensionMismatchError):
            product_map(2, [(0, 5)])


class TestPolynomialMap:
    def test_degree_one_is_identity_like(self):
        fmap = polynomial_map(2, 1)
        assert fmap.out_dim == 2
        assert np.allclose(fmap([[3.0, 4.0]]), [[3.0, 4.0]])

    def test_degree_two_monomials(self):
        fmap = polynomial_map(2, 2)
        # x0, x1, x0^2, x0*x1, x1^2
        assert fmap.out_dim == 5
        assert np.allclose(fmap([[2.0, 3.0]]), [[2.0, 3.0, 4.0, 6.0, 9.0]])

    def test_bias_adds_constant(self):
        fmap = polynomial_map(2, 1, include_bias=True)
        assert fmap.out_dim == 3
        assert np.allclose(fmap([[2.0, 3.0]]), [[1.0, 2.0, 3.0]])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            polynomial_map(2, 0)
