"""Feature maps ``phi : R^d -> R^{d'}`` (the "function" being indexed).

The paper's whole premise is that the *functional* part of a scalar product
query is known ahead of time.  :class:`FeatureMap` packages that function
with the metadata the index needs (input/output dimensionality, component
names for diagnostics).  Several constructors cover the paper's use cases:

* :func:`identity_map` — half-space range searching (Remark 3),
* :func:`product_map` — monomial features such as
  ``(active_power, voltage * current)`` from Example 1,
* :func:`polynomial_map` — degree-bounded monomials, and
* :meth:`FeatureMap.from_callable` — anything else.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .._util import as_2d_float
from ..exceptions import DimensionMismatchError

__all__ = ["FeatureMap", "identity_map", "product_map", "polynomial_map"]


class FeatureMap:
    """A vetted, vectorized feature function with fixed dimensionalities.

    Parameters
    ----------
    func:
        Callable mapping an ``(n, d)`` array to an ``(n, d')`` array.
    in_dim / out_dim:
        ``d`` and ``d'``.
    names:
        Optional human-readable names for the ``d'`` output components,
        used in diagnostics and the SQL-function layer.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        in_dim: int,
        out_dim: int,
        names: Sequence[str] | None = None,
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(
                f"feature map dimensions must be positive, got ({in_dim}, {out_dim})"
            )
        if names is not None and len(names) != out_dim:
            raise DimensionMismatchError(
                f"got {len(names)} component names for out_dim={out_dim}"
            )
        self._func = func
        self._in_dim = int(in_dim)
        self._out_dim = int(out_dim)
        self._names = tuple(names) if names is not None else tuple(
            f"phi_{i}" for i in range(out_dim)
        )

    # ------------------------------------------------------------------ #

    @property
    def in_dim(self) -> int:
        """Input dimensionality ``d``."""
        return self._in_dim

    @property
    def out_dim(self) -> int:
        """Output dimensionality ``d'``."""
        return self._out_dim

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the output components."""
        return self._names

    @property
    def is_identity(self) -> bool:
        """Whether this map is ``phi(x) = x``: true only for :func:`identity_map`'s."""
        return self._func is _identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FeatureMap({self._in_dim} -> {self._out_dim}, names={list(self._names)})"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to a batch of points, validating both shapes."""
        pts = as_2d_float(points, "points")
        if pts.shape[1] != self._in_dim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, feature map expects {self._in_dim}"
            )
        out = np.ascontiguousarray(self._func(pts), dtype=np.float64)
        if out.ndim != 2 or out.shape != (pts.shape[0], self._out_dim):
            raise DimensionMismatchError(
                f"feature function returned shape {out.shape}, expected "
                f"({pts.shape[0]}, {self._out_dim})"
            )
        return out

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_callable(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        in_dim: int,
        out_dim: int,
        names: Sequence[str] | None = None,
    ) -> "FeatureMap":
        """Wrap an arbitrary vectorized callable."""
        return cls(func, in_dim, out_dim, names)


def _identity(pts: np.ndarray) -> np.ndarray:
    return pts


def identity_map(dim: int) -> FeatureMap:
    """``phi(x) = x`` — reduces the problems to half-space range search."""
    return FeatureMap(_identity, dim, dim, [f"x_{i}" for i in range(dim)])


def product_map(in_dim: int, terms: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> FeatureMap:
    """Monomial features: each term is a tuple of input indices to multiply.

    ``product_map(4, [(0,), (2, 3)])`` builds
    ``phi(x) = (x_0, x_2 * x_3)`` — the Example 1 power-factor features.
    An empty term ``()`` yields the constant 1 component.
    """
    term_tuples = [tuple(int(i) for i in term) for term in terms]
    for term in term_tuples:
        for idx in term:
            if not 0 <= idx < in_dim:
                raise DimensionMismatchError(
                    f"term {term} references input index {idx}, but in_dim={in_dim}"
                )
    if names is None:
        names = [
            "*".join(f"x_{i}" for i in term) if term else "1" for term in term_tuples
        ]

    def _apply(pts: np.ndarray) -> np.ndarray:
        cols = []
        for term in term_tuples:
            col = np.ones(pts.shape[0], dtype=np.float64)
            for idx in term:
                col = col * pts[:, idx]
            cols.append(col)
        return np.column_stack(cols)

    fmap = FeatureMap(_apply, in_dim, len(term_tuples), names)
    # Marker consumed by repro.core.persistence so product maps round-trip.
    fmap._persist_kind = {
        "type": "product",
        "in_dim": in_dim,
        "terms": [list(t) for t in term_tuples],
    }
    return fmap


def polynomial_map(in_dim: int, degree: int, include_bias: bool = False) -> FeatureMap:
    """All monomials of total degree 1..``degree`` (optionally the constant).

    Generates features in the deterministic order produced by
    ``itertools.combinations_with_replacement``, mirroring what a polynomial
    kernel expansion would index.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    terms: list[tuple[int, ...]] = []
    if include_bias:
        terms.append(())
    for deg in range(1, degree + 1):
        terms.extend(itertools.combinations_with_replacement(range(in_dim), deg))
    return product_map(in_dim, terms)
