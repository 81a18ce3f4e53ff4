"""PCA preprocessing for Planar indexing (future work, Section 8).

The Planar index prunes best at low dimensionality, so the paper suggests
dimensionality reduction as a preprocessing step.  Done naively that would
change query answers; this module keeps them **exact** with a
filter-and-verify scheme:

With centered data ``x = V z + mu + eps`` (``V`` the top-``m`` principal
directions, ``z`` the projection, ``eps`` the residual)::

    <a, x> = <V^T a, z> + <a, mu> + <a, eps>,   |<a, eps>| <= |a| * E

where ``E`` is the largest residual norm over the dataset (precomputed).
Querying the *reduced* index with the offset shifted by ``-|a| E`` yields
certain accepts; shifting by ``+|a| E`` yields the candidate band, whose
members are verified against the full-dimensional features.  Reduced query
normals ``V^T a`` have no stable sign pattern, so the reduced index is an
:class:`AdaptiveOctantIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import as_1d_float, as_2d_float, as_rng
from ..core.query import Comparison, ScalarProductQuery
from ..exceptions import DimensionMismatchError
from .adaptive import AdaptiveOctantIndex

__all__ = ["PCA", "PCAFilterIndex", "FilteredAnswer"]


class PCA:
    """Principal component analysis via eigendecomposition (from scratch)."""

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self._m = int(n_components)
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (m, d) rows = directions
        self.explained_variance_: np.ndarray | None = None

    @property
    def n_components(self) -> int:
        """Number of retained principal directions."""
        return self._m

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.components_ is not None

    def fit(self, data: np.ndarray) -> "PCA":
        """Fit on ``(n, d)`` data; requires ``n_components <= d``."""
        x = as_2d_float(data, "data")
        if self._m > x.shape[1]:
            raise DimensionMismatchError(
                f"n_components={self._m} exceeds data dimension {x.shape[1]}"
            )
        self.mean_ = x.mean(axis=0)
        centered = x - self.mean_
        covariance = (centered.T @ centered) / max(1, x.shape[0] - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1][: self._m]
        self.components_ = eigenvectors[:, order].T.copy()
        self.explained_variance_ = eigenvalues[order].copy()
        return self

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("PCA is not fitted")

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project ``(n, d)`` data onto the retained directions."""
        self._require_fitted()
        x = as_2d_float(data, "data")
        return (x - self.mean_) @ self.components_.T

    def inverse_transform(self, projected: np.ndarray) -> np.ndarray:
        """Reconstruct full-dimensional points from projections."""
        self._require_fitted()
        z = as_2d_float(projected, "projected")
        return z @ self.components_ + self.mean_

    def residual_norms(self, data: np.ndarray) -> np.ndarray:
        """Per-point reconstruction-residual norms ``|x - reconstruct(x)|``."""
        x = as_2d_float(data, "data")
        reconstructed = self.inverse_transform(self.transform(x))
        return np.linalg.norm(x - reconstructed, axis=1)


@dataclass(frozen=True)
class FilteredAnswer:
    """Answer of a PCA-filtered query with pruning diagnostics."""

    ids: np.ndarray
    n_verified: int
    n_total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))

    @property
    def pruned_fraction(self) -> float:
        """Fraction of points decided without a full-dimensional evaluation."""
        if self.n_total == 0:
            return 1.0
        return 1.0 - self.n_verified / self.n_total

    def __len__(self) -> int:
        return int(self.ids.size)


class PCAFilterIndex:
    """Exact inequality answering through a reduced-dimension Planar filter.

    Parameters
    ----------
    features:
        Full-dimensional ``(n, d')`` feature matrix.
    n_components:
        Reduced dimensionality ``m < d'``.
    """

    def __init__(
        self,
        features: np.ndarray,
        n_components: int,
        max_indices_per_octant: int = 10,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self._features = as_2d_float(features, "features").copy()
        self._pca = PCA(n_components).fit(self._features)
        reduced = self._pca.transform(self._features)
        self._residual_bound = float(self._pca.residual_norms(self._features).max())
        self._reduced_index = AdaptiveOctantIndex(
            reduced, max_indices_per_octant=max_indices_per_octant, rng=as_rng(rng)
        )

    # ------------------------------------------------------------------ #

    @property
    def pca(self) -> PCA:
        """The fitted projection."""
        return self._pca

    @property
    def residual_bound(self) -> float:
        """Worst-case reconstruction residual ``E`` (drives the filter band)."""
        return self._residual_bound

    def __len__(self) -> int:
        return int(self._features.shape[0])

    # ------------------------------------------------------------------ #

    def query(
        self,
        normal: np.ndarray,
        offset: float,
        op: Comparison | str = Comparison.LE,
    ) -> FilteredAnswer:
        """Exact answer to ``<normal, x> OP offset`` via the reduced filter."""
        normal = as_1d_float(normal, "normal")
        if normal.size != self._features.shape[1]:
            raise DimensionMismatchError(
                f"query has dimension {normal.size}, features have "
                f"{self._features.shape[1]}"
            )
        op = Comparison.parse(op)
        reduced_normal = self._pca.components_ @ normal
        shifted = float(offset) - float(normal @ self._pca.mean_)
        slack = float(np.linalg.norm(normal)) * self._residual_bound

        if op.is_upper_bound:
            certain_offset, band_offset = shifted - slack, shifted + slack
        else:
            certain_offset, band_offset = shifted + slack, shifted - slack

        certain = self._reduced_index.query(reduced_normal, certain_offset, op).ids
        band = self._reduced_index.query(reduced_normal, band_offset, op).ids
        maybe = np.setdiff1d(band, certain, assume_unique=True)
        query = ScalarProductQuery(normal, offset, op)
        verified = maybe[query.evaluate(self._features[maybe])]
        ids = np.sort(np.concatenate([certain, verified]))
        return FilteredAnswer(ids=ids, n_verified=int(maybe.size), n_total=len(self))
