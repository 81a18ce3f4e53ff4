"""Shared fixtures and oracles for the repro test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro import (
    FeatureStore,
    ParameterDomain,
    PlanarIndexCollection,
    QueryModel,
    ScalarProductQuery,
)
from repro.geometry import Translator
from repro.geometry.octant import sign_vector


@pytest.fixture(autouse=True)
def _obs_state_isolation(tmp_path, monkeypatch):
    """Keep obs state files out of the working tree during armed runs.

    With ``REPRO_OBS=1`` the CLI merges metric samples into a state file on
    exit; pointing it at a per-test temp path keeps test invocations from
    writing ``.repro-obs.json`` into the repository root.
    """
    monkeypatch.setenv("REPRO_OBS_STATE", str(tmp_path / "obs-state.json"))


@pytest.fixture
def intervals_route(monkeypatch):
    """Answer every collection query on its chosen index's intervals
    (Algorithm 1), never by the scan fallback."""
    monkeypatch.setattr("repro.core.collection._SCAN_FALLBACK_FRACTION", 1.0)


def one_index(features: np.ndarray | FeatureStore, normal: np.ndarray) -> PlanarIndexCollection:
    """A one-index collection with index normal ``normal``.

    ``features`` is a feature matrix or a store; the translator takes the
    octant of ``normal`` and has observed every stored row.
    """
    store = features if isinstance(features, FeatureStore) else FeatureStore(features)
    translator = Translator(sign_vector(normal, "normal"))
    translator.observe(store.get_all()[1])
    return PlanarIndexCollection(store, translator, np.atleast_2d(normal))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need other seeds build their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def uniform_points(rng: np.random.Generator) -> np.ndarray:
    """A small first-octant dataset matching the paper's synthetic ranges."""
    return rng.uniform(1.0, 100.0, size=(2000, 4))


@pytest.fixture
def uniform_model() -> QueryModel:
    """Positive discrete query model (RQ = 4) over four axes."""
    return QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)


@pytest.fixture
def mixed_sign_points(rng: np.random.Generator) -> np.ndarray:
    """Data spanning all octants, for translation-path coverage."""
    return rng.normal(0.0, 10.0, size=(1500, 3))


@pytest.fixture
def mixed_sign_model() -> QueryModel:
    """Query model whose octant is (+, -, +)."""
    return QueryModel(
        [
            ParameterDomain(low=0.5, high=3.0),
            ParameterDomain(low=-2.0, high=-0.5),
            ParameterDomain(values=[1.0, 2.0, 4.0]),
        ]
    )


def fraction_values(features: np.ndarray, normal: np.ndarray) -> list[Fraction]:
    """Exact ``<normal, row>`` of every feature row, in rational arithmetic."""
    weights = [Fraction(weight) for weight in np.asarray(normal, dtype=np.float64).tolist()]
    return [
        sum((Fraction(x) * w for x, w in zip(row, weights)), Fraction(0))
        for row in np.asarray(features, dtype=np.float64).tolist()
    ]


def churn(index, points: np.ndarray, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Insert, update and delete through ``index`` (built on ``points``).

    Returns the raw row each live id was last written with.
    """
    n, dim = points.shape
    rows = dict(enumerate(points))
    extra = rng.uniform(1.0, 100.0, size=(30, dim))
    rows.update(zip(index.insert_points(extra).tolist(), extra))
    changed = np.array([3, n + 5, n + 15], dtype=np.int64)
    new_values = rng.uniform(1.0, 100.0, size=(changed.size, dim))
    index.update_points(changed, new_values)
    rows.update(zip(changed.tolist(), new_values))
    doomed = np.array([0, 7, n + 12], dtype=np.int64)
    index.delete_points(doomed)
    for point_id in doomed.tolist():
        del rows[point_id]
    return rows


def brute_force_ids(
    features: np.ndarray, query: ScalarProductQuery, ids: np.ndarray | None = None
) -> np.ndarray:
    """Oracle: ids satisfying the query by direct evaluation, ascending."""
    if ids is None:
        ids = np.arange(features.shape[0], dtype=np.int64)
    mask = query.evaluate(features)
    return np.sort(ids[mask])


def brute_force_topk(
    features: np.ndarray,
    query: ScalarProductQuery,
    k: int,
    ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (ids, distances) of the top-k satisfying points.

    Satisfaction is decided exactly (:meth:`ScalarProductQuery.evaluate`);
    candidates are ranked by their BLAS distances, as the index ranks them.
    """
    if ids is None:
        ids = np.arange(features.shape[0], dtype=np.int64)
    mask = query.evaluate(features)
    sat_ids = ids[mask]
    values = features @ query.normal
    distances = np.abs(values[mask] - query.offset) / np.linalg.norm(query.normal)
    order = np.lexsort((sat_ids, distances))[:k]
    return sat_ids[order], distances[order]
