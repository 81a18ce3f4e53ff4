"""Shared fixtures for the benchmark suite.

Benchmarks run at laptop scale (tens of thousands of points instead of the
paper's 1M; hundreds of moving objects instead of 5K) — the reproduced
quantity is the *shape* of each figure, not absolute milliseconds.  Set
``REPRO_BENCH_SCALE`` to scale the dataset sizes (e.g. ``10`` approaches
the paper's setup; default 1).
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np
import pytest

from repro.core import FeatureStore, PlanarIndexCollection
from repro.datasets import load
from repro.geometry import Translator
from repro.geometry.octant import sign_vector

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(base: int) -> int:
    """Apply the global scale factor to a dataset size."""
    return int(base * SCALE)


def paired_minima(first, second, items, rounds: int) -> tuple[float, float]:
    """Summed per-item minimum seconds of ``first(item)`` and ``second(item)``.

    Each item is timed in both arms back to back, the order alternating
    per item and per round, and keeps its per-arm minimum over the
    rounds.  Timing noise only ever adds (preemption, cache eviction,
    frequency drift), so the summed minima converge on the true costs
    where two whole-arm timings taken apart do not.
    """
    arms = (first, second)
    best = np.full((2, len(items)), np.inf)
    clock = time.perf_counter
    for round_index in range(rounds):
        for i, item in enumerate(items):
            for arm in (0, 1) if (round_index + i) % 2 == 0 else (1, 0):
                started = clock()
                arms[arm](item)
                best[arm, i] = min(best[arm, i], clock() - started)
    return float(best[0].sum()), float(best[1].sum())


def one_index(points: np.ndarray, normal: np.ndarray) -> PlanarIndexCollection:
    """A one-index collection over ``points`` whose translator takes the
    octant of ``normal``: the subject of the overhead gates."""
    translator = Translator(sign_vector(normal, "normal"))
    translator.observe(points)
    return PlanarIndexCollection(FeatureStore(points), translator, np.atleast_2d(normal))


@pytest.fixture(scope="session")
def synthetic_cache():
    """Memoized synthetic datasets keyed by (name, n, dim).

    Each dataset is seeded from a CRC-32 of its key, so every run (and
    every process) draws the same points; ``hash`` of a tuple of strings
    is salted per process.
    """
    cache: dict[tuple[str, int, int], np.ndarray] = {}

    def get(name: str, n: int, dim: int) -> np.ndarray:
        key = (name, n, dim)
        if key not in cache:
            cache[key] = load(name, n, dim, rng=zlib.crc32(repr(key).encode())).points
        return cache[key]

    return get
