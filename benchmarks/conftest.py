"""Shared fixtures for the benchmark suite.

Benchmarks run at laptop scale (tens of thousands of points instead of the
paper's 1M; hundreds of moving objects instead of 5K) — the reproduced
quantity is the *shape* of each figure, not absolute milliseconds.  Set
``REPRO_BENCH_SCALE`` to scale the dataset sizes (e.g. ``10`` approaches
the paper's setup; default 1).
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.datasets import load

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(base: int) -> int:
    """Apply the global scale factor to a dataset size."""
    return int(base * SCALE)


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
