"""Shared fixtures for the sharded-engine tests.

The shard count honours ``REPRO_SHARDS`` so the CI matrix can re-run the
whole suite at a different fan-out (e.g. ``REPRO_SHARDS=4``) without a
separate parametrization.
"""

from __future__ import annotations

import os

import pytest


def _env_shards(default: int = 3) -> int:
    try:
        return max(1, int(os.environ.get("REPRO_SHARDS", str(default))))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def n_shards() -> int:
    """Shard count under test (``REPRO_SHARDS`` env override, default 3)."""
    return _env_shards()


@pytest.fixture
def obs_enabled():
    """Arm observability (full sampling) for one test, restoring after."""
    from repro.obs import clear_traces
    from repro.obs import runtime as obs_runtime

    previous = obs_runtime.enable()
    clear_traces()
    yield
    clear_traces()
    obs_runtime.enable(previous)
