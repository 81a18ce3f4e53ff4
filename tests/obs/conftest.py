"""Shared fixtures for the observability tests."""

from __future__ import annotations

import pytest

from repro.obs import clear_traces
from repro.obs import runtime as obs_runtime


@pytest.fixture
def obs_enabled():
    """Arm observability for one test, restoring the prior state after.

    The suite may itself run armed (``REPRO_OBS=1``) or armed at a
    head-sampling rate below 1 (``REPRO_OBS=0.1``, the sampled chaos
    lane), so the fixture pins full sampling — tests using it assert on
    recorded spans and metrics — and restores whatever was set rather
    than blindly disabling.
    """
    previous = obs_runtime.enable()
    clear_traces()
    yield
    clear_traces()
    obs_runtime.enable(previous)


@pytest.fixture
def obs_disabled():
    """Force the disabled path for one test, restoring the prior state."""
    previous = obs_runtime.disable()
    yield
    obs_runtime.enable(previous)
