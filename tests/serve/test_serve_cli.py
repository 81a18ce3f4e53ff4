"""``python -m repro serve``: startup, readiness, one query, clean SIGTERM.

The test drives the real subprocess exactly the way the serving smoke CI
lane does: wait on ``--ready-file`` for the bound address, speak one HTTP
request, then SIGTERM and assert the graceful-shutdown lines landed.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro import FunctionIndex, PersistenceError, QueryModel, save_index
from repro.core.selection import SelectionStrategy
from repro.serve.cli import _build_engine

from .conftest import http_json

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _spawn(tmp_path, extra_args=()):
    ready = tmp_path / "ready"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--n", "800", "--dim", "3", "--indices", "4",
            "--shards", "2",
            "--ready-file", str(ready),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return process, ready


def _wait_ready(process, ready, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            host, _, port = ready.read_text().strip().partition(":")
            return host, int(port)
        if process.poll() is not None:
            out, err = process.communicate()
            pytest.fail(
                f"serve exited early (code {process.returncode}):\n{out}\n{err}"
            )
        time.sleep(0.05)
    process.kill()
    pytest.fail("serve never wrote its ready file")


def test_serve_cli_round_trip(tmp_path):
    process, ready = _spawn(tmp_path)
    try:
        host, port = _wait_ready(process, ready)

        status, _, health = http_json(host, port, "GET", "/healthz")
        assert status == 200
        assert health["points"] == 800
        assert health["shards"] == 2

        status, _, body = http_json(
            host, port, "POST", "/query",
            {"normal": [1.0, 2.0, 1.0], "offset": 30.0},
        )
        assert status == 200
        assert isinstance(body["ids"], list)

        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert process.returncode == 0, f"stdout:\n{out}\nstderr:\n{err}"
    assert "repro serve: listening on" in out
    assert "repro serve: drained and stopped" in out


def test_index_artifact_keeps_its_normals_and_strategy(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.uniform(1.0, 100.0, size=(600, 3))
    model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
    normals = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    mono = FunctionIndex(points, model, normals=normals, strategy="min_stretch")
    path = save_index(mono, tmp_path / "idx")
    args = argparse.Namespace(index=str(path), seed=7, shards=2, workers=1)
    with _build_engine(args) as engine:
        for collection in engine.collections:
            assert np.array_equal(collection.normals, normals)
            assert collection.strategy is SelectionStrategy.MIN_STRETCH
        for _ in range(8):
            normal, offset = model.sample_normal(rng), float(rng.uniform(100.0, 900.0))
            assert np.array_equal(engine.query(normal, offset).ids, mono.query(normal, offset).ids)


@pytest.mark.parametrize("array", ["points", "features"])
def test_damaged_index_artifact_is_refused(tmp_path, array):
    """The arrays the engine is rebuilt from are checksum-verified."""
    rng = np.random.default_rng(4)
    points = rng.uniform(1.0, 100.0, size=(600, 3))
    model = QueryModel.uniform(dim=3, low=1.0, high=5.0, rq=4)
    path = save_index(FunctionIndex(points, model, n_indices=4, rng=0), tmp_path / "idx")
    damaged = path / f"{array}.npy"
    data = bytearray(damaged.read_bytes())
    data[-1] ^= 0x01
    damaged.write_bytes(bytes(data))
    args = argparse.Namespace(index=str(path), seed=0, shards=2, workers=1)
    with pytest.raises(PersistenceError, match=array):
        _build_engine(args)


def test_index_artifact_is_not_held_beside_the_engine(tmp_path):
    """The artifact's key arrays are mapped, not copied, and dropped before the build.

    Copying them would keep every key array alive beside the engine's own
    until the build ends, pushing the traced peak past this bar.
    """
    rng = np.random.default_rng(5)
    points = rng.uniform(1.0, 100.0, size=(10_000, 6))
    model = QueryModel.uniform(dim=6, low=1.0, high=5.0, rq=4)
    path = save_index(FunctionIndex(points, model, n_indices=100, rng=0), tmp_path / "idx")
    key_bytes = sum(
        np.load(array, mmap_mode="r").nbytes
        for array in path.glob("*.npy")
        if array.name.startswith(("keys_", "ids_"))
    )
    args = argparse.Namespace(index=str(path), seed=0, shards=2, workers=1)
    tracemalloc.start()
    try:
        engine = _build_engine(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with engine:
        assert peak < engine.memory_bytes() + key_bytes
