"""Unit tests: QuerySketch, WorkloadRecorder, persistence, facade hooks."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import ShardedFunctionIndex, TuningError
from repro.exceptions import DimensionMismatchError
from repro.tuning import (
    DEFAULT_CAPACITY,
    QuerySketch,
    WorkloadRecorder,
    disable_recording,
    enable_recording,
    global_recorder,
    load_workload,
    record_query,
    recording_enabled,
    save_workload,
)
from repro.tuning import recorder as recorder_module


class TestQuerySketch:
    def test_normalizes_and_freezes(self):
        sketch = QuerySketch([1, 2, 3], 4)
        assert sketch.normal.dtype == np.float64
        assert not sketch.normal.flags.writeable
        assert sketch.offset == 4.0
        assert sketch.dim == 3
        assert sketch.op == "<=" and sketch.kind == "inequality" and sketch.k == 0

    def test_rejects_bad_shapes_and_enums(self):
        with pytest.raises(TuningError):
            QuerySketch(np.ones((2, 2)), 0.0)
        with pytest.raises(TuningError):
            QuerySketch(np.array([]), 0.0)
        with pytest.raises(TuningError):
            QuerySketch([1.0], 0.0, op="==")
        with pytest.raises(TuningError):
            QuerySketch([1.0], 0.0, kind="mystery")


class TestWorkloadRecorder:
    def test_ring_eviction_keeps_recent(self):
        recorder = WorkloadRecorder(capacity=3)
        for value in range(5):
            recorder.record_query([1.0, float(value)], value)
        assert len(recorder) == 3
        assert recorder.total_recorded == 5
        offsets = [sketch.offset for sketch in recorder.sketches()]
        assert offsets == [2.0, 3.0, 4.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(TuningError):
            WorkloadRecorder(capacity=0)

    def test_clear_preserves_total(self):
        recorder = WorkloadRecorder(capacity=4)
        recorder.record_query([1.0], 0.0)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_recorded == 1

    def test_concurrent_records_all_counted(self):
        recorder = WorkloadRecorder(capacity=10_000)

        def worker(tag: int) -> None:
            for value in range(200):
                recorder.record_query([1.0, float(tag)], value)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.total_recorded == 800
        assert len(recorder) == 800


class TestPersistence:
    def test_round_trip(self, tmp_path):
        recorder = WorkloadRecorder(capacity=8)
        recorder.record_query([1.0, 2.0], 3.0, op="<", kind="range")
        recorder.record_query([4.0, 5.0], 6.0, kind="topk", k=9)
        path = recorder.save(tmp_path / "workload.npz")
        reloaded = WorkloadRecorder.load(path)
        assert len(reloaded) == 2
        first, second = reloaded.sketches()
        assert np.array_equal(first.normal, [1.0, 2.0])
        assert (first.op, first.kind) == ("<", "range")
        assert (second.kind, second.k) == ("topk", 9)

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(TuningError, match="empty workload"):
            save_workload([], tmp_path / "nope.npz")

    def test_mixed_dims_rejected(self, tmp_path):
        sketches = [QuerySketch([1.0], 0.0), QuerySketch([1.0, 2.0], 0.0)]
        with pytest.raises(TuningError, match="dimensionalities"):
            save_workload(sketches, tmp_path / "nope.npz")

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an archive")
        with pytest.raises(TuningError, match="cannot read"):
            load_workload(bad)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "versioned.npz"
        np.savez_compressed(
            path,
            format_version=np.asarray(999),
            normals=np.ones((1, 2)),
            offsets=np.zeros(1),
            ops=np.asarray(["<="]),
            kinds=np.asarray(["inequality"]),
            ks=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(TuningError, match="version"):
            load_workload(path)


class TestArming:
    def test_enable_disable_round_trip(self):
        assert not recording_enabled()
        enable_recording()
        assert recording_enabled()
        disable_recording()
        assert not recording_enabled()

    def test_record_query_noop_when_disarmed(self):
        record_query([1.0, 2.0], 3.0)
        assert len(global_recorder()) == 0

    def test_record_query_records_when_armed(self):
        enable_recording()
        record_query([1.0, 2.0], 3.0)
        assert len(global_recorder()) == 1

    def test_env_var_arms(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_RECORD", "1")
        import importlib

        module = importlib.reload(recorder_module)
        try:
            assert module.RECORDING is True
        finally:
            monkeypatch.delenv("REPRO_TUNE_RECORD")
            importlib.reload(recorder_module)

    def test_default_capacity_constant(self):
        assert global_recorder().capacity == DEFAULT_CAPACITY


class TestFacadeHooks:
    def test_function_index_kinds(self, index, model):
        enable_recording()
        normal = model.sample_normal(0)
        index.query(normal, 500.0)
        index.query_range(normal, 100.0, 900.0)
        index.topk(normal, 500.0, k=3)
        index.query_batch(np.vstack([normal, normal]), [400.0, 600.0])
        kinds = [sketch.kind for sketch in global_recorder().sketches()]
        # range queries record one sketch per bound; batch one per query.
        assert kinds == ["inequality", "range", "range", "topk", "batch", "batch"]
        topk_sketch = global_recorder().sketches()[3]
        assert topk_sketch.k == 3

    def test_sketches_capture_original_coordinates(self, index, model):
        enable_recording()
        normal = model.sample_normal(1)
        index.query(normal, 321.5)
        sketch = global_recorder().sketches()[0]
        assert np.array_equal(sketch.normal, normal)
        assert sketch.offset == 321.5

    def test_disarmed_facade_records_nothing(self, index, model):
        index.query(model.sample_normal(2), 500.0)
        assert len(global_recorder()) == 0

    @pytest.mark.parametrize("normal", [np.ones(3), -np.ones(5)], ids=["short", "long"])
    def test_wrong_dimension_raises_before_recording(self, index, normal):
        """The translator's dimension check is the facade's: every query
        kind raises before the recorder sees the query, even one whose
        signs would send it to the octant fallback."""
        enable_recording()
        batch = np.vstack([normal, normal])
        calls = [
            lambda: index.query(normal, 500.0),
            lambda: index.topk(normal, 500.0, k=3),
            lambda: index.query_range(normal, 100.0, 900.0),
            lambda: index.query_batch(batch, [400.0, 600.0]),
            lambda: index.topk_batch(batch, [400.0, 600.0], 3),
            lambda: index.explain_report(normal, 500.0),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()
        assert len(global_recorder()) == 0

    def test_sharded_engine_records(self, points, model):
        enable_recording()
        with ShardedFunctionIndex(
            points, model, n_indices=4, rng=0, n_shards=2
        ) as engine:
            normal = model.sample_normal(3)
            engine.query(normal, 500.0)
            engine.topk(normal, 500.0, k=2)
        kinds = [sketch.kind for sketch in global_recorder().sketches()]
        assert kinds == ["inequality", "topk"]
