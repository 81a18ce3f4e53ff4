"""Failure policies of the sharded engine under injected shard faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalarProductQuery
from repro.scan.baseline import SequentialScan
from repro.exceptions import (
    DegradedAnswerError,
    InvalidQueryError,
    QueryTimeoutError,
    ShardFailureError,
)
from repro.reliability import faults as _flt

from ..conftest import brute_force_ids, brute_force_topk
from .conftest import build_engine


def _query_args(points):
    normal = np.array([2.0, 1.0, 3.0, 1.0])
    offset = float(np.round(0.35 * normal @ points.max(axis=0)))
    return normal, offset


_OPS = ("inequality", "range", "batch", "topk", "batch_topk")
_K = 7


def _batch_args(normal, offset):
    normals = np.vstack([normal, normal[::-1], normal + 1.0])
    offsets = np.array([offset, np.round(0.8 * offset), np.round(1.2 * offset)])
    return normals, offsets


def _run_op(engine, op, normal, offset):
    """The answers of one ``op`` call, as a list (one per query)."""
    normals, offsets = _batch_args(normal, offset)
    if op == "inequality":
        return [engine.query(normal, offset)]
    if op == "range":
        return [engine.query_range(normal, np.round(0.5 * offset), offset)]
    if op == "batch":
        return engine.query_batch(normals, offsets)
    if op == "topk":
        return [engine.topk(normal, offset, _K)]
    return engine.topk_batch(normals, offsets, _K)


def _scan_oracle(features, ids, op, normal, offset):
    """What ``_run_op`` must return, by a sequential scan of ``features``."""
    scan = SequentialScan(features, ids)
    normals, offsets = _batch_args(normal, offset)
    if op == "inequality":
        return [scan.query(ScalarProductQuery(normal, offset))]
    if op == "range":
        low = scan.query(ScalarProductQuery(normal, np.round(0.5 * offset), ">="))
        return [np.intersect1d(low, scan.query(ScalarProductQuery(normal, offset)))]
    if op == "batch":
        return [scan.query(ScalarProductQuery(n, o)) for n, o in zip(normals, offsets)]
    pairs = [(normal, offset)] if op == "topk" else list(zip(normals, offsets))
    results = [scan.topk(ScalarProductQuery(n, o), _K) for n, o in pairs]
    return [(result.ids, result.distances) for result in results]


class TestRaisePolicy:
    def test_shard_failure_carries_identity(self):
        engine, points, _ = build_engine(failure_policy="raise")
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.query:error:shard=1"):
            with pytest.raises(ShardFailureError) as excinfo:
                engine.query(normal, offset)
        assert excinfo.value.shard == 1
        assert excinfo.value.kind == "inequality"

    def test_timeout_is_a_shard_failure(self):
        engine, points, _ = build_engine(
            failure_policy="raise", query_timeout_s=0.05
        )
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.query:stall:ms=400:shard=0:times=1"):
            with pytest.raises(QueryTimeoutError) as excinfo:
                engine.query(normal, offset)
        assert excinfo.value.shard == 0
        assert isinstance(excinfo.value, TimeoutError)


class TestDegradePolicy:
    @pytest.mark.parametrize("op", _OPS)
    def test_recovery_scan_restores_the_complete_answer(self, op):
        _flt.disarm()  # pristine baseline even under an ambient REPRO_FAULTS
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine:
            baseline = _run_op(engine, op, normal, offset)
            assert all(answer.degraded is None for answer in baseline)
            with _flt.injected("shard.query:error:shard=1"):
                answers = _run_op(engine, op, normal, offset)
            live = engine.live_ids()
        expected = _scan_oracle(points[live], live, op, normal, offset)
        assert len(answers) == len(expected) == len(baseline)
        for answer, truth, clean in zip(answers, expected, baseline):
            if op in ("topk", "batch_topk"):
                truth_ids, truth_distances = truth
                assert np.array_equal(answer.ids, truth_ids)
                assert np.array_equal(answer.distances, truth_distances)
                assert np.array_equal(answer.distances, clean.distances)
            else:
                assert np.array_equal(answer.ids, truth)
            assert np.array_equal(answer.ids, clean.ids)
            info = answer.degraded
            assert info is not None
            assert info.recovered_shards == (1,)
            assert info.failed_shards == ()
            assert info.completeness == 1.0
            assert info.is_complete

    def test_unrecoverable_shard_yields_partial_answer(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        spec = "shard.query:error:shard=1;shard.scan:error:shard=1"
        with engine:
            truth = brute_force_ids(points, ScalarProductQuery(normal, offset))
            with _flt.injected(spec):
                answer = engine.query(normal, offset)
            info = answer.degraded
            assert info is not None
            assert info.failed_shards == (1,)
            surviving = np.concatenate(
                [
                    engine._stores[s].live_ids()
                    for s in range(engine.n_shards)
                    if s != 1
                ]
            )
            sizes = engine.shard_sizes()
            expected_completeness = (sum(sizes) - sizes[1]) / sum(sizes)
        assert info.completeness == pytest.approx(expected_completeness, abs=0)
        assert not info.is_complete
        with pytest.raises(DegradedAnswerError):
            info.require_complete()
        expected_ids = np.sort(truth[np.isin(truth, surviving)])
        assert np.array_equal(answer.ids, expected_ids)

    def test_timeout_recovers_via_scan(self):
        engine, points, _ = build_engine(
            failure_policy="degrade", query_timeout_s=0.05
        )
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:stall:ms=400:shard=2:times=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None
        assert answer.degraded.recovered_shards == (2,)

    def test_all_shards_failed_raises_degraded_answer_error(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine, _flt.injected("shard.*:error"):
            with pytest.raises(DegradedAnswerError):
                engine.query(normal, offset)


class TestInlineDeadline:
    """Shards run in order on the calling thread, under the wave's deadline."""

    @staticmethod
    def _started(engine, monkeypatch) -> list[int]:
        """Record the shards whose collection starts a query."""
        started: list[int] = []
        for shard, collection in enumerate(engine.collections):
            query = collection.query

            def recorded(*args, shard=shard, query=query, **kwargs):
                started.append(shard)
                return query(*args, **kwargs)

            monkeypatch.setattr(collection, "query", recorded)
        return started

    def test_stall_raises_and_later_shards_never_start(self, monkeypatch):
        _flt.disarm()
        engine, points, _ = build_engine(failure_policy="raise", query_timeout_s=0.05)
        normal, offset = _query_args(points)
        started = self._started(engine, monkeypatch)
        with engine, _flt.injected("shard.query:stall:ms=200:shard=0:times=1"):
            with pytest.raises(QueryTimeoutError) as excinfo:
                engine.query(normal, offset)
        assert excinfo.value.shard == 0
        assert started == [0]

    def test_stall_is_recovered_under_degrade(self, monkeypatch):
        _flt.disarm()
        engine, points, _ = build_engine(failure_policy="degrade", query_timeout_s=0.05)
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            started = self._started(engine, monkeypatch)
            with _flt.injected("shard.query:stall:ms=200:shard=1:times=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        # Shard 1's slice came back late; shard 2 could not start in time.
        assert started == [0, 1]
        assert answer.degraded.recovered_shards == (1, 2)
        assert answer.degraded.completeness == 1.0


class TestOneDeadline:
    """A query call sets one deadline that every shard and retry shares."""

    def test_no_retry_starts_after_the_deadline(self):
        _flt.disarm()
        engine, points, _ = build_engine(
            failure_policy="retry_then_degrade", query_timeout_s=0.05
        )
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:stall:ms=200:shard=0") as plan:
                answer = engine.query(normal, offset)
                (rule,) = plan.stats()
        assert np.array_equal(answer.ids, baseline.ids)
        # Shard 0 came back late and shards 1-2 could not start in time:
        # all three are recovered by scans, none retried.
        assert answer.degraded.retries == 0
        assert answer.degraded.recovered_shards == (0, 1, 2)
        assert rule["fires"] == 1


class TestCallerErrorsInShardQueries:
    """A caller error raised inside a shard's query is not a shard fault."""

    @pytest.mark.parametrize("policy", ["raise", "degrade", "retry_then_degrade"])
    def test_propagates_unwrapped(self, policy, monkeypatch):
        _flt.disarm()
        engine, points, _ = build_engine(failure_policy=policy)
        normal, offset = _query_args(points)

        def rejecting(*args, **kwargs):
            raise InvalidQueryError("rejected by shard 1")

        monkeypatch.setattr(engine.collections[1], "query", rejecting)
        with engine:
            with pytest.raises(InvalidQueryError, match="rejected by shard 1") as excinfo:
                engine.query(normal, offset)
        assert not isinstance(excinfo.value, ShardFailureError)


class TestRetryThenDegrade:
    def test_transient_fault_retried_to_full_answer(self):
        engine, points, _ = build_engine(failure_policy="retry_then_degrade")
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:error:shard=0:times=1"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        info = answer.degraded
        assert info is not None and info.is_complete
        assert info.retries >= 1

    def test_persistent_fault_falls_back_to_recovery(self):
        engine, points, _ = build_engine(
            failure_policy="retry_then_degrade", max_retries=1
        )
        normal, offset = _query_args(points)
        with engine:
            baseline = engine.query(normal, offset)
            with _flt.injected("shard.query:error:shard=0"):
                answer = engine.query(normal, offset)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None
        assert answer.degraded.recovered_shards == (0,)


class TestOtherFanOuts:
    def test_batch_degrades_uniformly(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normals = np.array(
            [[2.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 2.0]]
        )
        offsets = np.round(0.4 * normals @ points.max(axis=0))
        with engine:
            baseline = engine.query_batch(normals, offsets)
            with _flt.injected("shard.query:error:shard=1:kind=batch"):
                answers = engine.query_batch(normals, offsets)
        for got, expected in zip(answers, baseline):
            assert np.array_equal(got.ids, expected.ids)
            assert got.degraded is not None
            assert got.degraded.recovered_shards == (1,)

    def test_range_recovers(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal = np.array([2.0, 1.0, 3.0, 1.0])
        maxima = float(normal @ points.max(axis=0))
        low, high = np.round(0.2 * maxima), np.round(0.6 * maxima)
        with engine:
            baseline = engine.query_range(normal, low, high)
            with _flt.injected("shard.query:error:shard=2:kind=range"):
                answer = engine.query_range(normal, low, high)
        assert np.array_equal(answer.ids, baseline.ids)
        assert answer.degraded is not None and answer.degraded.is_complete

    def test_topk_recovers_bit_identical(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        with engine:
            with _flt.injected("shard.query:error:shard=1:kind=topk"):
                result = engine.topk(normal, offset, k=10)
        spq = ScalarProductQuery(normal, offset)
        expected_ids, expected_distances = brute_force_topk(points, spq, 10)
        assert np.array_equal(result.ids, expected_ids)
        assert np.allclose(result.distances, expected_distances)
        assert result.degraded is not None
        assert result.degraded.recovered_shards == (1,)

    def test_topk_partial_when_unrecoverable(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        normal, offset = _query_args(points)
        spec = "shard.query:error:shard=0:kind=topk;shard.scan:error:shard=0"
        with engine:
            with _flt.injected(spec):
                result = engine.topk(normal, offset, k=10)
            surviving = np.concatenate(
                [engine._stores[s].live_ids() for s in (1, 2)]
            )
        spq = ScalarProductQuery(normal, offset)
        expected_ids, _ = brute_force_topk(
            points[surviving], spq, 10, ids=surviving
        )
        assert np.array_equal(result.ids, expected_ids)
        assert result.degraded is not None
        assert result.degraded.failed_shards == (0,)


class TestMaintenance:
    def test_injected_maintenance_fault_raises_not_degrades(self):
        engine, points, _ = build_engine(failure_policy="degrade")
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 40, size=(9, 4)).astype(np.float64)
        with engine, _flt.injected("shard.maintenance:error:action=insert"):
            with pytest.raises(ShardFailureError):
                engine.insert_points(rows)

    def test_maintenance_retries_under_retry_policy(self):
        engine, points, _ = build_engine(failure_policy="retry_then_degrade")
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 40, size=(9, 4)).astype(np.float64)
        with engine:
            before = len(engine)
            with _flt.injected("shard.maintenance:error:action=insert:times=1"):
                ids = engine.insert_points(rows)
            assert len(engine) == before + 9
            normal, offset = _query_args(points)
            answer = engine.query(normal, offset)
            all_points = np.vstack([points, rows])
            truth = brute_force_ids(all_points, ScalarProductQuery(normal, offset))
            assert np.array_equal(answer.ids, truth)
            assert ids.size == 9

    def test_caller_errors_pass_through_unwrapped(self):
        engine, _, _ = build_engine(failure_policy="degrade")
        with engine:
            with pytest.raises(KeyError):
                engine.delete_points(np.array([10**6]))


class TestDisarmedParity:
    def test_disarmed_answers_are_bit_identical_and_undegraded(self):
        from repro import FunctionIndex

        _flt.disarm()  # the point of this test is the disarmed path
        engine, points, model = build_engine()
        mono = FunctionIndex(points, model, n_indices=3, rng=7)
        normal, offset = _query_args(points)
        with engine:
            answer = engine.query(normal, offset)
            mono_answer = mono.query(normal, offset)
            assert answer.degraded is None
            assert np.array_equal(answer.ids, mono_answer.ids)
            result = engine.topk(normal, offset, k=7)
            mono_result = mono.topk(normal, offset, k=7)
            assert result.degraded is None
            assert np.array_equal(result.ids, mono_result.ids)
            assert np.array_equal(result.distances, mono_result.distances)
