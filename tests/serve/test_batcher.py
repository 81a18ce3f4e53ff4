"""Micro-batcher edge cases: coalescing, passthrough, flush policy, errors.

Each test runs the batcher under a private event loop (``asyncio.run``)
against a real (small) engine, so the executor handoff and the
bit-identity of grouped calls are exercised for real.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, DrainTimeoutError
from repro.reliability import faults as _flt
from repro.serve import MicroBatcher, PendingRequest
from repro.serve.resilience import Deadline

from .conftest import build_engine, integer_queries


@pytest.fixture(scope="module")
def engine_and_queries():
    engine, points = build_engine(n=300, dim=3, seed=2)
    normals, offsets = integer_queries(points, m=16, seed=3)
    yield engine, normals, offsets
    engine.close()


def _request(normals, offsets, i, op="query", k=0, comparison="<="):
    return PendingRequest(
        op=op, normal=normals[i], offset=float(offsets[i]),
        comparison=comparison, k=k, tenant="t",
    )


def _run_batch(engine, requests, *, window_s, batch_max=64):
    """Start a batcher, enqueue ``requests`` concurrently, await answers."""

    async def main():
        batcher = MicroBatcher(engine, window_s=window_s, batch_max=batch_max)
        batcher.start()
        try:
            results = await asyncio.gather(
                *(batcher.enqueue(r) for r in requests),
                return_exceptions=True,
            )
        finally:
            await batcher.stop()
        return results, batcher.stats(), batcher.outstanding

    return asyncio.run(main())


class TestCoalescing:
    def test_same_tick_burst_coalesces_into_one_batch(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries
        requests = [_request(normals, offsets, i) for i in range(8)]
        results, stats, outstanding = _run_batch(
            engine, requests, window_s=0.25
        )
        assert stats["batches"] == 1
        assert stats["max_batch"] == 8
        assert outstanding == 0
        for i, (answer, _trace) in enumerate(results):
            direct = engine.query(normals[i], float(offsets[i]))
            assert np.array_equal(answer.ids, direct.ids)

    def test_batch_max_splits_the_burst(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries
        requests = [_request(normals, offsets, i) for i in range(7)]
        _results, stats, _ = _run_batch(
            engine, requests, window_s=0.25, batch_max=3
        )
        assert stats["batches"] == 3  # 3 + 3 + 1
        assert stats["max_batch"] == 3

    def test_mixed_ops_group_within_one_batch(self, engine_and_queries):
        """One batch may mix /query and /topk; groups resolve separately
        but the batch is counted once."""
        engine, normals, offsets = engine_and_queries
        requests = [
            _request(normals, offsets, 0),
            _request(normals, offsets, 1, op="topk", k=5),
            _request(normals, offsets, 2, comparison=">"),
        ]
        results, stats, _ = _run_batch(engine, requests, window_s=0.25)
        assert stats["batches"] == 1
        (ineq, _), (topk, _), (gt, _) = results
        assert np.array_equal(
            ineq.ids, engine.query(normals[0], float(offsets[0])).ids
        )
        direct_topk = engine.topk(normals[1], float(offsets[1]), k=5)
        assert np.array_equal(topk.ids, direct_topk.ids)
        assert np.array_equal(topk.distances, direct_topk.distances)
        assert np.array_equal(
            gt.ids, engine.query(normals[2], float(offsets[2]), ">").ids
        )


class TestPassthroughAndFlush:
    def test_window_zero_is_strict_passthrough(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries
        requests = [_request(normals, offsets, i) for i in range(6)]
        _results, stats, _ = _run_batch(engine, requests, window_s=0.0)
        assert stats["batches"] == 6
        assert stats["max_batch"] == 1

    def test_idle_single_request_flushes_before_the_window(
        self, engine_and_queries
    ):
        """A lone request on an idle service must not wait out the window:
        with a 5 s window the answer still arrives in well under a second."""
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=5.0, batch_max=64)
            batcher.start()
            try:
                start = time.perf_counter()
                answer, _trace = await batcher.enqueue(
                    _request(normals, offsets, 0)
                )
                elapsed = time.perf_counter() - start
            finally:
                await batcher.stop()
            return answer, elapsed

        answer, elapsed = asyncio.run(main())
        assert elapsed < 1.0
        assert np.array_equal(
            answer.ids, engine.query(normals[0], float(offsets[0])).ids
        )

    def test_empty_queue_window_dispatches_partial_batch(
        self, engine_and_queries
    ):
        """Requests arriving while a window is open join it; the window
        closes at the deadline even though batch_max was never reached."""
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=0.2, batch_max=64)
            batcher.start()
            try:
                first = asyncio.ensure_future(
                    batcher.enqueue(_request(normals, offsets, 0))
                )
                await asyncio.sleep(0.02)  # the window is now open
                second = asyncio.ensure_future(
                    batcher.enqueue(_request(normals, offsets, 1))
                )
                results = await asyncio.gather(first, second)
            finally:
                await batcher.stop()
            return results, batcher.stats()

        results, stats = asyncio.run(main())
        assert stats["batched_requests"] == 2
        for i, (answer, _trace) in enumerate(results):
            assert np.array_equal(
                answer.ids, engine.query(normals[i], float(offsets[i])).ids
            )


class TestErrorsAndLifecycle:
    def test_group_failure_fans_out_to_every_member(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries
        bad = PendingRequest(
            op="query", normal=np.ones(7), offset=1.0,
            comparison="<=", k=0, tenant="t",
        )
        results, _stats, outstanding = _run_batch(engine, [bad], window_s=0.0)
        assert isinstance(results[0], DimensionMismatchError)
        assert outstanding == 0

    def test_failed_group_does_not_poison_the_next(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=0.0, batch_max=64)
            batcher.start()
            try:
                bad = PendingRequest(
                    op="query", normal=np.ones(7), offset=1.0,
                    comparison="<=", k=0, tenant="t",
                )
                with pytest.raises(DimensionMismatchError):
                    await batcher.enqueue(bad)
                answer, _ = await batcher.enqueue(
                    _request(normals, offsets, 0)
                )
            finally:
                await batcher.stop()
            return answer

        answer = asyncio.run(main())
        assert np.array_equal(
            answer.ids, engine.query(normals[0], float(offsets[0])).ids
        )

    def test_constructor_validation(self, engine_and_queries):
        engine, _, _ = engine_and_queries
        with pytest.raises(ValueError, match="window"):
            MicroBatcher(engine, window_s=-0.1, batch_max=4)
        with pytest.raises(ValueError, match="batch_max"):
            MicroBatcher(engine, window_s=0.0, batch_max=0)

    def test_stop_drains_admitted_requests(self, engine_and_queries):
        """stop() resolves every admitted future before the loop dies."""
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=0.05, batch_max=64)
            batcher.start()
            futures = [
                asyncio.ensure_future(
                    batcher.enqueue(_request(normals, offsets, i))
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the enqueues land
            await batcher.stop()
            return await asyncio.gather(*futures)

        results = asyncio.run(main())
        assert len(results) == 4
        for i, (answer, _trace) in enumerate(results):
            assert np.array_equal(
                answer.ids, engine.query(normals[i], float(offsets[i])).ids
            )


class TestDrainBudget:
    """SIGTERM-shaped shutdown: flush what fits, fail-fast the rest."""

    def test_stop_flushes_queued_backlog_within_budget(
        self, engine_and_queries
    ):
        """Requests still queued (coalescing window open) when stop()
        lands must flush and answer normally, well inside the budget."""
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=5.0, batch_max=64)
            batcher.start()
            futures = [
                asyncio.ensure_future(
                    batcher.enqueue(_request(normals, offsets, i))
                )
                for i in range(6)
            ]
            await asyncio.sleep(0)  # enqueues land; window would run 5s
            start = time.perf_counter()
            await batcher.stop(drain_timeout_s=5.0)
            elapsed = time.perf_counter() - start
            return await asyncio.gather(*futures), elapsed

        results, elapsed = asyncio.run(main())
        assert elapsed < 2.0  # drained, did not wait out the budget
        for i, (answer, _trace) in enumerate(results):
            assert np.array_equal(
                answer.ids, engine.query(normals[i], float(offsets[i])).ids
            )

    def test_stop_fail_fasts_stuck_requests(
        self, engine_and_queries, pristine_faults
    ):
        """A request stuck behind a stalled engine call resolves with
        DrainTimeoutError when the drain budget runs out — bounded
        shutdown, never a hung future."""
        engine, normals, offsets = engine_and_queries

        async def main():
            batcher = MicroBatcher(engine, window_s=0.0, batch_max=64)
            batcher.start()
            with _flt.injected("serve.dispatch:stall:ms=700:times=2"):
                futures = [
                    asyncio.ensure_future(
                        batcher.enqueue(_request(normals, offsets, i))
                    )
                    for i in range(2)
                ]
                await asyncio.sleep(0.05)  # both are now stalled in flight
                start = time.perf_counter()
                await batcher.stop(drain_timeout_s=0.1)
                resolved_in = time.perf_counter() - start
                results = await asyncio.gather(
                    *futures, return_exceptions=True
                )
            return results, resolved_in, batcher.outstanding

        results, resolved_in, outstanding = asyncio.run(main())
        assert resolved_in < 0.6  # the 0.1s budget, not the 0.7s stall
        assert outstanding == 0
        assert all(isinstance(r, DrainTimeoutError) for r in results)
        assert "drain budget" in str(results[0])


class TestHandOff:
    """The pending list, one flush and the executor callback: no task and
    no live timer per request, and counters that keep their meaning."""

    def test_sequential_requests_leave_no_timer_or_task(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries

        async def main():
            loop = asyncio.get_running_loop()
            created = []

            def counting(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                created.append(task)
                return task

            batcher = MicroBatcher(engine, window_s=0.25, batch_max=64)
            batcher.start()
            loop.set_task_factory(counting)
            try:
                for i in range(1000):
                    request = _request(normals, offsets, i % len(offsets))
                    # A deadline arms the request's timer; the answer cancels it.
                    request.deadline = Deadline(30.0)
                    await batcher.enqueue(request)
                live_timers = [h for h in loop._scheduled if not h.cancelled()]
                held_timers = len(loop._scheduled)
                leftover = asyncio.all_tasks() - {asyncio.current_task()}
            finally:
                loop.set_task_factory(None)
                await batcher.stop()
            return created, live_timers, held_timers, leftover, batcher.stats()

        created, live_timers, held_timers, leftover, stats = asyncio.run(main())
        assert created == []
        assert live_timers == []
        # Cancelled handles are purged as they pile up, never one per request.
        assert held_timers < 250
        assert not leftover
        # A lone request on an idle batcher is a batch of one, every time.
        assert stats["batches"] == 1000
        assert stats["batched_requests"] == 1000
        assert stats["max_batch"] == 1
        assert stats["mean_batch"] == 1.0

    def test_lone_request_and_burst_counters(self, engine_and_queries):
        engine, normals, offsets = engine_and_queries
        _results, lone, _ = _run_batch(
            engine, [_request(normals, offsets, 0)], window_s=0.25
        )
        assert (lone["batches"], lone["batched_requests"], lone["max_batch"]) == (1, 1, 1)
        requests = [_request(normals, offsets, i) for i in range(5)]
        _results, burst, _ = _run_batch(engine, requests, window_s=0.25)
        assert (burst["batches"], burst["batched_requests"], burst["max_batch"]) == (1, 5, 5)
        assert burst["mean_batch"] == 5.0
