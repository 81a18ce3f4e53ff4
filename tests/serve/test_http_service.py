"""Endpoint contract of the HTTP query service.

Each class boots a real service (daemon-thread event loop, ephemeral
port) over a small integer-valued engine and speaks actual HTTP to it,
so status codes, JSON shapes, keep-alive, shedding, and degraded-answer
passthrough are all verified on the wire.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.reliability import faults as _flt
from repro.serve import ServiceConfig, TenantSpec, serve_in_thread

from .conftest import build_engine, http_json, integer_queries


@pytest.fixture(scope="module")
def served():
    """One engine + service shared by the read-mostly endpoint tests."""
    engine, points = build_engine(n=400, dim=4, seed=0)
    normals, offsets = integer_queries(points, m=8, seed=1)
    config = ServiceConfig(batch_window_s=0.002, batch_max=16, queue_depth=64)
    handle = serve_in_thread(engine, config)
    yield engine, handle, normals, offsets
    handle.stop()
    engine.close()


def _query_body(normals, offsets, i, **extra):
    body = {"normal": normals[i].tolist(), "offset": float(offsets[i])}
    body.update(extra)
    return body


class TestQueryEndpoints:
    def test_query_matches_direct_call(self, served):
        engine, handle, normals, offsets = served
        for op in ("<=", "<", ">=", ">"):
            status, _, body = http_json(
                handle.host, handle.port, "POST", "/query",
                _query_body(normals, offsets, 0, op=op),
            )
            assert status == 200
            direct = engine.query(normals[0], float(offsets[0]), op)
            assert body["ids"] == direct.ids.tolist()
            assert body["count"] == int(direct.ids.size)
            assert body["used_fallback"] == bool(direct.used_fallback)

    def test_topk_matches_direct_call(self, served):
        engine, handle, normals, offsets = served
        status, _, body = http_json(
            handle.host, handle.port, "POST", "/topk",
            _query_body(normals, offsets, 1, k=7),
        )
        assert status == 200
        direct = engine.topk(normals[1], float(offsets[1]), k=7)
        assert body["ids"] == direct.ids.tolist()
        assert body["distances"] == direct.distances.tolist()
        assert body["n_checked"] == int(direct.n_checked)

    def test_keep_alive_serves_multiple_requests(self, served):
        engine, handle, normals, offsets = served
        conn = HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            for i in range(3):
                conn.request(
                    "POST", "/query",
                    body=json.dumps(_query_body(normals, offsets, i)),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                direct = engine.query(normals[i], float(offsets[i]))
                assert payload["ids"] == direct.ids.tolist()
        finally:
            conn.close()


class TestValidation:
    @pytest.mark.parametrize(
        "body,needle",
        [
            ({"offset": 1.0}, "'normal'"),
            ({"normal": [], "offset": 1.0}, "'normal'"),
            ({"normal": ["x", "y"], "offset": 1.0}, "not numeric"),
            ({"normal": [1.0, 2.0], "offset": 1.0}, "dimension"),
            ({"normal": [1.0, 1.0, 1.0, 1.0]}, "'offset'"),
            (
                {"normal": [1.0, 1.0, 1.0, 1.0], "offset": 1.0, "op": "=="},
                "'op'",
            ),
            (
                {"normal": [1.0, 1.0, 1.0, 1.0], "offset": 1.0, "tenant": ""},
                "'tenant'",
            ),
        ],
    )
    def test_bad_query_bodies_answer_400(self, served, body, needle):
        _, handle, _, _ = served
        status, _, payload = http_json(
            handle.host, handle.port, "POST", "/query", body
        )
        assert status == 400
        assert needle in payload["detail"]

    @pytest.mark.parametrize("bad_k", [None, 0, -1, 2.5, True, "3"])
    def test_topk_requires_positive_integer_k(self, served, bad_k):
        _, handle, normals, offsets = served
        body = _query_body(normals, offsets, 0)
        if bad_k is not None:
            body["k"] = bad_k
        status, _, payload = http_json(
            handle.host, handle.port, "POST", "/topk", body
        )
        assert status == 400
        assert "'k'" in payload["detail"]

    def test_malformed_json_answers_400(self, served):
        _, handle, _, _ = served
        conn = HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            conn.request(
                "POST", "/query", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_unknown_path_404_wrong_method_405(self, served):
        _, handle, _, _ = served
        status, _, _ = http_json(handle.host, handle.port, "GET", "/nope")
        assert status == 404
        status, _, _ = http_json(handle.host, handle.port, "GET", "/query")
        assert status == 405
        status, _, _ = http_json(handle.host, handle.port, "POST", "/healthz")
        assert status == 405


class TestReadEndpoints:
    def test_healthz_reports_engine_shape(self, served):
        engine, handle, _, _ = served
        status, _, body = http_json(handle.host, handle.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "healthy"
        assert body["phase"] == "running"
        assert body["points"] == len(engine)
        assert body["shards"] == engine.n_shards
        assert body["breakers"]["open"] == 0

    def test_metrics_exposes_serve_families(self, served):
        _, handle, normals, offsets = served
        http_json(
            handle.host, handle.port, "POST", "/query",
            _query_body(normals, offsets, 0),
        )
        status, headers, text = http_json(
            handle.host, handle.port, "GET", "/metrics"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_requests_total" in text
        assert "repro_serve_batch_size" in text

    def test_slo_returns_objectives(self, served):
        _, handle, _, _ = served
        status, _, body = http_json(handle.host, handle.port, "GET", "/slo")
        assert status == 200
        assert isinstance(body["objectives"], list)

    def test_stats_counts_requests(self, served):
        _, handle, normals, offsets = served
        before = http_json(handle.host, handle.port, "GET", "/stats")[2]
        http_json(
            handle.host, handle.port, "POST", "/query",
            _query_body(normals, offsets, 0),
        )
        after = http_json(handle.host, handle.port, "GET", "/stats")[2]
        assert after["requests"] > before["requests"]
        assert set(after["shed"]) == {
            "quota", "queue_full", "brownout", "breaker", "draining", "fault",
        }
        assert "mean_batch" in after["batching"]


class TestShedding:
    def test_quota_shed_answers_429_with_retry_after(self):
        engine, points = build_engine(n=200, dim=3, seed=4)
        normals, offsets = integer_queries(points, m=2, seed=5)
        config = ServiceConfig(
            batch_window_s=0.0,
            tenants={"slow": TenantSpec("slow", rate=0.001, burst=1.0)},
        )
        handle = serve_in_thread(engine, config)
        try:
            body = _query_body(normals, offsets, 0, tenant="slow")
            first = http_json(handle.host, handle.port, "POST", "/query", body)
            assert first[0] == 200
            status, headers, payload = http_json(
                handle.host, handle.port, "POST", "/query", body
            )
            assert status == 429
            assert payload["error"] == "shed"
            assert payload["reason"] == "quota"
            assert payload["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
            stats = http_json(handle.host, handle.port, "GET", "/stats")[2]
            assert stats["shed"]["quota"] == 1
        finally:
            handle.stop()
            engine.close()

    def test_brownout_sheds_best_effort_not_interactive(self):
        engine, points = build_engine(n=200, dim=3, seed=6)
        normals, offsets = integer_queries(points, m=2, seed=7)
        config = ServiceConfig(
            batch_window_s=0.0,
            queue_depth=10,
            brownout_fraction=0.5,
            tenants={
                "vip": TenantSpec("vip", priority=0),
                "batch": TenantSpec("batch", priority=1),
            },
        )
        handle = serve_in_thread(engine, config)
        try:
            # Simulate a deep backlog: the admission check reads the
            # batcher's live outstanding counter.
            batcher = handle.service._batcher
            batcher._outstanding += 7
            try:
                status, _, payload = http_json(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0, tenant="batch"),
                )
                assert status == 429
                assert payload["reason"] == "brownout"
                status, _, payload = http_json(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0, tenant="vip"),
                )
                assert status == 200
            finally:
                batcher._outstanding -= 7
        finally:
            handle.stop()
            engine.close()

    def test_queue_full_sheds_everyone(self):
        engine, points = build_engine(n=200, dim=3, seed=8)
        normals, offsets = integer_queries(points, m=1, seed=9)
        config = ServiceConfig(batch_window_s=0.0, queue_depth=4)
        handle = serve_in_thread(engine, config)
        try:
            batcher = handle.service._batcher
            batcher._outstanding += 4
            try:
                status, _, payload = http_json(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0),
                )
                assert status == 429
                assert payload["reason"] == "queue_full"
            finally:
                batcher._outstanding -= 4
        finally:
            handle.stop()
            engine.close()


class TestDegradedPassthrough:
    def test_degraded_info_passes_through_verbatim(self, pristine_faults):
        """An unrecoverable shard under the ``degrade`` policy yields the
        same partial ids AND the exact ``DegradedInfo`` dict a direct
        library call reports — completeness is never rounded up."""
        engine, points = build_engine(
            n=300, dim=3, seed=10, failure_policy="degrade"
        )
        normals, offsets = integer_queries(points, m=1, seed=11)
        config = ServiceConfig(batch_window_s=0.0)
        handle = serve_in_thread(engine, config)
        spec = "shard.query:error:shard=1;shard.scan:error:shard=1"
        try:
            with _flt.injected(spec):
                status, _, body = http_json(
                    handle.host, handle.port, "POST", "/query",
                    _query_body(normals, offsets, 0),
                )
                # The service dispatches through query_batch, so the
                # direct reference must too (the degraded cause string
                # names the call kind).
                direct = engine.query_batch(normals[:1], offsets[:1])[0]
            assert status == 200
            assert direct.degraded is not None
            assert not direct.degraded.is_complete
            assert body["degraded"] == direct.degraded.to_dict()
            assert body["ids"] == direct.ids.tolist()
        finally:
            handle.stop()
            engine.close()
