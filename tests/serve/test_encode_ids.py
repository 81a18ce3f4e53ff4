"""Bulk id encoding: the bytes ``json.dumps`` writes for the same list.

:func:`repro.serve.http.encode_ids` writes an answer's id array without
one Python int per id; a response body must not change by a byte.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServiceConfig, serve_in_thread
from repro.serve.http import encode_ids, render_response

from .conftest import build_engine, http_json, integer_queries


def _dumped(values) -> bytes:
    return json.dumps(np.asarray(values).tolist()).encode("ascii")


class TestEncodeIds:
    def test_empty_and_zero(self):
        for ids in (np.empty(0, dtype=np.int64), np.array([0], dtype=np.int64)):
            assert encode_ids(ids) == _dumped(ids)

    def test_every_digit_width_boundary(self):
        edges = {0, 1} | {10**j + step for j in range(1, 19) for step in (-1, 0)}
        ids = np.array(sorted(edges), dtype=np.int64)
        assert encode_ids(ids) == _dumped(ids)
        for value in ids:
            assert encode_ids(value[None]) == _dumped([value])

    def test_uint32_maximum(self):
        for dtype in (np.int64, np.uint32):
            ids = np.array([0, 7, 2**32 - 1], dtype=dtype)
            assert encode_ids(ids) == _dumped(ids)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**32), max_size=400),
        high=st.sampled_from([10, 10**4, 2**32, 2**63 - 1]),
    )
    def test_random_sorted_arrays(self, values, high):
        ids = np.sort(np.asarray(values, dtype=np.int64) % high)
        assert encode_ids(ids) == _dumped(ids)

    def test_other_arrays_take_json_dumps(self):
        rng = np.random.default_rng(0)
        unordered = rng.integers(0, 10**9, size=2000) // 10 ** rng.integers(0, 9, size=2000)
        for ids in (
            np.array([3, -1, 40]),
            np.array([0.5, 2.0]),
            np.array([2**64 - 1], dtype=np.uint64),
            unordered,
        ):
            assert encode_ids(ids) == _dumped(ids)

    def test_response_bytes_are_unchanged(self):
        ids = np.sort(np.random.default_rng(1).choice(200_000, 4_500, replace=False))
        body = {"ids": ids, "count": int(ids.size), "degraded": None, "trace_id": "ab"}
        as_list = {**body, "ids": ids.tolist()}
        assert render_response(200, body) == render_response(200, as_list)


def test_query_body_parses_to_the_engine_ids():
    engine, points = build_engine(n=3000, dim=4, seed=2)
    normals, offsets = integer_queries(points, m=4, seed=3, scale=0.6)
    handle = serve_in_thread(engine, ServiceConfig(batch_window_s=0.001))
    try:
        for normal, offset in zip(normals, offsets):
            request = {"normal": normal.tolist(), "offset": float(offset)}
            status, _, body = http_json(handle.host, handle.port, "POST", "/query", request)
            assert status == 200
            expected = engine.query(normal, float(offset)).ids
            assert body["ids"] == expected.tolist() and body["count"] == expected.size
            status, _, body = http_json(
                handle.host, handle.port, "POST", "/topk", {**request, "k": 5}
            )
            assert status == 200
            assert body["ids"] == engine.topk(normal, float(offset), 5).ids.tolist()
    finally:
        handle.stop()
        engine.close()
