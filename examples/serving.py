"""Serving tour: the HTTP query service end to end.

The library answers scalar-product queries in-process; ``repro.serve``
(see ``docs/serving.md``) puts them behind a network endpoint without
giving up the exactness story.  This walkthrough:

1. builds a sharded engine over integer-valued points (so every scalar
   product is exact in float64 and served answers can be compared to
   direct library calls bit-for-bit),
2. starts the service on an ephemeral port with two declared tenants —
   an unlimited interactive ``dashboard`` and a quota-limited
   best-effort ``analytics`` (token bucket: burst 5, 1 request/s),
3. drives concurrent mixed-tenant clients over keep-alive connections:
   inequality and top-k queries racing from many threads, which the
   micro-batcher coalesces into engine batch calls,
4. checks every served answer against the direct library call —
   identical ids and distances — and shows the quota sheds the
   ``analytics`` tenant earned (429 + Retry-After),
5. prints the service's own account of what happened: ``/healthz``,
   batching shape, and shed counters from ``/stats``.

Run:  python examples/serving.py
      python examples/serving.py --url http://127.0.0.1:8081   # attach
                                  # to an already-running `repro serve`
                                  # (skips the bit-identity check)
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from urllib.parse import urlparse

import numpy as np

from repro import QueryModel
from repro.parallel import ShardedFunctionIndex
from repro.serve import ServiceConfig, TenantSpec, serve_in_thread


def http_json(host: str, port: int, method: str, path: str, body=None):
    """One request on a fresh connection; returns (status, headers, json)."""
    conn = HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = raw.decode("utf-8", "replace")
        return response.status, dict(response.getheaders()), decoded
    finally:
        conn.close()


def run_client(host: str, port: int, requests: list) -> list:
    """Serially issue ``requests`` on one keep-alive connection."""
    conn = HTTPConnection(host, port, timeout=30)
    results = []
    try:
        for path, body in requests:
            conn.request("POST", path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            results.append((response.status, json.loads(response.read())))
    finally:
        conn.close()
    return results


def make_workload(model: QueryModel, maxima: np.ndarray, count: int, rng):
    """Integer-valued query parameters: exact scalar products in float64."""
    queries = []
    for _ in range(count):
        normal = rng.integers(1, 6, size=maxima.size).astype(np.float64)
        offset = float(round(0.25 * normal @ maxima))
        queries.append((normal, offset))
    return queries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="attach to a running service instead of "
                        "starting one (chaos drills)")
    args, _ = parser.parse_known_args()

    rng = np.random.default_rng(11)
    points = rng.integers(1, 30, size=(20_000, 6)).astype(np.float64)
    model = QueryModel.uniform(dim=6, low=1.0, high=5.0, rq=4)
    maxima = points.max(axis=0)
    queries = make_workload(model, maxima, 48, rng)

    engine = handle = None
    if args.url:
        parsed = urlparse(args.url)
        host, port = parsed.hostname, parsed.port
        print(f"attaching to      : {args.url}")
    else:
        engine = ShardedFunctionIndex(
            points, model, n_indices=24, rng=0, n_shards=2
        )
        config = ServiceConfig(
            batch_window_s=0.020,   # generous window: show coalescing
            batch_max=32,
            queue_depth=64,
            tenants={
                "dashboard": TenantSpec("dashboard", priority=0),
                "analytics": TenantSpec(
                    "analytics", rate=1.0, burst=5.0, priority=1
                ),
            },
        )
        handle = serve_in_thread(engine, config)
        host, port = handle.host, handle.port
        print(f"listening on      : {handle.url} (ephemeral port)")

    try:
        status, _, health = http_json(host, port, "GET", "/healthz")
        assert status == 200, health
        print(f"healthz           : {health['points']:,} points, "
              f"{health['shards']} shard(s)")

        # -- concurrent mixed-tenant load ----------------------------- #
        # 8 dashboard clients race 6 requests each (3 inequality + 3
        # top-k); the micro-batcher coalesces whatever lands in the same
        # window into one engine call per (op, comparison, k) group.
        client_jobs = []
        for client in range(8):
            jobs = []
            for i in range(3):
                normal, offset = queries[(client * 6 + i) % len(queries)]
                jobs.append(("/query", {
                    "normal": normal.tolist(), "offset": offset,
                    "op": "<=", "tenant": "dashboard",
                }))
                jobs.append(("/topk", {
                    "normal": normal.tolist(), "offset": offset,
                    "k": 10, "tenant": "dashboard",
                }))
            client_jobs.append(jobs)
        # One burst of 12 analytics requests against a bucket of 5.
        analytics_jobs = []
        for i in range(12):
            normal, offset = queries[i]
            analytics_jobs.append(("/query", {
                "normal": normal.tolist(), "offset": offset,
                "tenant": "analytics",
            }))
        client_jobs.append(analytics_jobs)

        with ThreadPoolExecutor(max_workers=len(client_jobs)) as pool:
            outcomes = list(pool.map(
                lambda jobs: run_client(host, port, jobs), client_jobs
            ))

        served_ok = sum(
            1 for results in outcomes for status, _ in results if status == 200
        )
        shed = [
            body for results in outcomes
            for status, body in results if status == 429
        ]
        print(f"served            : {served_ok} answers, {len(shed)} shed")
        if shed:
            reasons = sorted({body["reason"] for body in shed})
            print(f"shed reasons      : {', '.join(reasons)} "
                  f"(tenant {shed[0]['tenant']!r}, "
                  f"retry after {shed[0]['retry_after_s']}s)")

        # -- bit-identity against direct library calls ---------------- #
        if engine is not None:
            checked = 0
            for jobs, results in zip(client_jobs, outcomes):
                for (path, body), (status, answer) in zip(jobs, results):
                    if status != 200:
                        continue
                    normal = np.asarray(body["normal"])
                    if path == "/query":
                        direct = engine.query(normal, body["offset"],
                                              body.get("op", "<="))
                        assert answer["ids"] == direct.ids.tolist()
                    else:
                        direct = engine.topk(normal, body["offset"],
                                             k=body["k"])
                        assert answer["ids"] == direct.ids.tolist()
                        assert answer["distances"] == direct.distances.tolist()
                    checked += 1
            print(f"bit-identity      : {checked} served answers equal "
                  "direct library calls")

        status, _, stats = http_json(host, port, "GET", "/stats")
        assert status == 200
        batching = stats["batching"]
        print(f"batching          : {batching['batched_requests']} requests "
              f"in {batching['batches']} engine calls "
              f"(max batch {batching['max_batch']}, "
              f"mean {batching['mean_batch']})")
        print(f"sheds by reason   : {stats['shed']}")
        amortized = batching["max_batch"] > 1
        print(f"serving complete: {served_ok} bit-identical answers, "
              f"{len(shed)} requests shed at the front door, "
              f"coalescing {'observed' if amortized else 'idle'}")
    finally:
        if handle is not None:
            handle.stop()
        if engine is not None:
            engine.close()


if __name__ == "__main__":
    main()
