"""What the benchmark measures, and why: workloads, metrics, layer map.

This module is the single source of ``BENCHMARK.json`` (the contract the
runner is driven by) and of ``perfbench/workloads.json`` (the rationale:
each workload's parameters and the layer -> metric map).  Regenerate both
with ``python3 perfbench/run.py --write-manifest`` after editing here;
``perfbench/tests`` fails when the files drift from this module.

End-to-end metrics carry generic names because every one of them is
reported on every workload: the *primary* operation is the workload's
main read call and the *secondary* operation its other call, as listed
per workload below.
"""

from __future__ import annotations

RUN_SECONDS = 22

#: Seed of the dataset and of the index normals, the same in every run.  The
#: run's ``--seed`` drives what callers send: the query stream and the writes.
#: Index quality varies with the sampled normals (Section 5.2); fixing them
#: keeps that variation out of run-to-run spread.
DATA_SEED = 0

#: Paper workload shared by every workload (Section 7.1, Indp + Eq. 18).
PAPER = {
    "dataset": "Indp (independent uniform attributes in (1, 100)), seed DATA_SEED",
    "n": 200_000,
    "d": 6,
    "rq": 4,
    "r": 100,
    "s": 0.25,
    "op": "<=",
    "k": 10,
    "query_model": "QueryModel.uniform(dim=6, low=1, high=5, rq=4)",
    "offsets": "Eq. 18: s * sum_i a_i max(i)",
}

WORKLOADS = {
    "paper-read": {
        "why": "the paper's own experiment: one caller, FunctionIndex query/topk; "
        "loads selection, binary search, II verification and the scan route",
        "engine": "FunctionIndex(points, model, n_indices=r, rng=DATA_SEED)",
        "clients": 1,
        "loop": "closed",
        "mix": {"query": 0.9, "topk": 0.1},
        "primary": "query",
        "secondary": "topk",
        "tail_pct": 95,
        "bypasses": ["batching", "sharding", "serving", "writes"],
    },
    "served": {
        "why": "repro serve with 1 keep-alive client: the only load on accept, "
        "admission, batch linger, dispatch and JSON encode",
        "engine": "repro serve --n n --dim d --indices r --shards 2 --workers 2 "
        "--seed DATA_SEED (default ServiceConfig, no REPRO_SERVE_* set)",
        "clients": 1,
        "loop": "closed",
        "mix": {"http_query": 0.9, "http_topk": 0.1},
        "primary": "http_query",
        "secondary": "http_topk",
        "tail_pct": 95,
        "bypasses": ["writes"],
        "also": "the load on query_batch/topk_batch (GEMM verification, "
        "scan_values_many) and on the 2-shard thread fan-out and merge",
    },
    "read-write": {
        "why": "16 queries per write on a FunctionIndex: the only load on index "
        "maintenance and the only one whose read caches are invalidated",
        "engine": "FunctionIndex(points, model, n_indices=r, rng=DATA_SEED)",
        "clients": 1,
        "loop": "closed",
        "queries_per_write": 16,
        "writes": ["insert_points(64)", "update_points(32)", "delete_points(64)"],
        "mix": {"query": 16 / 17, "write": 1 / 17},
        "primary": "query",
        "secondary": "write",
        "tail_pct": 95,
        "bypasses": ["topk", "batching", "sharding", "serving"],
    },
}

#: Each latency is divided by that of a plain numpy sequential scan of the
#: same query, timed right after the op on the same thread (the scan for a
#: write answers the query before it), and the ratios are summarised.  Other
#: tenants of the host slow a fixed workload by up to 2x for minutes at a
#: time; they slow the scan alike, so the ratio keeps what the program costs.
#: Raw milliseconds are in the readable report.  Closed-loop throughput is not
#: a metric: with one caller it is the inverse of the mean latency, and it
#: cannot be paired with a scan.
#:
#: (name, unit, better, bound, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 3 set-ups in one run: index build (in-process) or spawn until "
     "the ready-file appears (served)"),
    ("primary_p50_vs_scan", "ratio", "lower", 0.25,
     "median over primary calls (query; HTTP /query as the client sees it) of "
     "latency / reference scan"),
    ("primary_tail_vs_scan", "ratio", "lower", 0.25,
     "the same ratio at the workload's tail_pct (p95), which has hundreds of "
     "samples beyond it; the report gives the highest supported percentile in ms"),
    ("secondary_p50_vs_scan", "ratio", "lower", 0.25,
     "median over secondary calls (topk; HTTP /topk; one write) of "
     "latency / reference scan"),
    ("index_mb", "MB", "lower", 0.05,
     "memory_bytes() of the index after set-up and warm-up, in 1e6 bytes"),
]

# --------------------------------------------------------------------------- #
# Per-layer metrics of the traced run.
#
# Time metrics are per top-level op of the traced window (an HTTP request is
# one op), except the maintenance layer, which is per write.  ``.ms`` is inclusive time, ``.self_ms`` excludes child spans.
# Spans on shard pool threads are summed, so parallel layers report work, not
# wall time.  Every metric is printed on every workload; it reads 0 where the
# workload does not exercise the layer.
# --------------------------------------------------------------------------- #

#: layer -> (public calls timed, metrics, should move, ~0 on)
LAYERS = {
    "core.function_index": {
        "calls": ["FunctionIndex.query", "FunctionIndex.topk",
                  "FunctionIndex.insert_points", "FunctionIndex.update_points",
                  "FunctionIndex.delete_points"],
        "metrics": ["core.function_index.query.self_ms",
                    "core.function_index.topk.self_ms",
                    "core.function_index.write.self_ms"],
        "moves": "primary_p50_vs_scan on paper-read",
        "zero_on": ["served"],
    },
    "core.collection": {
        "calls": ["PlanarIndexCollection.working_query", "PlanarIndexCollection.query",
                  "PlanarIndexCollection._select_position (behind select and query)",
                  "PlanarIndexCollection.topk"],
        "metrics": ["core.collection.working_query.ms", "core.collection.query.self_ms",
                    "core.collection.select.ms", "core.collection.scan_route_frac"],
        "moves": "primary_p50_vs_scan on paper-read",
        "zero_on": ["served (working_query/select still run inside query_batch)"],
    },
    "core.planar": {
        "calls": ["PlanarIndex.interval_ranks", "PlanarIndex.finish_query",
                  "PlanarIndex.topk"],
        "metrics": ["core.planar.interval_ranks.ms", "core.planar.finish_query.self_ms",
                    "core.planar.rows_verified_per_op", "core.planar.useful_ratio",
                    "core.planar.pruned_frac", "core.planar.topk.ms",
                    "core.planar.topk.checked_frac"],
        "moves": "primary_p50_vs_scan, primary_tail_vs_scan, secondary_p50_vs_scan on paper-read",
        "zero_on": ["served (topk_batch bypasses PlanarIndex.topk)", "writes in read-write"],
    },
    "core.feature_store": {
        "calls": ["FeatureStore.take_rows", "FeatureStore.scan_values",
                  "FeatureStore.scan_values_many", "FeatureStoreView.scan_values",
                  "FeatureStoreView.scan_values_many", "FeatureStore.append",
                  "FeatureStore.update", "FeatureStore.delete"],
        "metrics": ["core.feature_store.take_rows.ms",
                    "core.feature_store.take_rows.rows_per_op",
                    "core.feature_store.scan_values.ms",
                    "core.feature_store.scan_values_many.ms",
                    "core.feature_store.append.ms", "core.feature_store.update.ms",
                    "core.feature_store.delete.ms"],
        "moves": "primary_tail_vs_scan on paper-read (large-II tail and scan route); "
        "primary_p50_vs_scan on served (scan_values_many); secondary_p50_vs_scan (write) on "
        "read-write",
        "zero_on": ["served (writes)"],
    },
    "core.collection batch": {
        "calls": ["PlanarIndexCollection.query_batch", "PlanarIndexCollection.topk_batch"],
        "metrics": ["core.collection.query_batch.ms", "core.collection.query_batch.self_ms",
                    "core.collection.topk_batch.ms"],
        "moves": "primary_p50_vs_scan, secondary_p50_vs_scan on served",
        "zero_on": ["paper-read", "read-write"],
    },
    "parallel.engine": {
        "calls": ["ShardedFunctionIndex.query_batch", "ShardedFunctionIndex.topk_batch"],
        "metrics": ["parallel.engine.query_batch.ms", "parallel.engine.topk_batch.ms",
                    "parallel.engine.overhead_ms", "parallel.engine.shard_imbalance"],
        "moves": "primary_p50_vs_scan on served",
        "zero_on": ["paper-read", "read-write"],
    },
    "serve.http": {
        "calls": ["repro.serve.service.read_request", "repro.serve.service.render_response"],
        "metrics": ["serve.http.read_request.ms", "serve.http.render_response.ms"],
        "moves": "primary_p50_vs_scan on served",
        "zero_on": ["paper-read", "read-write"],
    },
    "serve.admission / serve.batcher": {
        "calls": ["AdmissionController.admit", "MicroBatcher.enqueue"],
        "metrics": ["serve.admission.admit.ms", "serve.batcher.enqueue.ms",
                    "serve.batcher.wait_ms", "serve.batcher.mean_batch",
                    "serve.transport_ms"],
        "moves": "primary_p50_vs_scan on served",
        "zero_on": ["paper-read", "read-write"],
    },
    "maintenance": {
        "calls": ["PlanarIndexCollection.insert", "PlanarIndexCollection.rekey",
                  "PlanarIndexCollection.delete", "SortedKeyStore.insert",
                  "SortedKeyStore.delete", "SortedKeyStore.update_batch",
                  "Translator.observe (during writes)"],
        "metrics": ["core.collection.insert.ms", "core.collection.rekey.ms",
                    "core.collection.delete.ms", "core.sorted_keys.insert.ms",
                    "core.sorted_keys.delete.ms", "core.sorted_keys.update_batch.ms",
                    "geometry.translation.observe.ms"],
        "moves": "secondary_p50_vs_scan (write) on read-write",
        "zero_on": ["paper-read", "served"],
    },
    "setup": {
        "calls": ["PlanarIndexCollection.__init__ (behind from_model and the sharded "
                  "engine)", "FeatureMap.__call__", "Translator.observe (during set-up)"],
        "metrics": ["core.collection.build.s", "setup.feature_map.s", "setup.translator.s"],
        "moves": "setup_s on all",
        "zero_on": [],
    },
    "trace bookkeeping": {
        "calls": [],
        "metrics": ["trace.overhead_ratio", "trace.layer_sum_ratio",
                    "trace.missing_targets", "failed_frac",
                    "oracle.topk_inexact_frac"],
        "moves": "nothing: checks on the traced run and the oracle",
        "zero_on": [],
    },
}

#: (name, unit, better)
PER_LAYER = [
    ("core.function_index.query.self_ms", "ms", "lower"),
    ("core.function_index.topk.self_ms", "ms", "lower"),
    ("core.function_index.write.self_ms", "ms", "lower"),
    ("core.collection.working_query.ms", "ms", "lower"),
    ("core.collection.query.self_ms", "ms", "lower"),
    ("core.collection.select.ms", "ms", "lower"),
    ("core.collection.scan_route_frac", "ratio", "lower"),
    ("core.planar.interval_ranks.ms", "ms", "lower"),
    ("core.planar.finish_query.self_ms", "ms", "lower"),
    ("core.planar.rows_verified_per_op", "rows", "lower"),
    ("core.planar.useful_ratio", "ratio", "higher"),
    ("core.planar.pruned_frac", "ratio", "higher"),
    ("core.planar.topk.ms", "ms", "lower"),
    ("core.planar.topk.checked_frac", "ratio", "lower"),
    ("core.feature_store.take_rows.ms", "ms", "lower"),
    ("core.feature_store.take_rows.rows_per_op", "rows", "lower"),
    ("core.feature_store.scan_values.ms", "ms", "lower"),
    ("core.feature_store.scan_values_many.ms", "ms", "lower"),
    ("core.feature_store.append.ms", "ms", "lower"),
    ("core.feature_store.update.ms", "ms", "lower"),
    ("core.feature_store.delete.ms", "ms", "lower"),
    ("core.collection.query_batch.ms", "ms", "lower"),
    ("core.collection.query_batch.self_ms", "ms", "lower"),
    ("core.collection.topk_batch.ms", "ms", "lower"),
    ("parallel.engine.query_batch.ms", "ms", "lower"),
    ("parallel.engine.topk_batch.ms", "ms", "lower"),
    ("parallel.engine.overhead_ms", "ms", "lower"),
    ("parallel.engine.shard_imbalance", "ratio", "lower"),
    ("serve.http.read_request.ms", "ms", "lower"),
    ("serve.http.render_response.ms", "ms", "lower"),
    ("serve.admission.admit.ms", "ms", "lower"),
    ("serve.batcher.enqueue.ms", "ms", "lower"),
    ("serve.batcher.wait_ms", "ms", "lower"),
    ("serve.batcher.mean_batch", "count", "higher"),
    ("serve.transport_ms", "ms", "lower"),
    ("core.collection.insert.ms", "ms", "lower"),
    ("core.collection.rekey.ms", "ms", "lower"),
    ("core.collection.delete.ms", "ms", "lower"),
    ("core.sorted_keys.insert.ms", "ms", "lower"),
    ("core.sorted_keys.delete.ms", "ms", "lower"),
    ("core.sorted_keys.update_batch.ms", "ms", "lower"),
    ("geometry.translation.observe.ms", "ms", "lower"),
    ("core.collection.build.s", "s", "lower"),
    ("setup.feature_map.s", "s", "lower"),
    ("setup.translator.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layer_sum_ratio", "ratio", "higher"),
    ("trace.missing_targets", "count", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("oracle.topk_inexact_frac", "ratio", "lower"),
]

#: Layer self times must cover this share of the traced end-to-end time.
LAYER_SUM_TOLERANCE = 0.05

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document (exactly the contract's keys)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def rationale() -> dict:
    """The ``perfbench/workloads.json`` document: parameters and layer map."""
    return {
        "paper_workload": PAPER,
        "data_seed": DATA_SEED,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "bound": bound, "meaning": meaning}
            for name, unit, _better, bound, meaning in END_TO_END
        ],
        "layers": LAYERS,
        "layer_sum_tolerance": LAYER_SUM_TOLERANCE,
        "normalization": "per-layer times are per top-level op of the traced "
        "window (maintenance: per write); shard-thread spans are summed",
    }
