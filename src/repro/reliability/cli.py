"""CLI for chaos testing: ``python -m repro chaos``.

Runs a deterministic query workload against a sharded index while a fault
plan (``--faults`` or ``$REPRO_FAULTS``) injects shard errors, stalls, and
torn writes, then prints a survival report:

* per-query outcomes — complete, recovered (retried/rescanned back to a
  complete answer), degraded (partial answer with a completeness
  fraction), raised (query failed under the active policy);
* per-rule fault-plan counters (checks vs fires);
* with ``--verify``, every answer is checked against the ground-truth
  sequential evaluation: complete answers must match exactly, degraded
  answers must be correct subsets whose size is consistent with the
  reported completeness.  Verification failures exit nonzero.

The index is rebuilt deterministically from ``--n/--dim/--rq/--indices/
--seed`` (the same recipe as ``repro tune``), so a chaos run is
reproducible end to end: same plan seed, same workload, same outcome
counts.  See ``docs/reliability.md`` for the fault-spec grammar and the
failure-policy semantics.

``--serve`` runs the same workload *through the live HTTP service*
instead of direct engine calls: a :func:`~repro.serve.service
.serve_in_thread` stack comes up with the fault plan armed (including
the serving layer's own ``serve.accept`` / ``serve.dispatch`` /
``serve.flush`` sites), every ``200`` response is verified exact or a
truthful ``DegradedInfo`` subset against the sequential ground truth,
and every non-200 must be an explicit ``429``/``503``/``504`` — any
silent truncation or unexplained status exits nonzero.  ``--deadline-ms``
stamps each request's ``X-Repro-Deadline-Ms`` header to exercise the
end-to-end deadline path under stalls.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence, TextIO

import numpy as np

from ..exceptions import (
    DegradedAnswerError,
    FaultSpecError,
    ReproError,
    ShardFailureError,
)
from . import faults as _flt

__all__ = ["configure_parser", "build_parser", "run_from_args", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the chaos options to ``parser`` (shared with ``repro.cli``)."""
    parser.add_argument(
        "--faults",
        type=str,
        default=None,
        help="fault plan spec, e.g. 'shard.query:error:p=0.3' "
        "(default: $REPRO_FAULTS)",
    )
    parser.add_argument(
        "--faults-seed",
        type=int,
        default=0,
        help="seed for probabilistic fault rules (default: 0)",
    )
    parser.add_argument(
        "--policy",
        type=str,
        choices=["raise", "degrade", "retry-then-degrade", "retry_then_degrade"],
        default="retry_then_degrade",
        help="shard failure policy for the engine (default: retry_then_degrade)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-shard query deadline in seconds (default: none)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry attempts per failed shard under retry_then_degrade",
    )
    parser.add_argument(
        "--queries", type=int, default=50, help="number of workload queries"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check every answer against the sequential ground truth",
    )
    parser.add_argument("--n", type=int, default=10_000, help="dataset size")
    parser.add_argument("--dim", type=int, default=6, help="dimensionality")
    parser.add_argument("--rq", type=int, default=4, help="randomness of query")
    parser.add_argument("--indices", type=int, default=8, help="index budget r")
    parser.add_argument("--shards", type=int, default=4, help="shard count")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--serve",
        action="store_true",
        help="drive the workload through a live HTTP service instead of "
        "direct engine calls; every response is verified exact, truthfully "
        "degraded, or an explicit 429/503/504",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="with --serve: X-Repro-Deadline-Ms header for every request "
        "(default: the service default)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Standalone ``repro chaos`` parser (the main CLI nests the same flags)."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="run a query workload under fault injection and report "
        "survival statistics",
    )
    configure_parser(parser)
    return parser


def _build_engine(args: argparse.Namespace):
    """Deterministic sharded index + workload, mirroring ``repro tune``."""
    from ..core.domains import QueryModel
    from ..datasets import independent
    from ..datasets.workloads import eq18_offset, skewed_normals
    from ..parallel.engine import ShardedFunctionIndex

    points = independent(args.n, args.dim, rng=args.seed).points
    model = QueryModel.uniform(dim=args.dim, low=1.0, high=5.0, rq=args.rq)
    engine = ShardedFunctionIndex(
        points,
        model,
        n_indices=args.indices,
        rng=args.seed,
        n_shards=args.shards,
        failure_policy=args.policy.replace("-", "_"),
        query_timeout_s=args.timeout,
        max_retries=args.max_retries,
    )
    maxima = points.max(axis=0)
    normals = skewed_normals(model, args.queries, 0.0, rng=args.seed)
    offsets = np.array([eq18_offset(n, maxima, 0.25) for n in normals])
    return engine, points, normals, offsets


def _verify_answer(answer, query, points) -> str | None:
    """Ground-truth check of one (possibly degraded) answer.

    Returns an error description, or ``None`` when the answer is sound.
    """
    truth = np.nonzero(query.evaluate(points))[0].astype(np.int64)
    got = np.asarray(answer.ids, dtype=np.int64)
    info = answer.degraded
    if info is None or info.is_complete:
        if not np.array_equal(np.sort(got), truth):
            return (
                f"complete answer mismatch: got {got.size} ids, "
                f"expected {truth.size}"
            )
        return None
    if not np.isin(got, truth).all():
        false_pos = got[~np.isin(got, truth)]
        return f"degraded answer contains wrong ids: {false_pos[:5].tolist()}"
    if not 0.0 <= info.completeness <= 1.0:
        return f"completeness out of range: {info.completeness!r}"
    return None


def _post_json(
    host: str, port: int, path: str, body: dict, headers: dict
) -> tuple[int, dict]:
    """POST ``body`` to the live service; returns ``(status, payload)``."""
    import http.client
    import json

    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST",
            path,
            json.dumps(body),
            {"Content-Type": "application/json", **headers},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _verify_served(payload: dict, spq, k: int, points, scan) -> str | None:
    """Ground-truth check of one 200 response from the live service.

    Complete answers (no ``degraded`` block, or a recovered one) must
    match the sequential scan exactly; degraded answers must be truthful
    subsets with an in-range completeness — the acceptance bar: partial
    answers are never disguised as complete ones.
    """
    info = payload.get("degraded")
    complete = info is None or (
        not info.get("failed_shards") and info.get("completeness", 0.0) >= 1.0
    )
    got = np.asarray(payload["ids"], dtype=np.int64)
    if not complete and not 0.0 <= float(info["completeness"]) <= 1.0:
        return f"completeness out of range: {info['completeness']!r}"
    if k:
        if complete:
            truth = scan.topk(spq, k)
            if payload["ids"] != truth.ids.tolist():
                return "complete top-k ids mismatch vs sequential scan"
            if not np.allclose(payload["distances"], truth.distances):
                return "complete top-k distances mismatch vs sequential scan"
            return None
        if got.size > k:
            return f"degraded top-k returned {got.size} ids for k={k}"
        if got.size and (got.min() < 0 or got.max() >= len(points)):
            return "degraded top-k contains unknown ids"
        return None
    truth = np.nonzero(spq.evaluate(points))[0].astype(np.int64)
    if complete:
        if not np.array_equal(np.sort(got), truth):
            return (
                f"complete answer mismatch: got {got.size} ids, "
                f"expected {truth.size}"
            )
        return None
    if got.size and not np.isin(got, truth).all():
        false_pos = got[~np.isin(got, truth)]
        return f"degraded answer contains wrong ids: {false_pos[:5].tolist()}"
    return None


def _cmd_serve(args: argparse.Namespace, stream: TextIO) -> int:
    """Drive the chaos workload through a live HTTP service and verify it."""
    from ..core.query import ScalarProductQuery
    from ..scan.baseline import SequentialScan
    from ..serve.config import ServiceConfig
    from ..serve.service import serve_in_thread

    spec = args.faults if args.faults is not None else os.environ.get("REPRO_FAULTS", "")
    engine, points, normals, offsets = _build_engine(args)
    scan = SequentialScan(points)
    headers: dict = {}
    if args.deadline_ms is not None:
        headers["X-Repro-Deadline-Ms"] = f"{args.deadline_ms:g}"
    context = (
        _flt.injected(spec, seed=args.faults_seed)
        if spec.strip()
        else contextlib.nullcontext(_flt.active_plan())
    )
    counts = {
        "exact": 0,
        "degraded": 0,
        "shed_429": 0,
        "shed_503": 0,
        "deadline_504": 0,
    }
    problems: list[str] = []
    k = 10
    with engine, context as plan:
        handle = serve_in_thread(engine, ServiceConfig.from_env())
        try:
            for qid, (normal, offset) in enumerate(zip(normals, offsets)):
                op_is_topk = qid % 2 == 1
                body = {"normal": normal.tolist(), "offset": float(offset)}
                if op_is_topk:
                    body["k"] = k
                status, payload = _post_json(
                    handle.host,
                    handle.port,
                    "/topk" if op_is_topk else "/query",
                    body,
                    headers,
                )
                if status == 200:
                    spq = ScalarProductQuery(normal, float(offset))
                    issue = _verify_served(
                        payload, spq, k if op_is_topk else 0, points, scan
                    )
                    if issue is not None:
                        problems.append(f"request {qid}: {issue}")
                    elif payload.get("degraded") is not None and not payload[
                        "degraded"
                    ].get("completeness", 0.0) >= 1.0:
                        counts["degraded"] += 1
                    else:
                        counts["exact"] += 1
                elif status == 429:
                    counts["shed_429"] += 1
                elif status == 503:
                    counts["shed_503"] += 1
                elif status == 504:
                    counts["deadline_504"] += 1
                    if "budget_ms" not in payload or "elapsed_ms" not in payload:
                        problems.append(
                            f"request {qid}: 504 without a budget breakdown"
                        )
                else:
                    problems.append(
                        f"request {qid}: unexpected status {status}: {payload!r}"
                    )
            service_stats = handle.service.stats()
        finally:
            handle.stop()
        fault_stats = plan.stats() if plan is not None else []
        fired = plan.fired_total() if plan is not None else 0

    print(
        f"chaos --serve: {len(offsets)} HTTP requests over {args.shards} shards, "
        f"policy={args.policy.replace('-', '_')}",
        file=stream,
    )
    print(
        f"  exact={counts['exact']}  degraded={counts['degraded']}"
        f"  shed_429={counts['shed_429']}  shed_503={counts['shed_503']}"
        f"  deadline_504={counts['deadline_504']}",
        file=stream,
    )
    breakers = service_stats.get("breakers", {})
    print(
        f"  breakers: open={breakers.get('open', 0)} "
        f"half_open={breakers.get('half_open', 0)} "
        f"tripped={breakers.get('tripped', [])}",
        file=stream,
    )
    if fault_stats:
        print(f"  faults fired: {fired}", file=stream)
        for row in fault_stats:
            print(
                f"    {row['site']}:{row['kind']} — "
                f"{row['fires']}/{row['checks']} checks fired",
                file=stream,
            )
    else:
        print("  faults fired: 0 (no fault plan armed)", file=stream)
    if problems:
        for problem in problems[:10]:
            print(f"  VERIFY FAIL {problem}", file=sys.stderr)
        print(f"verification failed: {len(problems)} issue(s)", file=sys.stderr)
        return 1
    print(
        f"  verified {counts['exact'] + counts['degraded']} answers against "
        f"the sequential ground truth: all sound",
        file=stream,
    )
    return 0


def _cmd_run(args: argparse.Namespace, stream: TextIO) -> int:
    spec = args.faults if args.faults is not None else os.environ.get("REPRO_FAULTS", "")
    engine, points, normals, offsets = _build_engine(args)
    from ..core.query import ScalarProductQuery

    context = (
        _flt.injected(spec, seed=args.faults_seed)
        if spec.strip()
        else contextlib.nullcontext(_flt.active_plan())
    )
    outcomes = {"complete": 0, "recovered": 0, "degraded": 0, "raised": 0}
    completeness: list[float] = []
    retries = 0
    problems: list[str] = []
    with engine, context as plan:
        for qid, (normal, offset) in enumerate(zip(normals, offsets)):
            spq = ScalarProductQuery(normal, float(offset))
            try:
                answer = engine.query(normal, float(offset))
            except (ShardFailureError, DegradedAnswerError) as exc:
                outcomes["raised"] += 1
                if args.verify and args.policy.replace("-", "_") != "raise":
                    # Non-raise policies should only raise when *every*
                    # shard (and its recovery scan) failed.
                    if not isinstance(exc, DegradedAnswerError):
                        problems.append(f"query {qid}: unexpected {exc!r}")
                continue
            info = answer.degraded
            if info is None:
                outcomes["complete"] += 1
            elif info.is_complete:
                outcomes["recovered"] += 1
                retries += info.retries
            else:
                outcomes["degraded"] += 1
                completeness.append(info.completeness)
                retries += info.retries
            if args.verify:
                issue = _verify_answer(answer, spq, points)
                if issue is not None:
                    problems.append(f"query {qid}: {issue}")
        stats = plan.stats() if plan is not None else []
        fired = plan.fired_total() if plan is not None else 0

    total = sum(outcomes.values())
    print(
        f"chaos: {total} queries over {args.shards} shards, "
        f"policy={args.policy.replace('-', '_')}",
        file=stream,
    )
    print(
        f"  complete={outcomes['complete']}  recovered={outcomes['recovered']}"
        f"  degraded={outcomes['degraded']}  raised={outcomes['raised']}"
        f"  retries={retries}",
        file=stream,
    )
    if completeness:
        print(
            f"  degraded completeness: mean {np.mean(completeness):.3f}, "
            f"min {np.min(completeness):.3f}",
            file=stream,
        )
    if stats:
        print(f"  faults fired: {fired}", file=stream)
        for row in stats:
            print(
                f"    {row['site']}:{row['kind']} — "
                f"{row['fires']}/{row['checks']} checks fired",
                file=stream,
            )
    else:
        print("  faults fired: 0 (no fault plan armed)", file=stream)
    if args.verify:
        if problems:
            for problem in problems[:10]:
                print(f"  VERIFY FAIL {problem}", file=sys.stderr)
            print(f"verification failed: {len(problems)} issue(s)", file=sys.stderr)
            return 1
        print(f"  verified {total - outcomes['raised']} answers against "
              f"the sequential ground truth: all sound", file=stream)
    return 0


def run_from_args(args: argparse.Namespace, stream: TextIO | None = None) -> int:
    """Execute a chaos invocation from a parsed namespace; returns exit code."""
    stream = stream or sys.stdout
    try:
        if getattr(args, "serve", False):
            return _cmd_serve(args, stream)
        return _cmd_run(args, stream)
    except FaultSpecError as exc:
        print(f"error: bad fault spec: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None, stream: TextIO | None = None) -> int:
    """Standalone entry point (``python -m repro.reliability.cli``)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    return run_from_args(args, stream)


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli tests
    sys.exit(main())
