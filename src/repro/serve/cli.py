"""``repro serve`` — run the HTTP query service from the command line.

Builds (or loads) an engine, binds the service, and runs until SIGTERM /
SIGINT, shutting down gracefully: the socket closes first, the batcher
drains every admitted request, then the engine closes.  ``--ready-file``
writes ``host:port`` once the socket is listening so scripts and CI can
wait for startup without polling (the serving smoke lane does).

Configuration is environment-first (``REPRO_SERVE_*`` — see
``docs/operations.md``); the CLI flags cover only what the environment
cannot: the listen address and the engine to front.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
from pathlib import Path

__all__ = ["configure_parser", "run_from_args"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro serve`` arguments."""
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = ephemeral; see --ready-file)",
    )
    parser.add_argument(
        "--index", default=None,
        help="serve a persisted index (save_index artifact) instead of "
        "building a synthetic one",
    )
    parser.add_argument("--n", type=int, default=50_000, help="synthetic dataset size")
    parser.add_argument("--dim", type=int, default=6, help="synthetic dimensionality")
    parser.add_argument("--indices", type=int, default=100, help="index budget")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility; has no effect (shards run in "
        "turn on the request's thread)",
    )
    parser.add_argument(
        "--ready-file", default=None,
        help="write host:port to this file once the socket is listening",
    )


def _build_engine(args: argparse.Namespace):
    """The engine to serve: a persisted artifact or a synthetic build."""
    from repro.parallel.engine import ShardedFunctionIndex

    if args.index:
        from repro.core.persistence import load_build_inputs

        # Only the artifact's points, normals and strategy are re-wrapped
        # behind the sharded facade (one engine type for the service), so
        # its key arrays are mapped, not copied, and dropped before the
        # engine builds its own.
        # Ids are re-assigned densely (0..n-1), as for any fresh build.
        points, spec = load_build_inputs(args.index)
        return ShardedFunctionIndex(
            points,
            **spec,
            rng=args.seed,
            n_shards=args.shards,
        )
    from repro import QueryModel
    from repro.datasets import independent

    points = independent(args.n, args.dim, rng=args.seed).points
    model = QueryModel.uniform(dim=args.dim, low=1.0, high=5.0, rq=4)
    return ShardedFunctionIndex(
        points,
        model,
        n_indices=args.indices,
        rng=args.seed,
        n_shards=args.shards,
    )


async def _serve(args: argparse.Namespace, engine) -> int:
    """Bind, announce, and run until a termination signal."""
    from repro.serve.config import ServiceConfig
    from repro.serve.service import QueryService

    config = ServiceConfig.from_env()
    service = QueryService(engine, config)
    port = await service.start(args.host, args.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # non-POSIX loops
            loop.add_signal_handler(signum, stop.set)
    print(
        f"repro serve: listening on http://{args.host}:{port} "
        f"({len(engine):,} points, {engine.n_shards} shard(s), "
        f"window {config.batch_window_s * 1000:g} ms, "
        f"queue {config.queue_depth})",
        flush=True,
    )
    if args.ready_file:
        Path(args.ready_file).write_text(f"{args.host}:{port}\n", encoding="utf-8")
    try:
        await stop.wait()
    finally:
        await service.stop()
        print("repro serve: drained and stopped", flush=True)
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    """Entry point for ``repro serve``; returns the process exit code."""
    engine = _build_engine(args)
    try:
        return asyncio.run(_serve(args, engine))
    finally:
        engine.close()
