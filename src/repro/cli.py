"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package version and subsystem overview.
``demo``
    Run one of the bundled demonstrations without touching the examples
    directory (quickstart / consumption / moving / learning).
``bench``
    Run a single experiment family and print its table (a lighter-weight
    alternative to the pytest-benchmark suite).
``datasets``
    Generate a dataset and print its Table 2 characteristics (optionally
    exporting to CSV).
``lint``
    Run the repo-specific linter (per-file rules REP001–REP009 plus the
    whole-program graph rules REP010–REP014 under ``--graph``, see
    ``docs/analysis.md``) over files or directories.  Exit code 0 means
    clean, 1 means findings, 2 means usage error.
``obs``
    Inspect, export (JSON / Prometheus text), or reset the observability
    registry (see ``docs/observability.md``).  Instrumented commands merge
    their samples into a state file when ``REPRO_OBS=1`` is set, so metrics
    accumulate across CLI runs.
``tune``
    The workload-adaptive tuning loop (see ``docs/tuning.md``): ``record``
    captures a query workload to a ``.npz`` archive, ``advise`` plans a
    better index-normal portfolio against it, ``apply`` executes (or
    ``--dry-run`` previews) the plan and reports measured |II| deltas.
``chaos``
    Run a query workload against a sharded index while a fault plan
    injects shard errors / stalls / torn writes, and print a survival
    report (see ``docs/reliability.md``).  ``--verify`` checks every
    answer — complete or degraded — against the sequential ground truth.
``slo``
    Evaluate the declarative latency / completeness objectives against
    the recorded metric state and report error-budget burn rates
    (``repro slo check`` exits nonzero when an objective is violated, so
    CI can gate on it).
``top``
    Live terminal dashboard over the obs state file: per-op query rates
    and latency quantiles, reliability counters, and the SLO table
    (``--once`` renders a single frame for CI smoke tests).
``serve``
    Run the asyncio HTTP query service: micro-batched ``/query`` and
    ``/topk`` over a sharded engine, per-tenant admission control, and
    the ``/metrics`` / ``/healthz`` / ``/slo`` operational endpoints
    (see ``docs/serving.md`` and ``docs/operations.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _default_shards() -> int:
    """Default shard count, overridable via the ``REPRO_SHARDS`` env var."""
    try:
        return max(1, int(os.environ.get("REPRO_SHARDS", "1")))
    except ValueError:
        return 1


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=_default_shards(),
        help="partition the data across S shards, each query running them "
        "in turn (default: $REPRO_SHARDS or 1 = monolithic)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Planar index for scalar product queries (SIGMOD 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version and subsystem overview")

    demo = sub.add_parser("demo", help="run a bundled demonstration")
    demo.add_argument(
        "name",
        choices=["quickstart", "consumption", "moving", "learning"],
        help="which demonstration to run",
    )
    demo.add_argument("--n", type=int, default=50_000, help="dataset size")
    demo.add_argument("--seed", type=int, default=0, help="random seed")
    demo.add_argument(
        "--explain",
        action="store_true",
        help="print an EXPLAIN report for the demo query (quickstart only)",
    )
    _add_parallel_args(demo)

    bench = sub.add_parser("bench", help="run one experiment family")
    bench.add_argument(
        "experiment",
        choices=["query", "topk", "selectivity", "moving", "scalability"],
        help="experiment family (see DESIGN.md for the figure mapping)",
    )
    bench.add_argument("--n", type=int, default=60_000, help="dataset size")
    bench.add_argument("--dim", type=int, default=6, help="dimensionality")
    bench.add_argument("--rq", type=int, default=4, help="randomness of query")
    bench.add_argument("--indices", type=int, default=100, help="index budget")
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    _add_parallel_args(bench)

    datasets = sub.add_parser("datasets", help="generate / describe a dataset")
    datasets.add_argument(
        "name",
        choices=["indp", "corr", "anti", "cmoment", "ctexture", "consumption"],
    )
    datasets.add_argument("--n", type=int, default=10_000)
    datasets.add_argument("--dim", type=int, default=6, help="synthetic families only")
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument("--csv", type=str, default=None, help="export path")

    from repro.analysis import lint as lint_module

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific linter (REP001–REP014)",
        description="AST linter enforcing the Planar index invariants; "
        "see docs/analysis.md for the rule catalogue",
    )
    lint_module.configure_parser(lint)

    from repro.obs import cli as obs_module

    obs = sub.add_parser(
        "obs",
        help="inspect / export / reset the metrics registry",
        description="observability registry tools; see docs/observability.md",
    )
    obs_module.configure_parser(obs)

    from repro.tuning import cli as tune_module

    tune = sub.add_parser(
        "tune",
        help="record a workload / advise / apply an index tuning plan",
        description="workload-adaptive index tuning; see docs/tuning.md",
    )
    tune_module.configure_parser(tune)

    from repro.reliability import cli as chaos_module

    chaos = sub.add_parser(
        "chaos",
        help="run a workload under fault injection and report survival",
        description="chaos testing for the sharded engine; "
        "see docs/reliability.md",
    )
    chaos_module.configure_parser(chaos)

    from repro.obs import slo as slo_module

    slo = sub.add_parser(
        "slo",
        help="check latency / completeness objectives against recorded metrics",
        description="SLO evaluation and error-budget burn rates; "
        "see docs/observability.md",
    )
    slo_module.configure_parser(slo)

    from repro.obs import dashboard as top_module

    top = sub.add_parser(
        "top",
        help="live dashboard over the obs state file",
        description="terminal dashboard: query rates, latency quantiles, "
        "reliability counters, SLO table; see docs/observability.md",
    )
    top_module.configure_parser(top)

    from repro.serve import cli as serve_module

    serve = sub.add_parser(
        "serve",
        help="run the HTTP query service (micro-batching, tenant quotas)",
        description="asyncio HTTP front-end over the sharded engine; "
        "see docs/serving.md and docs/operations.md",
    )
    serve_module.configure_parser(serve)
    _add_parallel_args(serve)
    return parser


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__} — Planar index for scalar product queries")
    print("subsystems: core (Planar index), scan, datasets, sqlfunc, moving,")
    print("            learning, extensions (adaptive octants, PCA filter), bench")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name == "quickstart":
        from repro import FunctionIndex, QueryModel, ShardedFunctionIndex
        from repro.datasets import independent

        points = independent(args.n, 6, rng=args.seed).points
        model = QueryModel.uniform(dim=6, low=1.0, high=5.0, rq=4)
        if args.shards > 1:
            index = ShardedFunctionIndex(
                points,
                model,
                n_indices=100,
                rng=args.seed,
                n_shards=args.shards,
            )
        else:
            index = FunctionIndex(points, model, n_indices=100, rng=args.seed)
        try:
            normal = model.sample_normal(args.seed)
            offset = 0.25 * float(normal @ points.max(axis=0))
            answer = index.query(normal, offset)
            print(
                f"indexed {len(index):,} points with {index.n_indices} Planar indices"
            )
            if args.shards > 1:
                sizes = ", ".join(f"{s:,}" for s in index.shard_sizes())
                print(f"sharded across {index.n_shards} shards ({sizes} points)")
            print(f"query matched {len(answer):,} points; "
                  f"pruned {answer.stats.pruned_fraction:.1%}")
            if args.explain:
                print()
                if args.shards > 1:
                    from repro import ScalarProductQuery

                    spq = ScalarProductQuery(normal, offset)
                    for shard, collection in enumerate(index.collections):
                        print(f"shard {shard}:")
                        print(collection.explain(spq).render())
                        print()
                else:
                    print(index.explain_report(normal, offset).render())
            return 0
        finally:
            if isinstance(index, ShardedFunctionIndex):
                index.close()
    if args.name == "consumption":
        from repro import ParameterDomain
        from repro.datasets import consumption
        from repro.sqlfunc import Table

        dataset = consumption(args.n, rng=args.seed)
        active, reactive, voltage, current = dataset.points.T
        table = Table(
            {"active_power": active, "voltage": voltage, "current": current}
        )
        handle = table.create_function_index(
            "active_power - ? * voltage * current / 1000",
            [ParameterDomain(low=0.1, high=1.0)],
            n_indices=50,
            rng=args.seed,
        )
        for threshold in (0.3, 0.6, 0.9):
            answer = handle.query([threshold])
            print(f"power factor <= {threshold:.1f}: {len(answer):,} households "
                  f"({len(answer) / len(table):.1%})")
        return 0
    if args.name == "moving":
        from repro.bench import print_table, run_moving_experiment

        rows = run_moving_experiment(
            "circular", max(50, args.n // 200), (10.0, 12.5, 15.0), rng=args.seed
        )
        print_table("circular moving-object intersection", rows)
        return 0
    # learning
    from repro.learning import ActiveLearner, make_linear_classification

    pool, labels, _, _ = make_linear_classification(args.n, 5, noise=0.03, rng=args.seed)
    report = ActiveLearner(pool, labels, backend="planar", rng=args.seed).run(10, labels)
    print(f"active learning: {report.labeled_ids.size} labels -> "
          f"{report.final_accuracy:.1%} accuracy "
          f"({report.n_checked_total:,} scalar products)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        print_table,
        run_moving_experiment,
        run_query_experiment,
        run_scalability_experiment,
        run_selectivity_experiment,
        run_topk_experiment,
    )
    from repro.datasets import load

    if args.experiment == "query":
        points = load("indp", args.n, args.dim, rng=args.seed).points
        cell = run_query_experiment(
            points, rq=args.rq, n_indices=args.indices, rng=args.seed,
            n_shards=args.shards,
        )
        print_table("query experiment", [cell])
    elif args.experiment == "topk":
        points = load("indp", args.n, args.dim, rng=args.seed).points
        rows = run_topk_experiment(
            points, (50, 1000), n_indices=args.indices, rng=args.seed,
            n_shards=args.shards,
        )
        print_table("top-k experiment (Table 3)", rows)
    elif args.experiment == "selectivity":
        points = load("indp", args.n, args.dim, rng=args.seed).points
        rows = run_selectivity_experiment(
            points, (0.1, 0.25, 0.5, 0.75, 1.0), rq=args.rq,
            n_indices=args.indices, rng=args.seed,
        )
        print_table("selectivity sweep (Fig 11)", rows)
    elif args.experiment == "moving":
        rows = run_moving_experiment(
            "linear", max(50, args.n // 200), (10.0, 12.5, 15.0), rng=args.seed
        )
        print_table("moving objects (Fig 14a)", rows)
    else:  # scalability
        sizes = (args.n // 4, args.n // 2, args.n)
        rows = run_scalability_experiment(
            "indp", sizes, dim=args.dim, rq=args.rq,
            n_indices=args.indices, rng=args.seed,
            n_shards=args.shards,
        )
        print_table("scalability (Fig 12)", rows)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.bench import print_table
    from repro.datasets import cmoment, consumption, ctexture, load, table2_characteristics

    if args.name in ("indp", "corr", "anti"):
        dataset = load(args.name, args.n, args.dim, rng=args.seed)
    else:
        factory = {"cmoment": cmoment, "ctexture": ctexture, "consumption": consumption}
        dataset = factory[args.name](args.n, rng=args.seed)
    print_table("dataset characteristics", table2_characteristics([dataset]))
    if args.csv:
        from repro.datasets.io import save_csv

        path = save_csv(dataset, args.csv)
        print(f"wrote {path}")
    return 0


def _save_obs_state() -> None:
    """Merge this process's metric samples into the obs state file.

    Only runs when observability is armed and something was recorded, so
    uninstrumented invocations never touch the filesystem.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import runtime as obs_runtime

    if not obs_runtime.ENABLED:
        return
    if obs_metrics.registry().n_samples() == 0:
        return
    from repro.obs.exporters import merge_into_file

    merge_into_file()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    if args.command == "info":
        return _cmd_info()
    if args.command == "obs":
        from repro.obs.cli import run_from_args as obs_run

        return obs_run(args)
    if args.command == "slo":
        from repro.obs.slo import run_from_args as slo_run

        return slo_run(args)
    if args.command == "top":
        from repro.obs.dashboard import run_from_args as top_run

        return top_run(args)
    if args.command == "demo":
        code = _cmd_demo(args)
    elif args.command == "bench":
        code = _cmd_bench(args)
    elif args.command == "lint":
        from repro.analysis.lint import run_from_args

        code = run_from_args(args)
    elif args.command == "tune":
        from repro.tuning.cli import run_from_args as tune_run

        code = tune_run(args)
    elif args.command == "chaos":
        from repro.reliability.cli import run_from_args as chaos_run

        code = chaos_run(args)
    elif args.command == "serve":
        from repro.serve.cli import run_from_args as serve_run

        code = serve_run(args)
    else:
        code = _cmd_datasets(args)
    _save_obs_state()
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
