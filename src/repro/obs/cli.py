"""CLI for the observability layer: ``python -m repro obs <action>``.

Actions
-------
``dump``
    Pretty-print the current metric state: the in-process registry merged
    with the state file written by previous instrumented runs.
``export``
    Emit the merged state in a machine format (``--format json`` or
    ``--format prometheus``).
``reset``
    Clear the in-process registry and delete the state file.
``tail``
    Print the last records of the structured query log
    (``$REPRO_OBS_LOG`` or ``--log``), one line per query.
``trace <id>``
    Render the stitched span tree of one trace, looked up by id prefix —
    first in the in-process ring buffer, then in the query log (sampled
    records embed their full trace tree, so lookup works across
    processes).

Because a fresh CLI process has an empty registry, ``dump`` and ``export``
primarily read the state file (``.repro-obs.json`` or ``$REPRO_OBS_STATE``)
that instrumented commands (``repro demo``, ``repro bench`` …) merge into
on exit when ``REPRO_OBS=1``.  ``--demo`` runs a tiny built-in workload
first so the commands produce output even with no prior state.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, TextIO

from . import events as _events
from . import runtime as _runtime
from . import trace as _trace
from .exporters import default_state_path, load_state, to_json, to_prometheus
from .metrics import MetricsRegistry
from .metrics import registry as _registry

__all__ = ["configure_parser", "build_parser", "run_from_args", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the obs options to ``parser`` (shared with ``repro.cli``)."""
    parser.add_argument(
        "action",
        choices=["dump", "export", "reset", "tail", "trace"],
        help=(
            "dump (human summary), export (machine format), reset (clear "
            "state), tail (query log), trace (render one trace by id prefix)"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="trace-id prefix (trace action only)",
    )
    parser.add_argument(
        "--format",
        choices=["json", "prometheus"],
        default="prometheus",
        help="export format (export action only)",
    )
    parser.add_argument(
        "--state",
        type=str,
        default=None,
        help="state file to read/clear (default: $REPRO_OBS_STATE or ./.repro-obs.json)",
    )
    parser.add_argument(
        "--log",
        type=str,
        default=None,
        help="query-log path for tail/trace (default: $REPRO_OBS_LOG)",
    )
    parser.add_argument(
        "-n",
        "--lines",
        type=int,
        default=10,
        help="records to show for tail (default: 10)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit raw JSON records (tail/trace actions)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a tiny instrumented workload first (so output is never empty)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Standalone ``repro obs`` parser (the main CLI nests the same flags)."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="inspect / export / reset the repro metrics registry",
    )
    configure_parser(parser)
    return parser


def _run_demo_workload() -> None:
    """A tiny instrumented query workload populating the live registry."""
    import numpy as np

    from ..core.domains import QueryModel
    from ..core.function_index import FunctionIndex

    previous = _runtime.enable(_runtime.rate() or 1.0)
    try:
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 10.0, size=(2_000, 4))
        model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
        index = FunctionIndex(points, model, n_indices=8, rng=0)
        for seed in range(16):
            normal = model.sample_normal(seed)
            offset = 0.4 * float(normal @ points.max(axis=0))
            index.query(normal, offset)
        index.topk(model.sample_normal(99), 40.0, k=10)
        index.explain_report(model.sample_normal(7), 35.0)
    finally:
        _runtime.enable(previous)


def _merged_registry(state: Path) -> MetricsRegistry:
    """State file + in-process samples folded into one registry."""
    merged = load_state(state, MetricsRegistry())
    merged.restore(_registry().snapshot())
    return merged


def _dump(merged: MetricsRegistry, stream: TextIO) -> None:
    """Human-oriented one-line-per-series summary."""
    if len(merged) == 0 or merged.n_samples() == 0:
        print("no metric samples recorded (is REPRO_OBS=1 set?)", file=stream)
        return
    for metric in merged:
        series = metric.series()
        if not series:
            continue
        print(f"{metric.name} ({metric.kind}) — {metric.help}", file=stream)
        for key, value in sorted(series.items()):
            labels = (
                "{" + ", ".join(
                    f"{n}={v}" for n, v in zip(metric.labelnames, key)
                ) + "}"
                if key
                else ""
            )
            if metric.kind == "histogram":
                text = f"count={value.count} sum={value.total:.6g}"
            else:
                text = f"{value:.6g}"
            print(f"  {labels or '(no labels)'}: {text}", file=stream)


def _render_trace_dict(node: Dict[str, Any], indent: int = 0, width: int = 44) -> List[str]:
    """Render a ``SpanRecord.to_dict`` tree (query-log form) as text lines."""
    attrs = node.get("attrs") or {}
    attr_text = (
        "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) if attrs else ""
    )
    label = "  " * indent + str(node.get("name", "?"))
    lines = [f"{label:<{width}s}{float(node.get('duration_us', 0.0)):>12.1f} us{attr_text}"]
    for child in node.get("children", ()):
        lines.extend(_render_trace_dict(child, indent + 1, width))
    return lines


def _run_tail(args: argparse.Namespace, stream: TextIO) -> int:
    """``repro obs tail``: print the last query-log records."""
    path = args.log or _events.log_path()
    if path is None:
        print("no query log configured (set REPRO_OBS_LOG or pass --log)", file=stream)
        return 1
    records = _events.tail(args.lines, path)
    if not records:
        print(f"query log {path} has no records yet", file=stream)
        return 0
    for record in records:
        if args.json:
            print(json.dumps(record, sort_keys=True), file=stream)
        else:
            print(_events.render_line(record), file=stream)
    return 0


def _run_trace(args: argparse.Namespace, stream: TextIO) -> int:
    """``repro obs trace <id>``: render one stitched trace tree."""
    if not args.target:
        print("usage: repro obs trace <trace-id-prefix>", file=stream)
        return 2
    root = _trace.find_trace(args.target)
    if root is not None:
        if args.json:
            print(json.dumps(root.to_dict(), sort_keys=True), file=stream)
        else:
            print(root.render(), file=stream)
        return 0
    path = args.log or _events.log_path()
    record = _events.find(args.target, path) if path else None
    if record is None:
        print(f"no trace matching {args.target!r} in ring buffer or query log", file=stream)
        return 1
    if args.json:
        print(json.dumps(record, sort_keys=True), file=stream)
        return 0
    print(_events.render_line(record), file=stream)
    tree = record.get("trace")
    if tree:
        print("\n".join(_render_trace_dict(tree)), file=stream)
    else:
        print("(record has no embedded trace tree — unsampled slow/error log)", file=stream)
    return 0


def run_from_args(args: argparse.Namespace, stream: TextIO | None = None) -> int:
    """Execute an obs invocation from a parsed namespace; returns exit code."""
    stream = stream or sys.stdout
    state = Path(args.state) if args.state else default_state_path()
    if args.action == "tail":
        return _run_tail(args, stream)
    if args.action == "trace":
        return _run_trace(args, stream)
    if args.action == "reset":
        _registry().reset()
        if state.exists():
            state.unlink()
            print(f"cleared registry and removed {state}", file=stream)
        else:
            print("cleared registry (no state file)", file=stream)
        return 0
    if args.demo:
        _run_demo_workload()
    merged = _merged_registry(state)
    if args.action == "dump":
        _dump(merged, stream)
        return 0
    # export
    if args.format == "json":
        print(to_json(merged), file=stream)
    else:
        stream.write(to_prometheus(merged))
    return 0


def main(argv: Sequence[str] | None = None, stream: TextIO | None = None) -> int:
    """Standalone entry point (``python -m repro.obs.cli``)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    return run_from_args(args, stream)


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli tests
    sys.exit(main())
