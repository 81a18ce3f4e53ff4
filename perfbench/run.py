"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics of ``perfbench/spec.py``
with no instrumentation; latencies are reported as multiples of a reference
scan timed right after each op (``runners.scan_seconds``).  ``--trace 1``
measures half the window untraced and half with timing shims on the public
layer functions, and reports the per-layer metrics, the layer-sum check and
the tracing overhead (traced over untraced median scan ratio).  Every
answer is checked against ``SequentialScan`` after the window.  The last
line of standard output is one JSON object; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import env_pin

try:
    _REMOVED = env_pin.pin()
except RuntimeError as exc:  # the checkout holds no program to measure
    _REMOVED = None
    _PIN_ERROR = str(exc)

import spec

HERE = Path(__file__).resolve().parent
#: Fresh set-ups per untraced run; each measures a third of the window.
SESSIONS = 3


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def highest_supported(values: list[float]) -> float:
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9):
        if percentile(values, pct)[1] >= 10:
            best = pct
    return best


def latencies(window, kind: str) -> list[float]:
    return [1000.0 * (end - start) for k, start, end, _t in window.ops if k == kind]


def scan_ratios(windows: list, kind: str) -> list[float]:
    """Each ``kind`` op's latency over that of the reference scan after it."""
    return [
        (end - start) / scan
        for window in windows
        for (k, start, end, _t), scan in zip(window.ops, window.scans)
        if k == kind
    ]


def describe(window, out) -> None:
    """Per-kind latency and scan-ratio lines with sample counts."""
    for kind in sorted({op[0] for op in window.ops}):
        values = latencies(window, kind)
        pct = highest_supported(values)
        tail, beyond = percentile(values, pct)
        ratios = scan_ratios([window], kind)
        print(
            f"  {kind:<12} n={len(values):<6} p50={statistics.median(values):.3f} ms  "
            f"p{pct:g}={tail:.3f} ms ({beyond} beyond)  "
            f"p50/scan={statistics.median(ratios):.3f}",
            file=out,
        )


def end_to_end(runner, windows: list, setup_times: list, index_mb: float) -> dict:
    wl = runner.spec
    primary = scan_ratios(windows, wl["primary"])
    secondary = scan_ratios(windows, wl["secondary"])
    return {
        "setup_s": statistics.median(setup_times),
        "primary_p50_vs_scan": statistics.median(primary) if primary else 0.0,
        "primary_tail_vs_scan": percentile(primary, wl["tail_pct"])[0],
        "secondary_p50_vs_scan": statistics.median(secondary) if secondary else 0.0,
        "index_mb": index_mb,
    }


def verify(runner, windows: list, plant_error: bool) -> dict:
    """Check every recorded answer against the oracle."""
    import oracle

    records = [record for window in windows for record in window.records]
    tasks = {key: task for window in windows for key, task in window.tasks.items()}
    answers = oracle.run_oracle(runner.n, spec.PAPER["d"], runner.writes, list(tasks.values()))
    checked = oracle.check(records, answers, plant_error)
    errors = sum(window.errors for window in windows)
    return {
        "attempted": sum(window.completed for window in windows) + errors,
        "failed": errors + checked["mismatched"],
        "checked": len(records),
        **checked,
    }


def run_untraced(runner, seconds: float):
    """``SESSIONS`` sessions, each a fresh set-up and a share of the window."""
    setup_times, windows, footprints = [], [], []
    for _ in range(SESSIONS):
        setup_times.append(runner.start())
        runner.warm()
        windows.append(runner.window(seconds / SESSIONS))
        footprints.append(runner.finish())
    metrics = end_to_end(runner, windows, setup_times, statistics.median(footprints))
    return metrics, {"setup_times": setup_times}, windows


def run_traced(runner, seconds: float):
    """Untraced half window, then traced half window; per-layer metrics."""
    import tracing

    half = seconds / 2.0
    if runner.name == "served":
        runner.start()
        runner.warm()
        untraced = runner.window(half)
        runner.finish()
        runner.start(trace=True)
        runner.warm()
        traced = runner.window(half)
        runner.finish()
        spans = [tuple(span) for span in runner.trace["spans"]]
        missing = runner.trace["missing"]
        first, last = min(op[1] for op in traced.ops), max(op[2] for op in traced.ops)
        setup_spans = [span for span in spans if span[3] < first]
        layer = tracing.served_metrics(spans, traced.ops, (first, last))
        layer["serve.batcher.mean_batch"] = traced.extra["mean_batch"]
        sums = {"http": layer["trace.layer_sum_ratio"]}
    else:
        installation = tracing.install()
        try:
            runner.start()
        finally:
            tracing.uninstall(installation)
        setup_spans = installation.recorder.drain()
        missing = installation.missing
        runner.warm()
        untraced = runner.window(half)
        installation = tracing.install()
        try:
            traced = runner.window(half)
        finally:
            tracing.uninstall(installation)
        runner.finish()
        layer, sums = tracing.in_process_metrics(installation.recorder.drain(), traced.ops)
    if tracing.installed():
        raise RuntimeError("timing shims are still installed after the traced run")
    layer.update(tracing.setup_metrics(setup_spans))
    primary = runner.spec["primary"]
    base = scan_ratios([untraced], primary)
    with_shims = scan_ratios([traced], primary)
    layer["trace.overhead_ratio"] = (
        statistics.median(with_shims) / statistics.median(base) if base and with_shims else 0.0
    )
    layer["trace.missing_targets"] = float(len(missing))
    return layer, {"layer_sums": sums, "missing": missing}, [untraced, traced]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=spec.PAPER["n"],
                        help="dataset size (default: the paper workload's)")
    parser.add_argument("--plant-error", action="store_true",
                        help="corrupt one recorded answer before checking (tests the oracle)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and perfbench/workloads.json from spec.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if _REMOVED is None:
        print(f"perfbench: {_PIN_ERROR}", file=sys.stderr)
        return 2

    import runners

    env_pin.refuse_if_instrumented()
    environment = env_pin.record(args.seed, _REMOVED)
    print(f"env {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} n={args.n}")
    runner = runners.make(args.workload, args.seed, args.n)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, notes, windows = run(runner, args.seconds)
    finally:
        runner.stop()
        runners.cleanup()
    checking = time.perf_counter()
    outcome = verify(runner, windows, args.plant_error)
    outcome["seconds"] = time.perf_counter() - checking
    failed_frac = outcome["failed"] / outcome["attempted"] if outcome["attempted"] else 1.0
    topk_inexact = outcome["topk_inexact"] / outcome["topk"] if outcome["topk"] else 0.0
    if args.trace:
        metrics["failed_frac"] = failed_frac
        metrics["oracle.topk_inexact_frac"] = topk_inexact
        names = [name for name, *_ in spec.PER_LAYER]
    else:
        names = [name for name, *_ in spec.END_TO_END]
    report(args, runner, windows, metrics, notes, outcome, failed_frac)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": spec.UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


def report(args, runner, windows, metrics, notes, outcome, failed_frac) -> None:
    out = sys.stdout
    labels = ("untraced", "traced") if args.trace else [f"session {i}" for i in range(len(windows))]
    for label, window in zip(labels, windows):
        print(f"window {label}: {window.completed} ops in {window.seconds:.2f} s", file=out)
        describe(window, out)
        for key in ("shed", "refused"):
            if key in window.extra:
                print(f"  {key}: {json.dumps(window.extra[key], sort_keys=True)}", file=out)
    print(
        f"oracle: {outcome['checked']} answers checked against SequentialScan, "
        f"{outcome['mismatched']} wrong, {outcome['failed'] - outcome['mismatched']} errors, "
        f"{outcome['topk_inexact']}/{outcome['topk']} top-k distances within the rounding "
        f"bound but not bit-identical; failed_frac={failed_frac:.6f} "
        f"({outcome['seconds']:.1f} s)",
        file=out,
    )
    if "setup_times" in notes:
        times = ", ".join(f"{t:.3f}" for t in notes["setup_times"])
        print(f"setup times (s): {times}", file=out)
    if "layer_sums" in notes:
        for kind, ratio in sorted(notes["layer_sums"].items()):
            ok = abs(ratio - 1.0) <= spec.LAYER_SUM_TOLERANCE
            print(f"layer sum {kind}: {ratio:.4f} of traced end-to-end "
                  f"({'within' if ok else 'OUTSIDE'} {spec.LAYER_SUM_TOLERANCE:.0%})", file=out)
        if notes["missing"]:
            print(f"shim targets missing: {', '.join(notes['missing'])}", file=out)
    for name in sorted(metrics):
        unit = spec.UNITS.get(name, "")
        print(f"metric {name} = {metrics[name]:.6g} {unit}", file=out)


def write_manifest() -> None:
    root = HERE.parent
    (root / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
    (HERE / "workloads.json").write_text(
        json.dumps(spec.rationale(), indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    env_pin.reexec_pinned()
    sys.exit(main(sys.argv[1:]))
