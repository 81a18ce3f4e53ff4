"""Start ``repro serve`` for the served workload, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py --memory-out FILE
[--trace-out FILE] -- serve <repro serve arguments>``

Runs the same entry point as ``python -m repro serve``.  With
``--trace-out`` it installs the timing shims before the engine is built
and writes the spans as JSON when the service has drained after SIGTERM.
``--memory-out`` receives the engine's ``memory_bytes()``, taken when the
service closes the engine on shutdown, after the measured window.
"""

from __future__ import annotations

import argparse
import json
import sys

import env_pin

env_pin.pin()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="serve_launcher")
    parser.add_argument("--memory-out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import tracing
    from repro import cli
    from repro.parallel.engine import ShardedFunctionIndex

    env_pin.refuse_if_instrumented()
    installation = tracing.install() if args.trace_out else None
    close = ShardedFunctionIndex.close
    recorded: list[int] = []

    def close_and_record(engine: ShardedFunctionIndex) -> None:
        if not recorded:
            recorded.append(engine.memory_bytes())
        close(engine)

    ShardedFunctionIndex.close = close_and_record
    try:
        code = cli.main(serve_args)
    finally:
        ShardedFunctionIndex.close = close
        if installation is not None:
            tracing.uninstall(installation)
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(
                    {"spans": installation.recorder.spans, "missing": installation.missing},
                    handle,
                )
        with open(args.memory_out, "w", encoding="utf-8") as handle:
            handle.write(str(recorded[0] if recorded else 0))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
