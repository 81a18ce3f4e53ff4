"""Single source of truth for every ``REPRO_*`` environment variable.

Each switch the package reads from the process environment is declared
here exactly once, with its default and a one-line description.  The
registry is *declarative*: consumers keep reading ``os.environ`` at their
own arming points (import-time for ``REPRO_SANITIZE``/``REPRO_FAULTS``,
call-time for the rest) so hot-path behaviour is unchanged — but three
artifacts are machine-checked against this module so flags cannot drift:

* the whole-program lint rule **REP014** (``repro lint --graph``) fails
  when a ``REPRO_*`` read appears anywhere in ``src/repro`` without a
  matching :class:`EnvVar` entry, and when a ``runtime``-scope entry is
  never read;
* ``tests/analysis/test_env_registry.py`` fails when this registry and
  the environment-variable matrix in ``EXPERIMENTS.md`` disagree;
* ``docs/analysis.md`` documents the registry as the place new flags are
  added.

``scope`` says where the reads live: ``"runtime"`` entries are read
inside ``src/repro`` (REP014 verifies this); ``"benchmarks"`` entries are
read only by the ``benchmarks/`` harnesses, which sit outside the
analyzed package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ENV_VARS", "EnvVar", "var_names"]


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment switch.

    ``name`` is the full variable name (``REPRO_*``); ``default`` is the
    effective value when unset, as the reader interprets it; ``help`` is
    a one-line description matching the EXPERIMENTS.md matrix; ``scope``
    is ``"runtime"`` (read inside ``src/repro``) or ``"benchmarks"``.
    """

    name: str
    default: str
    help: str
    scope: str = "runtime"


#: Every environment variable the reproduction responds to.  Keep this
#: tuple, the EXPERIMENTS.md matrix, and the actual ``os.environ`` reads
#: in sync — REP014 and the registry sync test enforce all three.
ENV_VARS: Tuple[EnvVar, ...] = (
    EnvVar(
        name="REPRO_OBS",
        default="0",
        help="arm the observability layer at this head-sampling rate "
        "(1/true/on = 1.0, a value in (0, 1] = that rate, 0/off = disarmed)",
    ),
    EnvVar(
        name="REPRO_OBS_STATE",
        default=".repro-obs.json",
        help="path of the obs state file CLI runs merge their samples into",
    ),
    EnvVar(
        name="REPRO_OBS_SEED",
        default="0",
        help="seed of the deterministic trace-id sequence (replayable sampling)",
    ),
    EnvVar(
        name="REPRO_OBS_LOG",
        default="",
        help="arm the rotating JSONL query log at this path (empty = off)",
    ),
    EnvVar(
        name="REPRO_OBS_SLOW_MS",
        default="100",
        help="slow-query threshold in ms — slow queries log even when unsampled",
    ),
    EnvVar(
        name="REPRO_OBS_SLO",
        default="",
        help="JSON file of SLO objectives for repro slo / repro top (empty = defaults)",
    ),
    EnvVar(
        name="REPRO_SANITIZE",
        default="0",
        help="arm @array_contract shape/dtype/contiguity/finiteness checks",
    ),
    EnvVar(
        name="REPRO_SHARDS",
        default="1",
        help="default shard fan-out for the CLI and test fixtures",
    ),
    EnvVar(
        name="REPRO_TUNE_RECORD",
        default="0",
        help="arm workload sketch recording in the query facades",
    ),
    EnvVar(
        name="REPRO_FAULTS",
        default="",
        help="fault-plan spec armed from process start (see docs/reliability.md)",
    ),
    EnvVar(
        name="REPRO_FAULTS_SEED",
        default="0",
        help="seed for probabilistic fault rules (seeded runs replay exactly)",
    ),
    EnvVar(
        name="REPRO_FAULT_POLICY",
        default="raise",
        help="default shard-failure policy for engines built without one",
    ),
    EnvVar(
        name="REPRO_SERVE_BATCH_WINDOW_MS",
        default="2",
        help="micro-batcher coalescing window in ms (0 = no coalescing)",
    ),
    EnvVar(
        name="REPRO_SERVE_BATCH_MAX",
        default="64",
        help="max requests coalesced into one engine batch call",
    ),
    EnvVar(
        name="REPRO_SERVE_QUEUE_DEPTH",
        default="256",
        help="admission queue bound; requests beyond it are shed with 429",
    ),
    EnvVar(
        name="REPRO_SERVE_BROWNOUT",
        default="0.8",
        help="queue-depth fraction at which best-effort tenants are shed (brownout)",
    ),
    EnvVar(
        name="REPRO_SERVE_TENANTS",
        default="",
        help="JSON file of per-tenant quotas/priorities (empty = one unlimited tenant)",
    ),
    EnvVar(
        name="REPRO_SERVE_DEADLINE_MS",
        default="10000",
        help="default end-to-end request deadline in ms when no X-Repro-Deadline-Ms header",
    ),
    EnvVar(
        name="REPRO_SERVE_DRAIN_MS",
        default="5000",
        help="graceful-shutdown drain budget in ms before queued requests fail fast",
    ),
    EnvVar(
        name="REPRO_SERVE_BREAKER_THRESHOLD",
        default="5",
        help="consecutive engine failures per (tenant, op) that trip the circuit breaker",
    ),
    EnvVar(
        name="REPRO_SERVE_BREAKER_COOLDOWN_MS",
        default="1000",
        help="how long an open circuit breaker sheds before probing half-open, in ms",
    ),
    EnvVar(
        name="REPRO_BENCH_SCALE",
        default="1",
        help="scale factor for benchmark dataset sizes (10 ≈ paper scale)",
        scope="benchmarks",
    ),
)


def var_names() -> Tuple[str, ...]:
    """Registered variable names, in declaration order."""
    return tuple(var.name for var in ENV_VARS)
