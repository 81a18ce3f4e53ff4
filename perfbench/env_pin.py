"""Pin and record the measurement environment (stdlib only).

Must run before numpy or repro is imported: BLAS reads its thread count
and repro reads its ``REPRO_*`` flags at import time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS thread count, held fixed for every run.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fixed glibc malloc thresholds.  With the defaults, the dynamic mmap
#: threshold decides per run whether the index's multi-megabyte arrays come
#: from fresh (page-faulting) mappings or from the reused heap, which moved
#: read-write latencies by up to 40% between runs of one seed.  glibc reads
#: these once at start-up, so :func:`reexec_pinned` restarts the process.
MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(256 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(512 * 2**20),
    "MALLOC_TOP_PAD_": str(64 * 2**20),
}


def reexec_pinned() -> None:
    """Restart this interpreter with the malloc settings, unless they are set."""
    if all(os.environ.get(name) == value for name, value in MALLOC.items()):
        return
    env = dict(os.environ, **MALLOC)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _registered_vars() -> list[str]:
    """Names in ``repro.env.ENV_VARS``, read without importing the package."""
    spec = importlib.util.spec_from_file_location("_perfbench_repro_env", SRC / "repro" / "env.py")
    if spec is None or spec.loader is None:
        raise RuntimeError(f"cannot load {SRC / 'repro' / 'env.py'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [var.name for var in module.ENV_VARS]


def pin() -> list[str]:
    """Unset every repro flag, fix BLAS threads, put ``src`` on the path.

    Returns the names of the repro flags that were set and got removed.
    Raises ``RuntimeError`` when the checkout has no ``src/repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no repro package under {SRC}")
    names = set(_registered_vars())
    names.update(name for name in os.environ if name.startswith("REPRO_"))
    removed = sorted(name for name in names if name in os.environ)
    for name in removed:
        del os.environ[name]
    for name in _BLAS_VARS:
        os.environ[name] = str(BLAS_THREADS)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return removed


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """SHA-256 over the package sources: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def record(seed: int, removed: list[str]) -> dict:
    """The environment every result is recorded with."""
    import numpy as np

    from repro.obs import runtime as obs_runtime
    from repro.reliability import faults

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "malloc": {name: os.environ.get(name) for name in MALLOC},
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "repro_flags_unset": removed,
        "obs_enabled": bool(obs_runtime.ENABLED),
        "faults_armed": bool(faults.ARMED),
    }


def refuse_if_instrumented() -> None:
    """Refuse to measure with observability sampling or fault injection on."""
    from repro.obs import runtime as obs_runtime
    from repro.reliability import faults

    if obs_runtime.ENABLED:
        raise RuntimeError("repro.obs.runtime.ENABLED is true; refusing to measure")
    if faults.ARMED:
        raise RuntimeError("repro.reliability.faults.ARMED is true; refusing to measure")
