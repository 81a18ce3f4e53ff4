"""The repro.env registry, the EXPERIMENTS.md matrix, and reality agree.

REP014 already ties registry entries to actual ``os.environ`` reads in
``src/repro`` (see tests/test_lint_clean.py::test_src_is_graph_clean);
this module closes the remaining loop: the human-facing matrix in
EXPERIMENTS.md must list exactly the registered variables, so a flag
cannot ship undocumented or stay documented after removal.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.env import ENV_VARS, var_names

REPO = Path(__file__).resolve().parents[2]


def matrix_names() -> set[str]:
    """Variable names listed in the EXPERIMENTS.md env matrix table."""
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Environment-variable matrix", 1)[1]
    # Stop at the next section header so stray mentions elsewhere in the
    # document don't count as matrix rows.
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)", section, re.MULTILINE))


def test_registry_matches_experiments_matrix():
    assert matrix_names() == set(var_names()), (
        "repro.env.ENV_VARS and the EXPERIMENTS.md environment-variable "
        "matrix list different variables — update both together"
    )


def test_registry_entries_are_well_formed():
    names = var_names()
    assert len(names) == len(set(names)), "duplicate registry entries"
    for var in ENV_VARS:
        assert var.name.startswith("REPRO_")
        assert var.name.isupper()
        assert isinstance(var.default, str)
        assert var.help, f"{var.name} needs a help line"
        assert var.scope in ("runtime", "benchmarks")


def test_benchmark_scoped_vars_are_read_by_benchmarks():
    """``scope='benchmarks'`` entries must actually appear in benchmarks/."""
    bench_sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (REPO / "benchmarks").rglob("*.py")
    )
    for var in ENV_VARS:
        if var.scope == "benchmarks":
            assert var.name in bench_sources, (
                f"{var.name} is registered with scope='benchmarks' but no "
                f"benchmark reads it"
            )


def test_fault_policy_default_is_what_the_engine_uses(monkeypatch):
    from repro.reliability.degraded import FailurePolicy

    monkeypatch.delenv("REPRO_FAULT_POLICY", raising=False)
    (var,) = [var for var in ENV_VARS if var.name == "REPRO_FAULT_POLICY"]
    assert FailurePolicy.parse(None) is FailurePolicy.parse(var.default)
