"""Tests of the benchmark itself: contract, schema, oracle, shims, seeds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workload runs use a tiny dataset (``--n``) and a one-second window.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import spec
import tracing
from runners import QueryStream

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ["--n", "3000", "--seconds", "1"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


# --------------------------------------------------------------------------- #
# The manifest
# --------------------------------------------------------------------------- #


def test_manifest_files_match_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()
    assert json.loads((BENCH / "workloads.json").read_text()) == json.loads(
        json.dumps(spec.rationale())
    )


def test_manifest_meets_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert all((ROOT / path).is_dir() for path in doc["paths"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_layer_metric_is_listed():
    listed = {name for name, *_ in spec.PER_LAYER}
    mapped = {name for layer in spec.LAYERS.values() for name in layer["metrics"]}
    assert mapped == listed


# --------------------------------------------------------------------------- #
# Inputs from the seed
# --------------------------------------------------------------------------- #


def test_same_seed_same_stream_and_different_seed_different_stream():
    points = oracle.make_points(3, 500, 6)

    def items(seed):
        stream = QueryStream(points, seed, 0, 0.1)
        return [(kind, normal.tolist(), offset) for kind, normal, offset in stream.take(300)]

    assert items(3) == items(3)
    assert items(3) != items(4)
    assert np.array_equal(points, oracle.make_points(3, 500, 6))
    assert not np.array_equal(points, oracle.make_points(4, 500, 6))


# --------------------------------------------------------------------------- #
# Each workload at a tiny size: schema, metrics, exactness
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_schema(workload, trace):
    result = result_of(run_bench("--workload", workload, "--seed", "5", "--trace", trace, *TINY))
    assert result["correct"] is True and result["failed"] == 0
    wanted = spec.END_TO_END if trace == "0" else spec.PER_LAYER
    assert set(result["metrics"]) == {name for name, *_ in wanted}
    for name, unit, *_ in wanted:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        metrics = result["metrics"]
        assert metrics["failed_frac"]["value"] == 0.0
        assert metrics["trace.missing_targets"]["value"] == 0.0
        assert abs(metrics["trace.layer_sum_ratio"]["value"] - 1.0) <= spec.LAYER_SUM_TOLERANCE
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_planted_wrong_answer_is_counted():
    completed = run_bench("--workload", "paper-read", "--seed", "5", "--trace", "1",
                          "--plant-error", *TINY)
    result = result_of(completed)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def _session_members(session: int) -> list[str]:
    """``pid state command`` of every process, zombies too, in ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            command = (entry / "comm").read_text().strip()
        except OSError:  # the process ended while it was being read
            continue
        if int(fields[3]) == session:
            members.append(f"{entry.name} {fields[0]} {command}")
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("workload", ["paper-read", "served"])
def test_leaves_no_process_behind(workload):
    """Every process a run starts (oracle pool, server) has ended when it exits."""
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--trace", "0", *TINY],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert child.wait(timeout=300) == 0
    assert _session_members(child.pid) == []


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "paper-read", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


# --------------------------------------------------------------------------- #
# Oracle comparison rules
# --------------------------------------------------------------------------- #


def test_check_rules():
    ids = np.array([4, 2, 9])
    distances = np.array([0.5, 0.75, 1.0])
    bound = np.full(3, 1e-12)
    answers = {
        "q": oracle.digest(np.array([1, 2, 3])),
        "t": (ids, distances, bound),
    }
    exact = [("q", "query", oracle.digest(np.array([1, 2, 3]))), ("t", "topk", (ids, distances))]
    assert oracle.check(exact, answers) == {"mismatched": 0, "topk": 1, "topk_inexact": 0}
    rounded = [("t", "topk", (ids, distances + np.array([0, 1e-13, 0])))]
    assert oracle.check(rounded, answers)["topk_inexact"] == 1
    wrong = [
        ("q", "query", oracle.digest(np.array([1, 2]))),
        ("t", "topk", (ids[[1, 0, 2]], distances)),
        ("t", "topk", (ids, distances + 1e-6)),
    ]
    assert oracle.check(wrong, answers)["mismatched"] == 3


def test_mirror_replays_writes():
    mirror = oracle.Mirror(np.ones((4, 2)))
    mirror.apply(("insert", np.array([4, 5]), np.full((2, 2), 3.0)))
    mirror.apply(("update", np.array([0]), np.full((1, 2), 7.0)))
    mirror.apply(("delete", np.array([1, 4]), None))
    assert mirror.live_ids().tolist() == [0, 2, 3, 5]
    assert mirror.rows[0].tolist() == [7.0, 7.0] and mirror.rows[5].tolist() == [3.0, 3.0]
    with pytest.raises(ValueError):
        mirror.apply(("insert", np.array([5]), np.zeros((1, 2))))


# --------------------------------------------------------------------------- #
# Shims and span analysis
# --------------------------------------------------------------------------- #


def test_uninstall_restores_every_original():
    from repro.core.function_index import FunctionIndex
    from repro.serve import service

    before = [
        FunctionIndex.__dict__["query"],
        service.read_request,
    ]
    installation = tracing.install()
    assert tracing.installed()
    assert FunctionIndex.__dict__["query"] is not before[0]
    assert installation.missing == []
    tracing.uninstall(installation)
    assert not tracing.installed()
    assert [FunctionIndex.__dict__["query"], service.read_request] == before


def test_missing_targets_are_skipped_and_counted():
    targets = [("repro.core.function_index", "FunctionIndex", "no_such_call", "x", None)]
    installation = tracing.install(targets)
    tracing.uninstall(installation)
    assert installation.missing == ["repro.core.function_index.FunctionIndex.no_such_call"]


def test_self_time_and_critical_path():
    main, pool_a, pool_b = 1, 2, 3
    spans = [
        # (id, name, start, end, parent, thread, info)
        (1, "parallel.engine.query_batch", 0.0, 10.0, 0, main, None),
        (2, "core.collection.query_batch", 1.0, 7.0, 0, pool_a, None),
        (3, "core.collection.query_batch", 2.0, 9.0, 0, pool_b, None),
        (4, "core.feature_store.take_rows", 3.0, 5.0, 3, pool_b, 40),
    ]
    tree = tracing.build_tree(spans)
    assert sorted(tree.children[1]) == [2, 3]
    assert tree.self_time[1] == pytest.approx(2.0)  # 10 - union(1..9)
    assert tree.self_time[3] == pytest.approx(5.0)
    # Blocking path: engine self 2 + skew 1 + slowest shard (self 5 + child 2).
    assert tracing.critical_sum(tree, 1) == pytest.approx(10.0)
    ops = [("query_batch", 0.0, 10.0, main)]
    assert tracing.layer_sums(tree, ops) == {"query_batch": pytest.approx(1.0)}
    metrics, _sums = tracing.in_process_metrics(spans, ops)
    assert metrics["parallel.engine.overhead_ms"] == pytest.approx(1000.0 * 3.0)
    assert metrics["parallel.engine.shard_imbalance"] == pytest.approx(7.0 / 6.0)
    assert metrics["core.feature_store.take_rows.rows_per_op"] == 40
