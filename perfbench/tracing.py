"""Timing shims around public layer functions, and the span analysis.

``install`` rebinds each target where the program looks it up (a class
attribute, or a module global for functions imported by name) to a shim
that records one span ``(id, name, start, end, parent, thread, info)``
per call.  Spans stay in memory until the run ends.  ``uninstall`` puts
every original object back and proves it did, so untraced runs execute
no shim.  A target that no longer exists is skipped and counted, so the
benchmark keeps running across refactors of the program.

Parents: a synchronous span's parent is the span open on the same thread
when it started.  Shard-side collection calls have no parent on their pool
thread; they are parented by time containment to the engine call of the
same kind that submitted them.  Coroutine spans (``MicroBatcher.enqueue``,
``read_request``) interleave on the event loop, so they take no part in
parenting.  A span's self time is its duration minus the part of it that
its children cover.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# Header the served client stamps on each request with its send time
# (time.perf_counter, a system-wide monotonic clock on Linux), so the
# server-side read_request span can start when the request was sent
# rather than when the connection began waiting for it.
SENT_HEADER = "X-Bench-Sent"

FANOUT = ("parallel.engine.query_batch", "parallel.engine.topk_batch")
#: Shard-side call -> the engine call that fans it out.
SUBMITTED_BY = {
    "core.collection.query_batch": "parallel.engine.query_batch",
    "core.collection.topk_batch": "parallel.engine.topk_batch",
}


def _finish_probe(args, kwargs, result):
    """(rows verified, II rows accepted, pruned fraction) of one finish_query."""
    stats = result.stats
    wq = args[1] if len(args) > 1 else kwargs["wq"]
    certain = stats.si_size if wq.op.is_upper_bound else stats.li_size
    pruned = (stats.si_size + stats.li_size) / stats.n_total if stats.n_total else 0.0
    return (stats.n_verified, stats.n_results - certain, pruned)


def _topk_probe(args, kwargs, result):
    return (int(result.n_checked), int(result.n_total))


def _rows_probe(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    return int(ids.size)


def _sent_probe(args, kwargs, result):
    if result is None:
        return None
    sent = result.headers.get(SENT_HEADER.lower())
    return float(sent) if sent else -1.0


#: (module, owner class or None for a module global, attribute, span name, probe)
TARGETS = [
    ("repro.core.function_index", "FunctionIndex", "query", "core.function_index.query", None),
    ("repro.core.function_index", "FunctionIndex", "topk", "core.function_index.topk", None),
    ("repro.core.function_index", "FunctionIndex", "insert_points", "core.function_index.write", None),
    ("repro.core.function_index", "FunctionIndex", "update_points", "core.function_index.write", None),
    ("repro.core.function_index", "FunctionIndex", "delete_points", "core.function_index.write", None),
    ("repro.core.collection", "PlanarIndexCollection", "__init__", "core.collection.build", None),
    ("repro.core.collection", "PlanarIndexCollection", "working_query", "core.collection.working_query", None),
    ("repro.core.collection", "PlanarIndexCollection", "query", "core.collection.query", None),
    ("repro.core.collection", "PlanarIndexCollection", "_select_position", "core.collection.select", None),
    ("repro.core.collection", "PlanarIndexCollection", "topk", "core.collection.topk", None),
    ("repro.core.collection", "PlanarIndexCollection", "query_batch", "core.collection.query_batch", None),
    ("repro.core.collection", "PlanarIndexCollection", "topk_batch", "core.collection.topk_batch", None),
    ("repro.core.collection", "PlanarIndexCollection", "insert", "core.collection.insert", None),
    ("repro.core.collection", "PlanarIndexCollection", "rekey", "core.collection.rekey", None),
    ("repro.core.collection", "PlanarIndexCollection", "delete", "core.collection.delete", None),
    ("repro.core.planar", "PlanarIndex", "interval_ranks", "core.planar.interval_ranks", None),
    ("repro.core.planar", "PlanarIndex", "finish_query", "core.planar.finish_query", _finish_probe),
    ("repro.core.planar", "PlanarIndex", "topk", "core.planar.topk", _topk_probe),
    ("repro.core.feature_store", "FeatureStore", "take_rows", "core.feature_store.take_rows", _rows_probe),
    ("repro.core.feature_store", "FeatureStore", "scan_values", "core.feature_store.scan_values", None),
    ("repro.core.feature_store", "FeatureStore", "scan_values_many", "core.feature_store.scan_values_many", None),
    ("repro.parallel.view", "FeatureStoreView", "scan_values", "core.feature_store.scan_values", None),
    ("repro.parallel.view", "FeatureStoreView", "scan_values_many", "core.feature_store.scan_values_many", None),
    ("repro.core.feature_store", "FeatureStore", "append", "core.feature_store.append", None),
    ("repro.core.feature_store", "FeatureStore", "update", "core.feature_store.update", None),
    ("repro.core.feature_store", "FeatureStore", "delete", "core.feature_store.delete", None),
    ("repro.core.sorted_keys", "SortedKeyStore", "insert", "core.sorted_keys.insert", None),
    ("repro.core.sorted_keys", "SortedKeyStore", "delete", "core.sorted_keys.delete", None),
    ("repro.core.sorted_keys", "SortedKeyStore", "update_batch", "core.sorted_keys.update_batch", None),
    ("repro.geometry.translation", "Translator", "observe", "geometry.translation.observe", None),
    ("repro.core.phi", "FeatureMap", "__call__", "setup.feature_map", None),
    ("repro.parallel.engine", "ShardedFunctionIndex", "query_batch", "parallel.engine.query_batch", None),
    ("repro.parallel.engine", "ShardedFunctionIndex", "topk_batch", "parallel.engine.topk_batch", None),
    ("repro.serve.service", None, "read_request", "serve.http.read_request", _sent_probe),
    ("repro.serve.service", None, "render_response", "serve.http.render_response", None),
    ("repro.serve.admission", "AdmissionController", "admit", "serve.admission.admit", None),
    ("repro.serve.batcher", "MicroBatcher", "enqueue", "serve.batcher.enqueue", None),
]


class Recorder:
    """In-memory span sink shared by every shim of one installation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def drain(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, probe):
        """A shim around ``fn`` recording one ``name`` span per call."""
        ids, perf, ident = self._ids, time.perf_counter, threading.get_ident

        def info_of(args, kwargs, result):
            if probe is None:
                return None
            try:
                return probe(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                return None

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_shim(*args, **kwargs):
                sid = next(ids)
                started = perf()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    self.spans.append((sid, name, started, perf(), 0, ident(), None))
                    raise
                self.spans.append(
                    (sid, name, started, perf(), 0, ident(), info_of(args, kwargs, result))
                )
                return result

            return async_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            started = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ended = perf()
                stack.pop()
                self.spans.append((sid, name, started, ended, parent, ident(), None))
                raise
            ended = perf()
            stack.pop()
            self.spans.append(
                (sid, name, started, ended, parent, ident(), info_of(args, kwargs, result))
            )
            return result

        return shim


@dataclass
class Installation:
    """Shims currently installed, with what they replaced."""

    recorder: Recorder
    replaced: list  # (owner, attribute, original object or None if inherited)
    missing: list[str]


_ACTIVE: list[Installation] = []


def installed() -> bool:
    """Whether any shim installation is live in this process."""
    return bool(_ACTIVE)


def install(targets=TARGETS) -> Installation:
    """Rebind every target to a recording shim; returns the installation."""
    recorder = Recorder()
    replaced = []
    missing = []
    for module_name, owner_name, attribute, span_name, probe in targets:
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attribute}")
            continue
        own = owner.__dict__.get(attribute) is original
        if isinstance(original, (staticmethod, classmethod)):
            shim = type(original)(recorder.wrap(original.__func__, span_name, probe))
        else:
            shim = recorder.wrap(original, span_name, probe)
        setattr(owner, attribute, shim)
        replaced.append((owner, attribute, original if own else None))
    installation = Installation(recorder, replaced, missing)
    _ACTIVE.append(installation)
    return installation


def uninstall(installation: Installation) -> None:
    """Put every original back; raise if any target is not the original after."""
    for owner, attribute, original in reversed(installation.replaced):
        if original is None:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, original)
    _ACTIVE.remove(installation)
    leaked = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, original in installation.replaced
        if (owner.__dict__.get(attribute) is not original)
        and not (original is None and attribute not in owner.__dict__)
    ]
    if leaked:
        raise RuntimeError(f"shims still installed after uninstall: {leaked}")


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


@dataclass
class Tree:
    """Spans indexed for analysis: children, self times, owning op."""

    spans: dict  # id -> span tuple
    children: dict  # id -> [child ids]
    self_time: dict  # id -> seconds


def build_tree(spans: list[tuple]) -> Tree:
    """Parent spans (stack, then fan-out containment) and compute self times."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[int]] = defaultdict(list)
    fanouts = sorted(
        (span for span in spans if span[1] in FANOUT), key=lambda span: span[2]
    )
    starts = [span[2] for span in fanouts]
    fanout_threads = {span[5] for span in fanouts}
    for span in spans:
        sid, _name, started, ended, parent, thread, _info = span
        if parent and parent in by_id:
            children[parent].append(sid)
            continue
        if not fanouts or thread in fanout_threads:
            continue
        # A shard-side call with no parent on its pool thread: the innermost
        # engine call of the matching kind that contains it submitted it.
        engine = SUBMITTED_BY.get(_name)
        if engine is None:
            continue
        position = bisect.bisect_right(starts, started) - 1
        while position >= 0:
            candidate = fanouts[position]
            if candidate[3] >= ended and candidate[1] == engine:
                children[candidate[0]].append(sid)
                break
            position -= 1
    self_time = {}
    for sid, span in by_id.items():
        kids = [(by_id[c][2], by_id[c][3]) for c in children.get(sid, ())]
        self_time[sid] = (span[3] - span[2]) - _union_length(kids, span[2], span[3])
    return Tree(by_id, children, self_time)


def critical_sum(tree: Tree, sid: int) -> float:
    """Self times along the blocking path below ``sid``.

    Overlapping children (parallel shard calls) count once: the slowest
    one's subtree, plus the part of the group's envelope it does not cover.
    """
    span = tree.spans[sid]
    total = tree.self_time[sid]
    kids = sorted((tree.spans[c] for c in tree.children.get(sid, ())), key=lambda s: s[2])
    group: list[tuple] = []
    group_end = float("-inf")
    for kid in kids + [None]:
        if kid is not None and kid[2] < group_end:
            group.append(kid)
            group_end = max(group_end, kid[3])
            continue
        if group:
            lo = max(group[0][2], span[2])
            hi = min(group_end, span[3])
            slowest = max(group, key=lambda s: s[3] - s[2])
            total += (hi - lo) - (slowest[3] - slowest[2]) + critical_sum(tree, slowest[0])
        if kid is not None:
            group = [kid]
            group_end = kid[3]
    return total


def roots_by_op(tree: Tree, ops: list[tuple]) -> list[list[int]]:
    """Root span ids falling inside each op ``(kind, start, end, thread)``."""
    parented = {c for kids in tree.children.values() for c in kids}
    roots = sorted(
        (span for sid, span in tree.spans.items() if sid not in parented),
        key=lambda span: span[2],
    )
    starts = [span[2] for span in roots]
    owned = []
    for _kind, started, ended, thread in ops:
        lo = bisect.bisect_left(starts, started)
        hi = bisect.bisect_right(starts, ended)
        owned.append(
            [span[0] for span in roots[lo:hi] if span[3] <= ended and span[5] == thread]
        )
    return owned


def layer_sums(tree: Tree, ops: list[tuple]) -> dict[str, float]:
    """Per op kind: layer self times on the blocking path / traced latency."""
    covered: dict[str, float] = defaultdict(float)
    latency: dict[str, float] = defaultdict(float)
    for op, roots in zip(ops, roots_by_op(tree, ops)):
        kind, started, ended, _thread = op
        latency[kind] += ended - started
        covered[kind] += sum(critical_sum(tree, sid) for sid in roots)
    return {kind: covered[kind] / latency[kind] for kind in latency if latency[kind] > 0}


def _totals(tree: Tree) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name."""
    inclusive: dict[str, float] = defaultdict(float)
    exclusive: dict[str, float] = defaultdict(float)
    for sid, span in tree.spans.items():
        inclusive[span[1]] += span[3] - span[2]
        exclusive[span[1]] += tree.self_time[sid]
    return inclusive, exclusive


def in_process_metrics(spans: list[tuple], ops: list[tuple]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced in-process window, and the layer sums."""
    tree = build_tree(spans)
    inclusive, exclusive = _totals(tree)
    n_ops = max(1, len(ops))
    n_writes = max(1, sum(1 for op in ops if op[0] == "write"))

    def per_op(total: float) -> float:
        return 1000.0 * total / n_ops

    def per_write(total: float) -> float:
        return 1000.0 * total / n_writes

    out = {
        "core.function_index.query.self_ms": per_op(exclusive["core.function_index.query"]),
        "core.function_index.topk.self_ms": per_op(exclusive["core.function_index.topk"]),
        "core.function_index.write.self_ms": per_write(exclusive["core.function_index.write"]),
        "core.collection.working_query.ms": per_op(inclusive["core.collection.working_query"]),
        "core.collection.query.self_ms": per_op(exclusive["core.collection.query"]),
        "core.collection.select.ms": per_op(inclusive["core.collection.select"]),
        "core.planar.interval_ranks.ms": per_op(inclusive["core.planar.interval_ranks"]),
        "core.planar.finish_query.self_ms": per_op(exclusive["core.planar.finish_query"]),
        "core.planar.topk.ms": per_op(inclusive["core.planar.topk"]),
        "core.feature_store.take_rows.ms": per_op(inclusive["core.feature_store.take_rows"]),
        "core.feature_store.scan_values.ms": per_op(inclusive["core.feature_store.scan_values"]),
        "core.feature_store.scan_values_many.ms": per_op(
            inclusive["core.feature_store.scan_values_many"]
        ),
        "core.feature_store.append.ms": per_write(inclusive["core.feature_store.append"]),
        "core.feature_store.update.ms": per_write(inclusive["core.feature_store.update"]),
        "core.feature_store.delete.ms": per_write(inclusive["core.feature_store.delete"]),
        "core.collection.query_batch.ms": per_op(inclusive["core.collection.query_batch"]),
        "core.collection.query_batch.self_ms": per_op(exclusive["core.collection.query_batch"]),
        "core.collection.topk_batch.ms": per_op(inclusive["core.collection.topk_batch"]),
        "parallel.engine.query_batch.ms": per_op(inclusive["parallel.engine.query_batch"]),
        "parallel.engine.topk_batch.ms": per_op(inclusive["parallel.engine.topk_batch"]),
        "core.collection.insert.ms": per_write(inclusive["core.collection.insert"]),
        "core.collection.rekey.ms": per_write(inclusive["core.collection.rekey"]),
        "core.collection.delete.ms": per_write(inclusive["core.collection.delete"]),
        "core.sorted_keys.insert.ms": per_write(inclusive["core.sorted_keys.insert"]),
        "core.sorted_keys.delete.ms": per_write(inclusive["core.sorted_keys.delete"]),
        "core.sorted_keys.update_batch.ms": per_write(inclusive["core.sorted_keys.update_batch"]),
        "geometry.translation.observe.ms": per_write(inclusive["geometry.translation.observe"]),
    }
    out.update(_count_metrics(tree, n_ops))
    out.update(_fanout_metrics(tree))
    sums = layer_sums(tree, ops)
    out["trace.layer_sum_ratio"] = min(sums.values()) if sums else 0.0
    return out, sums


def _count_metrics(tree: Tree, n_ops: int) -> dict[str, float]:
    """Counts and ratios measured where the work happens."""
    verified = useful = 0
    pruned: list[float] = []
    checked = total = 0
    rows = 0
    queries = scans = 0
    for sid, span in tree.spans.items():
        name, info = span[1], span[6]
        if name == "core.planar.finish_query" and info is not None:
            verified += info[0]
            useful += info[1]
            pruned.append(info[2])
        elif name == "core.planar.topk" and info is not None:
            checked += info[0]
            total += info[1]
        elif name == "core.feature_store.take_rows" and info is not None:
            rows += info
        elif name == "core.collection.query":
            queries += 1
            scans += _has_descendant(tree, sid, "core.feature_store.scan_values")
    return {
        "core.collection.scan_route_frac": scans / queries if queries else 0.0,
        "core.planar.rows_verified_per_op": verified / n_ops,
        "core.planar.useful_ratio": useful / verified if verified else 0.0,
        "core.planar.pruned_frac": sum(pruned) / len(pruned) if pruned else 0.0,
        "core.planar.topk.checked_frac": checked / total if total else 0.0,
        "core.feature_store.take_rows.rows_per_op": rows / n_ops,
    }


def _has_descendant(tree: Tree, sid: int, name: str) -> bool:
    pending = list(tree.children.get(sid, ()))
    while pending:
        kid = pending.pop()
        if tree.spans[kid][1] == name:
            return True
        pending.extend(tree.children.get(kid, ()))
    return False


def _fanout_metrics(tree: Tree) -> dict[str, float]:
    """Engine overhead beyond its slowest shard, and shard imbalance."""
    overheads: list[float] = []
    imbalances: list[float] = []
    for sid, span in tree.spans.items():
        if span[1] not in FANOUT:
            continue
        shard_calls = [
            tree.spans[c][3] - tree.spans[c][2]
            for c in tree.children.get(sid, ())
            if tree.spans[c][5] != span[5]
        ]
        if not shard_calls:
            continue
        overheads.append((span[3] - span[2]) - max(shard_calls))
        if len(shard_calls) > 1 and min(shard_calls) > 0:
            imbalances.append(max(shard_calls) / min(shard_calls))
    return {
        "parallel.engine.overhead_ms": 1000.0 * sum(overheads) / len(overheads) if overheads else 0.0,
        "parallel.engine.shard_imbalance": sum(imbalances) / len(imbalances) if imbalances else 0.0,
    }


def setup_metrics(spans: list[tuple]) -> dict[str, float]:
    """Seconds of one set-up spent building collections, in phi, in the translator."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += span[3] - span[2]
    return {
        "core.collection.build.s": totals["core.collection.build"],
        "setup.feature_map.s": totals["setup.feature_map"],
        "setup.translator.s": totals["geometry.translation.observe"],
    }


def served_metrics(
    spans: list[tuple], requests: list[tuple], window: tuple[float, float]
) -> dict[str, float]:
    """Per-request serve-layer metrics from the server's spans.

    ``requests`` are the client's ``(kind, sent, done, thread)`` tuples of
    the traced window; server spans outside the window are ignored.
    """
    lo, hi = window
    spans = [span for span in spans if span[2] >= lo and span[3] <= hi]
    n = max(1, len(requests))
    totals: dict[str, float] = defaultdict(float)
    engine = sorted(
        (span for span in spans if span[1] in FANOUT), key=lambda span: span[2]
    )
    starts = [span[2] for span in engine]
    waits: list[float] = []
    for span in spans:
        name, started, ended, info = span[1], span[2], span[3], span[6]
        if name == "serve.http.read_request":
            if info is None or info < 0:
                continue  # EOF on an idle connection, or an unstamped request
            started = max(started, info)
        elif name == "serve.batcher.enqueue":
            left = bisect.bisect_left(starts, started)
            right = bisect.bisect_right(starts, ended)
            inside = [e[3] - e[2] for e in engine[left:right] if e[3] <= ended]
            waits.append((ended - started) - (max(inside) if inside else 0.0))
        totals[name] += ended - started
    out = {
        "serve.http.read_request.ms": 1000.0 * totals["serve.http.read_request"] / n,
        "serve.http.render_response.ms": 1000.0 * totals["serve.http.render_response"] / n,
        "serve.admission.admit.ms": 1000.0 * totals["serve.admission.admit"] / n,
        "serve.batcher.enqueue.ms": 1000.0 * totals["serve.batcher.enqueue"] / n,
        "serve.batcher.wait_ms": 1000.0 * sum(waits) / len(waits) if waits else 0.0,
    }
    server_ms = (
        out["serve.http.read_request.ms"]
        + out["serve.admission.admit.ms"]
        + out["serve.batcher.enqueue.ms"]
        + out["serve.http.render_response.ms"]
    )
    client_ms = 1000.0 * sum(done - sent for _k, sent, done, _t in requests) / n
    out["serve.transport_ms"] = max(0.0, client_ms - server_ms)
    out["trace.layer_sum_ratio"] = (
        (server_ms + out["serve.transport_ms"]) / client_ms if client_ms else 0.0
    )
    # Engine layers below the batcher, per request.
    tree = build_tree(spans)
    inclusive, exclusive = _totals(tree)
    for name in (
        "core.collection.query_batch", "core.collection.topk_batch",
        "parallel.engine.query_batch", "parallel.engine.topk_batch",
        "core.collection.working_query", "core.collection.select",
        "core.feature_store.take_rows", "core.feature_store.scan_values_many",
    ):
        out[f"{name}.ms"] = 1000.0 * inclusive[name] / n
    for name in ("core.collection.query_batch", "core.planar.finish_query"):
        out[f"{name}.self_ms"] = 1000.0 * exclusive[name] / n
    out.update(_count_metrics(tree, n))
    out.update(_fanout_metrics(tree))
    return out
