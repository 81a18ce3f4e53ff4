"""The workloads: set-up, warm-up and closed-loop measured windows.

A run is made of sessions.  Each session starts the program afresh (builds
the index, or spawns the server), warms it, and measures one window.  Each
window records, per operation, its timing ``(kind, start, end, thread)``,
the seconds of a reference scan timed right after it (:func:`scan_seconds`)
and one check record per answer for the oracle.

Inputs come from the seed: the query stream and the writes.  The dataset
and the index normals come from ``spec.DATA_SEED``, the same in every run.
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import spec
import tracing

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
CHUNK = 4096
OP, K = spec.PAPER["op"], spec.PAPER["k"]


@dataclass
class Window:
    """Everything one measured window produced."""

    ops: list = field(default_factory=list)  # (kind, start, end, thread)
    scans: list = field(default_factory=list)  # scan_seconds after each op
    records: list = field(default_factory=list)  # (key, kind, answer)
    tasks: dict = field(default_factory=dict)  # key -> oracle task
    errors: int = 0
    completed: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def expect(self, session: int, epoch: int, kind: str, normal, offset: float, answer) -> None:
        """Queue one answer for the oracle (kind: ``query`` or ``topk``).

        ``(session, epoch)`` names the store state the answer must match;
        read-only workloads pass ``(0, 0)`` so repeated queries are checked
        against one oracle answer.
        """
        k = K if kind == "topk" else 0
        key = (session, epoch, kind, normal.tobytes(), offset, k)
        if key not in self.tasks:
            self.tasks[key] = (key, session, epoch, kind, normal, offset, OP, k)
        if kind == "query":
            self.records.append((key, kind, oracle.digest(answer.ids)))
        else:
            self.records.append(
                (key, kind, (np.asarray(answer.ids), np.asarray(answer.distances)))
            )


class QueryStream:
    """Seeded Eq. 18 query stream: ``(is_secondary, normal, offset)`` items.

    The stream is a pure function of ``(seed, stream_id)``: the same seed
    always yields the same sequence, generated in chunks on demand.
    """

    def __init__(self, points: np.ndarray, seed: int, stream_id: int, secondary: float) -> None:
        from repro.datasets.workloads import Workload

        self._workload = Workload.for_points(
            points, rq=spec.PAPER["rq"], inequality_parameter=spec.PAPER["s"]
        )
        self._queries = np.random.default_rng([seed, stream_id, 0])
        self._kinds = np.random.default_rng([seed, stream_id, 1])
        self._secondary = secondary
        self._buffer: list = []
        self._position = 0
        #: Seconds spent generating items, which windows leave off the clock.
        self.generation_s = 0.0

    def prefill(self, count: int) -> None:
        """Generate at least ``count`` items ahead of time."""
        while len(self._buffer) - self._position < count:
            started = perf()
            queries = self._workload.sample_queries(CHUNK, self._queries)
            kinds = self._kinds.random(CHUNK) < self._secondary
            self._buffer = self._buffer[self._position:] + [
                (bool(kind), query.normal, float(query.offset))
                for kind, query in zip(kinds, queries)
            ]
            self._position = 0
            self.generation_s += perf() - started

    def take(self, count: int) -> list:
        """The next ``count`` stream items."""
        self.prefill(count)
        items = self._buffer[self._position:self._position + count]
        self._position += count
        return items


def scan_seconds(points: np.ndarray, normal: np.ndarray, offset: float) -> float:
    """Seconds a plain numpy sequential scan takes to answer ``a . x <= b``.

    Every op is followed by this scan of the same query on the same thread,
    and latencies are reported as multiples of it.  Other tenants of a shared
    host slow both alike: on the two-vCPU host this was tuned on, one fixed
    set of queries ran at a median of 0.8 to 2.4 ms within minutes, while
    its ratio to this scan stayed within about 10%.  The scan is numpy
    only, so no change to the program moves it.
    """
    started = perf()
    np.flatnonzero(points @ normal <= offset)
    return perf() - started


def _warm_items(points: np.ndarray, seed: int, count: int) -> list:
    """Warm-up queries, drawn from their own stream so the measured one is untouched."""
    return QueryStream(points, seed, 99, 0.5).take(count)


# --------------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------------- #


class InProcess:
    """paper-read and read-write: one caller on a FunctionIndex in this process."""

    def __init__(self, name: str, seed: int, n: int) -> None:
        from repro.core.domains import QueryModel

        self.name = name
        self.spec = spec.WORKLOADS[name]
        self.seed = seed
        self.n = n
        self.dim = spec.PAPER["d"]
        self.points = oracle.make_points(spec.DATA_SEED, n, self.dim)
        self.model = QueryModel.uniform(dim=self.dim, low=1.0, high=5.0, rq=spec.PAPER["rq"])
        secondary = self.spec["mix"].get("topk", 0.0)
        self.stream = QueryStream(self.points, seed, 0, secondary)
        self.write_rng = np.random.default_rng([seed, 7])
        #: session -> writes ``(kind, ids, rows)`` in the order applied.
        self.writes: dict[int, list] = {}
        self.session = -1
        self.index = None
        self.mirror = None
        self.footprint_mb = 0.0

    def start(self) -> float:
        """Build a fresh index (the timed set-up); returns its seconds."""
        self.stop()
        self.session += 1
        self.writes[self.session] = []
        if self.name == "read-write":
            self.mirror = oracle.Mirror(self.points)
        from repro.core.function_index import FunctionIndex

        started = perf()
        self.index = FunctionIndex(
            self.points, self.model, n_indices=spec.PAPER["r"], rng=spec.DATA_SEED
        )
        return perf() - started

    def stop(self) -> None:
        self.index = None

    def warm(self) -> None:
        """Fill lazy caches before timing (not recorded, not checked)."""
        for _secondary, normal, offset in _warm_items(self.points, self.seed, 16):
            self.index.query(normal, offset, OP)
            self.index.topk(normal, offset, K, OP)
        self.footprint_mb = self.index.memory_bytes() / 1e6

    def finish(self) -> float:
        """End the session; the index footprint in MB after set-up and warm-up."""
        self.stop()
        return self.footprint_mb

    def window(self, seconds: float) -> Window:
        run = self._read_write if self.name == "read-write" else self._paper_read
        window = Window()
        paused = self.stream.generation_s
        started = perf()
        run(window, lambda: perf() - (self.stream.generation_s - paused) < started + seconds)
        window.seconds = perf() - started - (self.stream.generation_s - paused)
        return window

    def _paper_read(self, window: Window, running) -> None:
        index, thread = self.index, threading.get_ident()
        while running():
            for secondary, normal, offset in self.stream.take(64):
                kind = "topk" if secondary else "query"
                started = perf()
                try:
                    if secondary:
                        answer = index.topk(normal, offset, K, OP)
                    else:
                        answer = index.query(normal, offset, OP)
                except Exception:  # noqa: BLE001 - any failure of the program counts as failed
                    window.errors += 1
                    continue
                window.ops.append((kind, started, perf(), thread))
                window.scans.append(scan_seconds(self.points, normal, offset))
                window.completed += 1
                window.expect(0, 0, kind, normal, offset, answer)
                if not running():
                    return

    def _read_write(self, window: Window, running) -> None:
        index, thread = self.index, threading.get_ident()
        writes = self.writes[self.session]
        while running():
            epoch = len(writes)
            for _secondary, normal, offset in self.stream.take(self.spec["queries_per_write"]):
                started = perf()
                try:
                    answer = index.query(normal, offset, OP)
                except Exception:  # noqa: BLE001 - any failure of the program counts as failed
                    window.errors += 1
                    continue
                window.ops.append(("query", started, perf(), thread))
                window.scans.append(scan_seconds(self.points, normal, offset))
                window.completed += 1
                window.expect(self.session, epoch, "query", normal, offset, answer)
            if not self._write(window, thread, writes, (normal, offset)):
                return

    def _write(self, window: Window, thread: int, writes: list, last_query: tuple) -> bool:
        """One write, rotating insert(64) -> update(32) -> delete(64).

        Its reference scan answers ``last_query``, the query before it.
        """
        kind = ("insert", "update", "delete")[len(writes) % 3]
        rng, live = self.write_rng, self.mirror.live_ids()
        rows = None
        if kind == "insert":
            rows = rng.uniform(1.0, 100.0, size=(64, self.dim))
        elif kind == "update":
            ids = np.sort(rng.choice(live, size=32, replace=False))
            rows = rng.uniform(1.0, 100.0, size=(32, self.dim))
        else:
            ids = np.sort(rng.choice(live, size=64, replace=False))
        started = perf()
        try:
            if kind == "insert":
                ids = np.asarray(self.index.insert_points(rows), dtype=np.int64)
            elif kind == "update":
                self.index.update_points(ids, rows)
            else:
                self.index.delete_points(ids)
        except Exception:  # noqa: BLE001 - the store state is now unknown; stop here
            window.errors += 1
            return False
        window.ops.append(("write", started, perf(), thread))
        window.scans.append(scan_seconds(self.points, *last_query))
        window.completed += 1
        write = (kind, ids, rows)
        writes.append(write)
        self.mirror.apply(write)
        return True


# --------------------------------------------------------------------------- #
# Served workload
# --------------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, n: int, trace: bool) -> None:
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT))
        self.ready = self.dir / "ready"
        self.memory = self.dir / "memory"
        self.trace_path = self.dir / "spans.json" if trace else None
        command = [
            sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
            "--memory-out", str(self.memory),
        ]
        if trace:
            command += ["--trace-out", str(self.trace_path)]
        command += [
            "--", "serve", "--host", "127.0.0.1", "--port", "0",
            "--n", str(n), "--dim", str(spec.PAPER["d"]),
            "--indices", str(spec.PAPER["r"]), "--shards", "2", "--workers", "2",
            "--seed", str(spec.DATA_SEED), "--ready-file", str(self.ready),
        ]
        self.log = open(self.dir / "server.log", "wb")
        self.started = perf()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.setup_s = self._wait_ready(120.0)
        host, port = self.ready.read_text(encoding="utf-8").strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _wait_ready(self, timeout: float) -> float:
        deadline = self.started + timeout
        while perf() < deadline:
            if self.ready.exists() and self.ready.read_text(encoding="utf-8").strip():
                return perf() - self.started
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        log = self.dir / "server.log"
        self.stop()
        detail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        self.remove()
        raise RuntimeError(f"server did not become ready:\n{detail}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()

    def index_mb(self) -> float:
        return int(self.memory.read_text(encoding="utf-8")) / 1e6

    def trace_dump(self) -> dict:
        return json.loads(self.trace_path.read_text(encoding="utf-8"))

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


SHED_REASONS = ("quota", "queue_full", "brownout", "breaker", "draining", "fault")


@dataclass
class _Answer:
    ids: np.ndarray
    distances: np.ndarray


class Served:
    """Keep-alive HTTP clients against a ``repro serve`` process."""

    def __init__(self, seed: int, n: int) -> None:
        self.name = "served"
        self.spec = spec.WORKLOADS["served"]
        self.seed = seed
        self.n = n
        self.points = oracle.make_points(spec.DATA_SEED, n, spec.PAPER["d"])
        secondary = self.spec["mix"]["http_topk"]
        self.streams = [
            QueryStream(self.points, seed, client, secondary)
            for client in range(self.spec["clients"])
        ]
        self.writes: dict[int, list] = {}
        self.session = -1
        self.server: Server | None = None
        #: Span dump of the last traced server, read when it stopped.
        self.trace: dict | None = None

    def start(self, trace: bool = False) -> float:
        """Spawn a fresh server; returns seconds from spawn until it is ready."""
        self.stop()
        self.session += 1
        self.server = Server(self.n, trace)
        return self.server.setup_s

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server.remove()
            self.server = None

    def finish(self) -> float:
        """Stop the server; its engine footprint in MB, recorded when it closed."""
        server = self.server
        server.stop()
        index_mb = server.index_mb()
        if server.trace_path is not None:
            self.trace = server.trace_dump()
        self.stop()
        return index_mb

    def warm(self) -> None:
        connection = self.server.connect()
        try:
            for secondary, normal, offset in _warm_items(self.points, self.seed, 16):
                self._request(connection, "http_topk" if secondary else "http_query", normal, offset)
        finally:
            connection.close()

    @staticmethod
    def _request(connection, kind: str, normal, offset: float):
        body = {"normal": normal.tolist(), "offset": offset, "op": OP}
        path = "/query"
        if kind == "http_topk":
            body["k"] = K
            path = "/topk"
        payload = json.dumps(body)
        started = perf()
        connection.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json", tracing.SENT_HEADER: repr(started)},
        )
        response = connection.getresponse()
        status = response.status
        data = json.loads(response.read())
        return started, perf(), status, data

    def window(self, seconds: float) -> Window:
        for stream in self.streams:
            stream.prefill(CHUNK)  # generate before the clock starts
        window = Window()
        lock = threading.Lock()
        started = perf()
        deadline = started + seconds
        threads = [
            threading.Thread(target=self._client, args=(stream, window, lock, deadline))
            for stream in self.streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        window.seconds = perf() - started
        stats = self.server.stats()
        # Each shed reason by name: a reason the service no longer reports
        # shows as None instead of silently passing a whole-dict compare.
        shed = stats.get("shed", {})
        window.extra["shed"] = {reason: shed.get(reason) for reason in SHED_REASONS}
        window.extra["mean_batch"] = float(stats.get("batching", {}).get("mean_batch", 0.0))
        return window

    def _client(self, stream: QueryStream, window: Window, lock, deadline: float) -> None:
        connection = self.server.connect()
        thread = threading.get_ident()
        try:
            while perf() < deadline:
                for secondary, normal, offset in stream.take(16):
                    kind = "http_topk" if secondary else "http_query"
                    try:
                        started, ended, status, data = self._request(connection, kind, normal, offset)
                    except (OSError, http.client.HTTPException, ValueError):
                        with lock:
                            window.errors += 1
                        connection.close()
                        connection = self.server.connect()
                        continue
                    scan = scan_seconds(self.points, normal, offset)
                    with lock:
                        if status != 200:
                            window.errors += 1
                            reason = str(data.get("reason", data.get("error", status)))
                            refused = window.extra.setdefault("refused", {})
                            refused[reason] = refused.get(reason, 0) + 1
                            continue
                        window.ops.append((kind, started, ended, thread))
                        window.scans.append(scan)
                        window.completed += 1
                        answer = _Answer(
                            np.asarray(data["ids"], dtype=np.int64),
                            np.asarray(data.get("distances", ()), dtype=np.float64),
                        )
                        member = "topk" if secondary else "query"
                        window.expect(0, 0, member, normal, offset, answer)
                    if perf() >= deadline:
                        return
        finally:
            connection.close()


def make(name: str, seed: int, n: int):
    """The runner for workload ``name``."""
    if name == "served":
        return Served(seed, n)
    return InProcess(name, seed, n)


def cleanup() -> None:
    """Remove the scratch directory when nothing else is left in it."""
    if OUT.exists() and not any(OUT.iterdir()):
        OUT.rmdir()
