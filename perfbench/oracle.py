"""Exactness oracle: replay the run against ``SequentialScan``, off the clock.

Every answer the benchmark receives is reduced to a check record while the
window runs (a digest of the ids for inequality answers, ids and distances
for top-k).  After the window the oracle rebuilds the dataset, replays each
session's recorded writes in order, and answers each distinct query with
:class:`repro.scan.baseline.SequentialScan` against the store state as of
that query.  The work is split across two forked worker processes, which
the pool joins before :func:`run_oracle` returns.  The ``spawn`` start
method is not used: it also starts multiprocessing's resource tracker, a
process that is never joined and outlives the benchmark.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import spec

#: Unit roundoff of float64.
_U = 2.0 ** -53


def digest(ids) -> bytes:
    """Order-sensitive digest of an id sequence."""
    return hashlib.blake2b(
        np.ascontiguousarray(ids, dtype=np.int64).tobytes(), digest_size=16
    ).digest()


def make_points(seed: int, n: int, dim: int) -> np.ndarray:
    """The workload's points: Indp, uniform in (1, 100), from the seed."""
    from repro.datasets import independent

    return independent(n, dim, rng=seed).points


class Mirror:
    """The store's rows and liveness, replayed from the recorded writes."""

    def __init__(self, points: np.ndarray) -> None:
        self.rows = np.array(points, dtype=np.float64)
        self.live = np.ones(points.shape[0], dtype=bool)

    def apply(self, write: tuple) -> None:
        kind, ids, rows = write
        ids = np.asarray(ids, dtype=np.int64)
        if kind == "insert":
            top = int(ids.max()) + 1 if ids.size else 0
            if top > self.rows.shape[0]:
                grow = top - self.rows.shape[0]
                self.rows = np.vstack([self.rows, np.zeros((grow, self.rows.shape[1]))])
                self.live = np.concatenate([self.live, np.zeros(grow, dtype=bool)])
            if self.live[ids].any():
                raise ValueError("insert_points returned ids that are already live")
            self.rows[ids] = rows
            self.live[ids] = True
        elif kind == "update":
            self.rows[ids] = rows
        elif kind == "delete":
            self.live[ids] = False
        else:
            raise ValueError(f"unknown write kind {kind!r}")

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self.live).astype(np.int64)


def _answer(scan, rows_by_id, task):
    """Oracle answer for one task ``(key, session, epoch, kind, normal, offset, op, k)``."""
    from repro.core.query import ScalarProductQuery

    _key, _session, _epoch, kind, normal, offset, op, k = task
    query = ScalarProductQuery(np.asarray(normal, dtype=np.float64), float(offset), op)
    if kind == "query":
        return digest(scan.query(query))
    result = scan.topk(query, k)
    rows = rows_by_id[result.ids]
    # Forward-error bound of |<a, phi> - b| / |a| per returned point,
    # doubled because the index computes the same quantity independently.
    scale = np.abs(rows) @ np.abs(query.normal) + abs(query.offset)
    gamma = (rows.shape[1] + 4) * _U / (1 - (rows.shape[1] + 4) * _U)
    bound = 2.0 * gamma * scale / np.linalg.norm(query.normal)
    return (np.asarray(result.ids), np.asarray(result.distances), bound)


def oracle_chunk(n: int, dim: int, writes: dict, tasks: list) -> list:
    """Answer ``tasks`` against the state each session had at each epoch.

    Every session starts from the dataset; ``writes[session]`` are its
    writes in order, and a task of epoch ``e`` sees the first ``e`` of them.
    """
    from repro.scan.baseline import SequentialScan

    points = make_points(spec.DATA_SEED, n, dim)
    out = []
    session = mirror = scan = None
    applied = 0
    for task in sorted(tasks, key=lambda t: (t[1], t[2])):
        if task[1] != session:
            session, mirror, applied, scan = task[1], Mirror(points), 0, None
        while applied < task[2]:
            mirror.apply(writes[session][applied])
            applied += 1
            scan = None
        if scan is None:
            live = mirror.live_ids()
            scan = SequentialScan(mirror.rows[live], ids=live)
        out.append((task[0], _answer(scan, mirror.rows, task)))
    return out


def run_oracle(n: int, dim: int, writes: dict, tasks: list, workers: int = 2) -> dict:
    """Answer every distinct task; returns ``{key: answer}``."""
    if not tasks:
        return {}
    tasks = sorted(tasks, key=lambda t: (t[1], t[2]))
    n_chunks = min(len(tasks), 4 * workers)
    chunks = [tasks[i::n_chunks] for i in range(n_chunks)]
    context = multiprocessing.get_context("fork")
    answers: dict = {}
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(oracle_chunk, n, dim, writes, chunk) for chunk in chunks]
        for future in futures:
            answers.update(future.result())
    return answers


def check(records: list, answers: dict, plant_error: bool = False) -> dict:
    """Compare recorded answers with the oracle's.

    ``records`` are ``(key, kind, answer)``; inequality answers must match
    the oracle's id digest, top-k answers its ids in order and its
    distances within the forward-error bound.  Returns counts of
    mismatches and of top-k answers whose distances are not bit-identical.
    """
    mismatched = inexact = topk = 0
    for position, (key, kind, answer) in enumerate(records):
        expected = answers[key]
        if plant_error and position == 0:
            answer = b"planted wrong answer" if kind == "query" else (answer[0][::-1], answer[1])
        if kind == "query":
            mismatched += answer != expected
            continue
        topk += 1
        ids, distances = answer
        want_ids, want_distances, bound = expected
        if not np.array_equal(ids, want_ids):
            mismatched += 1
        elif not np.array_equal(distances, want_distances):
            if np.all(np.abs(np.asarray(distances) - want_distances) <= bound):
                inexact += 1
            else:
                mismatched += 1
    return {"mismatched": mismatched, "topk": topk, "topk_inexact": inexact}
