"""Workload-adaptive index advisor: fit the normals to the queries.

The paper samples index normals blindly from the query-parameter domains
(Section 5.2) and never revisits them, so pruning power is fixed before the
first query arrives.  This module closes the loop: given the *recorded*
workload (:mod:`repro.tuning.recorder`), the :class:`Advisor` predicts —
with the paper's own machinery — how large the intermediate interval |II|
of every candidate normal would be for every recorded query, greedily
assembles the best ``r``-normal portfolio under a budget, and emits a
:class:`TuningPlan` of add/drop actions with predicted |II| deltas.

Why the prediction is trustworthy
---------------------------------
The advisor does not invent a cost model.  For each (candidate, query)
pair it evaluates exactly the quantities the executor computes at query
time:

* one :func:`repro.core.selection.thresholds` call per query evaluates
  the Eq. 13 thresholds ``(c''/a'') * b''`` of every candidate, shifted by
  the :func:`~repro.core.selection.key_offsets` the executor uses;
* each candidate's sketch count and stretch come from those thresholds
  and the :func:`~repro.core.selection.key_sketch` of the keys it would
  store, as the collection's counted router computes them, so the
  simulated routing decision is the executor's routing decision;
* predicted |II| comes from the
  :func:`~repro.core.selection.interval_probes` that
  :meth:`repro.core.planar.PlanarIndex.interval_ranks` calls — the same
  :func:`repro.core.exact.key_band` guard band and float32 probes — and
  the same ``searchsorted(side="right")`` rank search, against keys
  ``<c, phi(x)>`` computed and rounded to float32 the way a freshly built
  index stores them.

Because an applied plan only calls the existing ``add_index`` /
``drop_index`` lifecycle, query *results* are unaffected by construction:
every Planar index answers exactly; tuning only changes how much work the
answer costs.

Candidates
----------
Three pools, in fixed order (order matters — redundancy dedupe and greedy
tie-breaks both prefer earlier rows, so existing normals survive ties and
plans churn minimally):

1. the collection's current normals (keeping one is free),
2. the distinct normals of the recorded queries themselves (a parallel
   index has |II| ~ 0 for its query — Corollary 1),
3. fresh normals sampled from the query model under a caller-fixed seed.

Determinism: a fixed recorded workload and a fixed seed produce the same
:class:`TuningPlan`, bit for bit — greedy argmin ties break on the lowest
candidate row, and all candidate pools are ordered.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.collection import PlanarIndexCollection, dedupe_parallel_normals
from ..core.planar import WorkingQuery
from ..core.query import ScalarProductQuery
from ..core.selection import (
    interval_probes,
    key_offsets,
    key_sketch,
    sketch_counts,
    thresholds,
)
from ..core.sorted_keys import KEY_DTYPE, as_keys
from ..exceptions import InvalidQueryError, TuningError
from ..obs import metrics as _om
from ..obs import runtime as _ort
from ..obs import spans as _osp
from .recorder import QuerySketch, global_recorder

__all__ = [
    "PLAN_FORMAT_VERSION",
    "PlanAction",
    "TuningPlan",
    "Advisor",
    "apply_plan",
    "save_plan",
    "load_plan",
]

#: On-disk tuning-plan format version (see ``docs/persistence.md``).
PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PlanAction:
    """One add/drop step of a :class:`TuningPlan`.

    Attributes
    ----------
    action:
        ``"add"`` (append a new index) or ``"drop"`` (remove an existing
        one).
    normal:
        The index normal (original coordinates) the action concerns.
    position:
        For drops, the index position *in the plan's baseline*; ``-1``
        for adds (they append).
    predicted_ii_delta:
        Predicted change of the workload-mean |II| attributable to this
        action (negative = improvement), from the advisor's simulation.
    """

    action: str
    normal: tuple[float, ...]
    position: int = -1
    predicted_ii_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("add", "drop"):
            raise TuningError(f"unknown plan action {self.action!r}")
        object.__setattr__(
            self, "normal", tuple(float(c) for c in self.normal)
        )
        object.__setattr__(self, "position", int(self.position))
        object.__setattr__(
            self, "predicted_ii_delta", float(self.predicted_ii_delta)
        )


@dataclass(frozen=True)
class TuningPlan:
    """Advisor output: a validated, replayable portfolio change.

    The plan records the collection's normals at advise time
    (``baseline_normals``).  :func:`apply_plan` refuses to run against an
    index whose normals no longer match the baseline, so a stale plan can
    never scramble positions.  ``actions`` lists adds before drops; drops
    carry baseline positions and are applied in descending position order
    (adds append, so baseline positions stay valid throughout).
    """

    baseline_normals: tuple[tuple[float, ...], ...]
    portfolio_normals: tuple[tuple[float, ...], ...]
    actions: tuple[PlanAction, ...]
    predicted_ii_before: float
    predicted_ii_after: float
    n_queries: int
    n_points: int
    budget: int
    n_candidates: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "baseline_normals",
            tuple(tuple(float(c) for c in row) for row in self.baseline_normals),
        )
        object.__setattr__(
            self,
            "portfolio_normals",
            tuple(tuple(float(c) for c in row) for row in self.portfolio_normals),
        )
        object.__setattr__(self, "actions", tuple(self.actions))

    # ------------------------------------------------------------------ #

    @property
    def adds(self) -> tuple[PlanAction, ...]:
        """The ``add`` actions, in application order."""
        return tuple(a for a in self.actions if a.action == "add")

    @property
    def drops(self) -> tuple[PlanAction, ...]:
        """The ``drop`` actions, in descending-position application order."""
        return tuple(a for a in self.actions if a.action == "drop")

    @property
    def predicted_reduction(self) -> float:
        """Predicted relative reduction of the workload-mean |II|."""
        if self.predicted_ii_before <= 0.0:
            return 0.0
        return 1.0 - self.predicted_ii_after / self.predicted_ii_before

    def is_noop(self) -> bool:
        """Whether applying this plan would change nothing."""
        return not self.actions

    def to_dict(self) -> dict:
        """JSON-ready representation (see :func:`save_plan`)."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "baseline_normals": [list(row) for row in self.baseline_normals],
            "portfolio_normals": [list(row) for row in self.portfolio_normals],
            "actions": [
                {
                    "action": a.action,
                    "normal": list(a.normal),
                    "position": a.position,
                    "predicted_ii_delta": a.predicted_ii_delta,
                }
                for a in self.actions
            ],
            "predicted_ii_before": self.predicted_ii_before,
            "predicted_ii_after": self.predicted_ii_after,
            "n_queries": self.n_queries,
            "n_points": self.n_points,
            "budget": self.budget,
            "n_candidates": self.n_candidates,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        version = payload.get("format_version")
        if version != PLAN_FORMAT_VERSION:
            raise TuningError(f"unsupported tuning plan version {version!r}")
        try:
            return cls(
                baseline_normals=tuple(
                    tuple(row) for row in payload["baseline_normals"]
                ),
                portfolio_normals=tuple(
                    tuple(row) for row in payload["portfolio_normals"]
                ),
                actions=tuple(
                    PlanAction(
                        action=entry["action"],
                        normal=tuple(entry["normal"]),
                        position=entry.get("position", -1),
                        predicted_ii_delta=entry.get("predicted_ii_delta", 0.0),
                    )
                    for entry in payload["actions"]
                ),
                predicted_ii_before=float(payload["predicted_ii_before"]),
                predicted_ii_after=float(payload["predicted_ii_after"]),
                n_queries=int(payload["n_queries"]),
                n_points=int(payload["n_points"]),
                budget=int(payload["budget"]),
                n_candidates=int(payload["n_candidates"]),
                seed=int(payload["seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningError(f"malformed tuning plan payload: {exc}") from exc

    def save(self, path: str | Path) -> Path:
        """Persist this plan as JSON (see :func:`save_plan`)."""
        return save_plan(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "TuningPlan":
        """Read a plan back from a :meth:`save` file."""
        return load_plan(path)

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"tuning plan: budget {self.budget}, "
            f"{len(self.baseline_normals)} -> {len(self.portfolio_normals)} indices, "
            f"{self.n_queries} workload queries over {self.n_points} points",
            f"predicted mean |II|: {self.predicted_ii_before:,.1f} -> "
            f"{self.predicted_ii_after:,.1f} "
            f"({self.predicted_reduction:+.1%} reduction)",
        ]
        for a in self.actions:
            where = "" if a.position < 0 else f" @ position {a.position}"
            lines.append(
                f"  {a.action}{where}: normal {list(a.normal)} "
                f"(predicted mean |II| delta {a.predicted_ii_delta:+,.1f})"
            )
        if not self.actions:
            lines.append("  (no changes — current portfolio already best)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Plan persistence (JSON; see docs/persistence.md)
# --------------------------------------------------------------------- #


def save_plan(plan: TuningPlan, path: str | Path) -> Path:
    """Write ``plan`` to ``path`` as versioned JSON.

    The write is crash-safe: temp file + atomic replace, so a crash
    mid-save never leaves a half-written plan (see ``docs/reliability.md``).
    """
    from ..reliability.atomic import atomic_write_text

    path = Path(path)
    atomic_write_text(
        path, json.dumps(plan.to_dict(), indent=2) + "\n", artifact="plan"
    )
    return path


def load_plan(path: str | Path) -> TuningPlan:
    """Read a :func:`save_plan` file back into a :class:`TuningPlan`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TuningError(f"cannot read tuning plan {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise TuningError(f"tuning plan {path} is not a JSON object")
    return TuningPlan.from_dict(payload)


# --------------------------------------------------------------------- #
# Facade resolution (FunctionIndex and ShardedFunctionIndex duck-typed)
# --------------------------------------------------------------------- #


def _primary_collection(index) -> PlanarIndexCollection:
    """The (first-shard) collection behind a facade.

    Shards of a :class:`~repro.parallel.engine.ShardedFunctionIndex`
    share one translator and identical normals, so shard 0 describes the
    whole engine's portfolio.
    """
    if hasattr(index, "collections"):
        return index.collections[0]
    if hasattr(index, "collection"):
        return index.collection
    if isinstance(index, PlanarIndexCollection):
        raise TuningError(
            "advise against the FunctionIndex / ShardedFunctionIndex facade, "
            "not the raw collection (the facade owns the query model and "
            "feature store the advisor needs)"
        )
    raise TuningError(
        f"cannot tune {type(index).__name__}: expected a FunctionIndex or "
        "ShardedFunctionIndex"
    )


def _working_queries(
    sketches: Sequence[QuerySketch], translator, dim: int
) -> list[WorkingQuery]:
    """Canonicalized working queries for the octant-servable sketches.

    Octant-incompatible sketches are skipped: those queries bypass the
    Planar machinery entirely (scan fallback), so no normal choice can
    change their cost.  Dimension-mismatched sketches are skipped for the
    same reason (they belong to a different index's workload).
    """
    out: list[WorkingQuery] = []
    for sketch in sketches:
        if sketch.dim != dim:
            continue
        query = ScalarProductQuery(sketch.normal, sketch.offset, sketch.op)
        try:
            out.append(WorkingQuery.build(query, translator))
        except InvalidQueryError:
            continue
    return out


@dataclass(frozen=True)
class _Simulation:
    """Per-candidate, per-query cost matrices over the recorded workload.

    ``score[j, q]`` ranks candidate ``j`` for query ``q`` as the counted
    router does (lower wins): its sketch count first, its stretch second,
    as one integer.  ``ii[j, q]`` is its predicted intermediate interval
    size.  ``n_points`` is the full-scan cost a query pays when no
    selected index exists (the empty-portfolio baseline).
    """

    score: np.ndarray
    ii: np.ndarray
    n_points: int

    def fold(self, order: Sequence[int]) -> np.ndarray:
        """Per-query cost of routing through candidates in ``order``.

        Folding with a strict ``<`` in portfolio order replicates the
        executor's ``argmin`` (first index wins ties), so the predicted
        cost of a portfolio equals what the counted router would
        actually charge.
        """
        n_queries = self.score.shape[1]
        best_score = np.full(n_queries, np.inf)
        cost = np.full(n_queries, float(self.n_points))
        for j in order:
            better = self.score[j] < best_score
            best_score = np.where(better, self.score[j], best_score)
            cost = np.where(better, self.ii[j], cost)
        return cost


class Advisor:
    """Scores candidate normals against a recorded workload and plans.

    Parameters
    ----------
    index:
        A live :class:`~repro.core.function_index.FunctionIndex` or
        :class:`~repro.parallel.engine.ShardedFunctionIndex`.
    sketches:
        The workload to fit.  Defaults to the global
        :func:`~repro.tuning.recorder.global_recorder`'s retained
        sketches.
    max_points:
        Optional cap on the number of feature rows used in the
        simulation (a deterministic, seeded subsample).  ``None`` uses
        every live point.
    """

    def __init__(
        self,
        index,
        sketches: Sequence[QuerySketch] | None = None,
        max_points: int | None = None,
    ) -> None:
        self._index = index
        self._collection = _primary_collection(index)
        self._sketches = tuple(
            sketches if sketches is not None else global_recorder().sketches()
        )
        if not self._sketches:
            raise TuningError(
                "no recorded workload: arm REPRO_TUNE_RECORD=1 (or call "
                "repro.tuning.enable_recording()) and answer some queries, "
                "or pass sketches explicitly"
            )
        if max_points is not None and max_points <= 0:
            raise TuningError(f"max_points must be positive, got {max_points}")
        self._max_points = max_points

    @property
    def sketches(self) -> tuple[QuerySketch, ...]:
        """The workload sketches this advisor fits."""
        return self._sketches

    # ------------------------------------------------------------------ #
    # Candidate assembly
    # ------------------------------------------------------------------ #

    def _candidate_normals(
        self, queries: Sequence[WorkingQuery], n_candidates: int, seed: int
    ) -> tuple[np.ndarray, int]:
        """Deduped candidate matrix and the count of surviving existing rows.

        Existing normals occupy the leading rows; the collection already
        guarantees they are mutually non-parallel, so all of them survive
        :func:`dedupe_parallel_normals` (which keeps first occurrences)
        and later rows parallel to an existing normal are folded away.
        """
        existing = self._collection.normals
        n_existing = existing.shape[0]
        pools = [existing]
        if queries:
            # The canonicalized query normals themselves: for each, a
            # parallel index would have zero stretch and |II| ~ 0
            # (Corollary 1), so these are the strongest candidates a
            # concentrated workload can ask for.
            pools.append(np.vstack([wq.query.normal for wq in queries]))
        if n_candidates > 0:
            model = self._index.query_model
            pools.append(
                model.sample_normals(n_candidates, np.random.default_rng(seed))
            )
        stacked = np.vstack(pools)
        # Candidates must fit the indexed octant (existing ones do by
        # construction; recorded normals were canonicalized against the
        # same translator; model samples match by domain signs) — but a
        # caller-supplied sketch set can contain anything, so filter.
        octant = self._index.translator.octant
        compatible = np.all(stacked * octant > 0.0, axis=1) & np.all(
            np.isfinite(stacked), axis=1
        )
        stacked = stacked[compatible]
        keep = dedupe_parallel_normals(stacked)
        candidates = np.ascontiguousarray(stacked[keep])
        return candidates, n_existing

    # ------------------------------------------------------------------ #
    # Cost simulation (the paper's own estimators, vectorized)
    # ------------------------------------------------------------------ #

    def _simulate(
        self, candidates: np.ndarray, queries: Sequence[WorkingQuery]
    ) -> _Simulation:
        """Predict the routing score and |II| of every candidate for every query.

        Calls the executor's own threshold, band and probe functions (see
        the module docstring) over the ``(d', candidates)`` column stack,
        one query at a time.
        """
        translator = self._index.translator
        working_columns = np.ascontiguousarray((candidates * translator.octant).T)
        offsets = key_offsets(working_columns, translator.delta)

        ids = self._index.live_ids()
        if self._max_points is not None and ids.size > self._max_points:
            # Deterministic subsample: seeded by the cap so repeated
            # advise() calls see the same rows.
            picker = np.random.default_rng(self._max_points)
            ids = np.sort(
                picker.choice(ids, size=self._max_points, replace=False)
            )
        feats = self._index.get_features(ids)
        # Bulk candidate keying — the same float32 <c, phi(x)> a fresh
        # PlanarIndex would store, all candidates at once.
        keys = feats @ candidates.T  # repro: noqa(REP001) — advisor bulk keying, one matmul by design
        keys = np.sort(as_keys(keys), axis=0)
        n_points = feats.shape[0]
        sketch = key_sketch(keys)

        n_candidates = candidates.shape[0]
        shape = (n_candidates, len(queries))
        score = np.empty(shape)
        probe_lo = np.empty(shape, dtype=KEY_DTYPE)
        probe_hi = np.empty(shape, dtype=KEY_DTYPE)
        for position, wq in enumerate(queries):
            th = thresholds(working_columns, offsets, wq)
            # The dense stretch rank breaks count ties as the router does.
            stretch_rank = np.unique(th.stretch, return_inverse=True)[1]
            score[:, position] = sketch_counts(th, sketch) * n_candidates + stretch_rank
            probe_lo[:, position], probe_hi[:, position] = interval_probes(th, wq)
        ii = np.empty(shape)
        for j in range(n_candidates):
            column = keys[:, j]
            lo = np.searchsorted(column, probe_lo[j], side="right")
            ii[j] = np.searchsorted(column, probe_hi[j], side="right") - lo
        return _Simulation(score=score, ii=ii, n_points=n_points)

    # ------------------------------------------------------------------ #
    # Greedy portfolio selection
    # ------------------------------------------------------------------ #

    def advise(
        self,
        budget: int | None = None,
        n_candidates: int = 64,
        seed: int = 0,
    ) -> TuningPlan:
        """Plan the best ``budget``-normal portfolio for the workload.

        Greedy set selection: start from the empty portfolio (every query
        pays a full scan), and at each of ``budget`` steps admit the
        candidate whose admission minimizes the total routed |II| over
        the workload, simulating the counted router exactly.  Ties
        break toward the lowest candidate row — existing normals first —
        so an already-optimal portfolio yields a no-op plan.

        Deterministic: same index normals + same sketches + same ``seed``
        (and ``n_candidates``) produce the identical plan.  Never mutates
        the index.
        """
        obs_on = _ort.ENABLED
        started = time.perf_counter() if obs_on else 0.0
        if budget is None:
            budget = self._collection.normals.shape[0]
        if budget <= 0:
            raise TuningError(f"index budget must be positive, got {budget}")
        if n_candidates < 0:
            raise TuningError(
                f"n_candidates must be nonnegative, got {n_candidates}"
            )
        translator = self._index.translator
        dim = self._collection.normals.shape[1]
        queries = _working_queries(self._sketches, translator, dim)
        if not queries:
            raise TuningError(
                "recorded workload contains no octant-servable queries of "
                f"dimension {dim}; nothing to fit"
            )

        candidates, n_existing = self._candidate_normals(
            queries, n_candidates, seed
        )
        sim = self._simulate(candidates, queries)
        n_queries = len(queries)

        # Baseline: the current portfolio routed exactly as the executor
        # routes it (existing candidates are rows [0, n_existing)).
        baseline_cost = sim.fold(range(n_existing))
        ii_before = float(baseline_cost.mean())

        # Greedy admission.
        n_total = candidates.shape[0]
        available = np.ones(n_total, dtype=bool)
        best_score = np.full(n_queries, np.inf)
        current_cost = np.full(n_queries, float(sim.n_points))
        selected: list[int] = []
        admission_delta: dict[int, float] = {}
        for _ in range(min(budget, n_total)):
            covered = sim.score < best_score[np.newaxis, :]
            totals = np.where(covered, sim.ii, current_cost[np.newaxis, :]).sum(
                axis=1
            )
            totals[~available] = np.inf
            j = int(np.argmin(totals))
            admission_delta[j] = (totals[j] - current_cost.sum()) / n_queries
            selected.append(j)
            available[j] = False
            better = sim.score[j] < best_score
            best_score = np.where(better, sim.score[j], best_score)
            current_cost = np.where(better, sim.ii[j], current_cost)

        # Final portfolio in *application* order: surviving existing
        # normals keep their baseline positions, adds append.
        kept_existing = sorted(j for j in selected if j < n_existing)
        added = [j for j in selected if j >= n_existing]
        order = kept_existing + added
        after_cost = sim.fold(order)
        ii_after = float(after_cost.mean())

        actions: list[PlanAction] = []
        for j in added:
            actions.append(
                PlanAction(
                    action="add",
                    normal=tuple(candidates[j]),
                    position=-1,
                    predicted_ii_delta=admission_delta[j],
                )
            )
        dropped = [j for j in range(n_existing) if j not in set(kept_existing)]
        for j in dropped:
            # Predicted cost of the drop: mean |II| with the final
            # portfolio minus mean |II| had this index been kept too
            # (>= 0: keeping an extra index can only help routing).
            with_it = sim.fold(sorted(kept_existing + [j]) + added)
            actions.append(
                PlanAction(
                    action="drop",
                    normal=tuple(candidates[j]),
                    position=j,
                    predicted_ii_delta=ii_after - float(with_it.mean()),
                )
            )

        plan = TuningPlan(
            baseline_normals=tuple(
                tuple(row) for row in self._collection.normals
            ),
            portfolio_normals=tuple(tuple(candidates[j]) for j in order),
            actions=tuple(actions),
            predicted_ii_before=ii_before,
            predicted_ii_after=ii_after,
            n_queries=n_queries,
            n_points=sim.n_points,
            budget=int(budget),
            n_candidates=int(n_candidates),
            seed=int(seed),
        )
        if obs_on:
            _osp.record(
                "tune.advise",
                started,
                n_queries=n_queries,
                n_actions=len(actions),
            )
            _om.tuning_plans_total().inc(action="advise")
            gauge = _om.tuning_predicted_ii_mean()
            gauge.set(ii_before, stage="baseline")
            gauge.set(ii_after, stage="proposed")
        return plan


# --------------------------------------------------------------------- #
# Plan application
# --------------------------------------------------------------------- #


def apply_plan(index, plan: TuningPlan, dry_run: bool = False) -> dict:
    """Apply (or dry-run) a :class:`TuningPlan` against a live facade.

    Validates that the facade's current normals still match the plan's
    recorded baseline — bit for bit — and raises :class:`TuningError`
    otherwise, so a plan advised yesterday cannot scramble an index that
    changed overnight.  Adds run first (appending keeps baseline
    positions stable), then drops in descending baseline position.

    For a :class:`~repro.parallel.engine.ShardedFunctionIndex` the
    facade's own ``add_index`` / ``drop_index`` fan each action out to
    every shard, so all shards stay normal-identical.

    ``dry_run`` never mutates: it only validates and summarizes.
    Returns a summary dict (``applied``, ``added``, ``dropped``,
    predicted |II| before/after).
    """
    obs_on = _ort.ENABLED
    started = time.perf_counter() if obs_on else 0.0
    collection = _primary_collection(index)
    baseline = np.asarray(plan.baseline_normals, dtype=np.float64)
    current = collection.normals
    if baseline.shape != current.shape or not np.array_equal(baseline, current):
        raise TuningError(
            "tuning plan is stale: the index's normals no longer match the "
            f"plan's baseline (baseline {baseline.shape[0]} normals, live "
            f"{current.shape[0]}); re-run advise against the live index"
        )
    adds = plan.adds
    drops = sorted(plan.drops, key=lambda a: a.position, reverse=True)
    if not dry_run:
        for action in adds:
            index.add_index(np.asarray(action.normal, dtype=np.float64))
        for action in drops:
            # Adds appended at the end, so baseline positions are intact;
            # descending order keeps later positions valid as we go.
            index.drop_index(action.position)
    summary = {
        "applied": not dry_run,
        "dry_run": bool(dry_run),
        "added": len(adds),
        "dropped": len(drops),
        "n_indices": (
            len(plan.portfolio_normals) if not dry_run else baseline.shape[0]
        ),
        "predicted_ii_before": plan.predicted_ii_before,
        "predicted_ii_after": plan.predicted_ii_after,
        "predicted_reduction": plan.predicted_reduction,
    }
    if obs_on:
        _osp.record(
            "tune.apply", started, dry_run=bool(dry_run), n_actions=len(plan.actions)
        )
        _om.tuning_plans_total().inc(
            action="dry_run" if dry_run else "apply"
        )
    return summary
