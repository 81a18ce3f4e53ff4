"""Advisor tests: determinism, correctness, lifecycle safety, persistence.

The acceptance bars of the tuning subsystem:

* results stay **bit-identical** through advise -> apply on both facades,
* the advised portfolio cuts the measured mean |II| by >= 25% on a
  skewed workload at equal budget,
* ``advise`` is deterministic and never mutates; ``dry_run`` never
  mutates,
* a stale plan (baseline mismatch) is refused.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import FunctionIndex, ShardedFunctionIndex, TuningError
from repro.tuning import (
    Advisor,
    PlanAction,
    QuerySketch,
    TuningPlan,
    apply_plan,
    enable_recording,
    load_plan,
    save_plan,
)
from repro.tuning.advisor import _working_queries


def _measured_ii(index, sketches):
    sizes, ids = [], []
    for sketch in sketches:
        answer = index.query(sketch.normal, sketch.offset, op=sketch.op)
        sizes.append(answer.stats.ii_size if answer.stats is not None else len(index))
        ids.append(answer.ids)
    return float(np.mean(sizes)), ids


class TestAdvise:
    def test_deterministic(self, index, skewed_sketches):
        advisor = Advisor(index, sketches=skewed_sketches)
        one = advisor.advise(budget=5, n_candidates=24, seed=3)
        two = advisor.advise(budget=5, n_candidates=24, seed=3)
        assert one.to_dict() == two.to_dict()

    def test_advise_never_mutates(self, index, skewed_sketches):
        before = index.collection.normals.copy()
        Advisor(index, sketches=skewed_sketches).advise(budget=5, n_candidates=16)
        assert np.array_equal(index.collection.normals, before)

    def test_predicted_matches_baseline_executor(self, index, skewed_sketches):
        """The plan's predicted baseline |II| is the executor's measured one."""
        plan = Advisor(index, sketches=skewed_sketches).advise(budget=5)
        measured, _ = _measured_ii(index, skewed_sketches)
        assert plan.predicted_ii_before == pytest.approx(measured)

    def test_predicted_ii_equals_interval_ranks(self, model):
        """The advisor replays the executor's float32 keys and probes: its
        predicted |II| for every (index, query) pair is ``interval_ranks``'
        on real-valued data, including near-duplicate rows whose keys lie
        fractions of a float32 ulp apart around the query thresholds."""
        rng = np.random.default_rng(9)
        base = rng.uniform(1.0, 100.0, size=(400, 4))
        centers = base[:20]
        steps = 1.0 + np.arange(-12, 13)[:, None, None] * 2.0 ** -27
        points = np.vstack([base, (centers[None] * steps).reshape(-1, 4)])
        index = FunctionIndex(points, model, n_indices=5, rng=0)
        sketches = [
            QuerySketch(planar.normal, float(center @ planar.normal), op)
            for planar in index.collection
            for center in centers[:6]
            for op in ("<=", ">")
        ]
        sketches += [
            QuerySketch(normal, float(points[row] @ normal))
            for normal, row in zip(model.sample_normals(12, rng), rng.integers(0, 400, 12))
        ]
        queries = _working_queries(sketches, index.translator, points.shape[1])
        simulation = Advisor(index, sketches=sketches)._simulate(
            index.collection.normals, queries
        )
        for row, planar in enumerate(index.collection):
            for column, wq in enumerate(queries):
                r_lo, r_hi, _ = planar.interval_ranks(wq)
                assert simulation.ii[row, column] == r_hi - r_lo

    def test_budget_and_candidates_validated(self, index, skewed_sketches):
        advisor = Advisor(index, sketches=skewed_sketches)
        with pytest.raises(TuningError):
            advisor.advise(budget=0)
        with pytest.raises(TuningError):
            advisor.advise(n_candidates=-1)

    def test_requires_workload(self, index):
        with pytest.raises(TuningError, match="no recorded workload"):
            Advisor(index, sketches=())

    def test_uses_global_recorder_by_default(self, index, model):
        enable_recording()
        index.query(model.sample_normal(0), 500.0)
        advisor = Advisor(index)
        assert len(advisor.sketches) == 1

    def test_rejects_raw_collection(self, index, skewed_sketches):
        with pytest.raises(TuningError, match="facade"):
            Advisor(index.collection, sketches=skewed_sketches)

    def test_skips_foreign_dimension_sketches(self, index, skewed_sketches):
        mixed = skewed_sketches + (QuerySketch([1.0, 2.0], 3.0),)
        plan = Advisor(index, sketches=mixed).advise(budget=5)
        assert plan.n_queries == len(skewed_sketches)

    def test_all_incompatible_workload_rejected(self, index):
        foreign = (QuerySketch([1.0, 2.0], 3.0),)
        with pytest.raises(TuningError, match="octant-servable"):
            Advisor(index, sketches=foreign).advise(budget=5)

    def test_max_points_subsample_deterministic(self, index, skewed_sketches):
        advisor = Advisor(index, sketches=skewed_sketches, max_points=500)
        one = advisor.advise(budget=5, seed=1)
        two = advisor.advise(budget=5, seed=1)
        assert one.to_dict() == two.to_dict()
        with pytest.raises(TuningError):
            Advisor(index, sketches=skewed_sketches, max_points=0)


class TestApply:
    def test_results_bit_identical_function_index(self, index, skewed_sketches):
        before_ii, before_ids = _measured_ii(index, skewed_sketches)
        plan = Advisor(index, sketches=skewed_sketches).advise(
            budget=5, n_candidates=32, seed=0
        )
        apply_plan(index, plan)
        after_ii, after_ids = _measured_ii(index, skewed_sketches)
        for one, two in zip(before_ids, after_ids):
            assert np.array_equal(one, two)
        # The skewed workload leaves >= 25% on the table for the advisor.
        assert after_ii <= 0.75 * before_ii
        assert after_ii == pytest.approx(plan.predicted_ii_after)

    def test_results_bit_identical_sharded(self, points, model, skewed_sketches):
        with ShardedFunctionIndex(
            points, model, n_indices=5, rng=0, n_shards=3
        ) as engine:
            before_ii, before_ids = _measured_ii(engine, skewed_sketches)
            plan = Advisor(engine, sketches=skewed_sketches).advise(
                budget=5, n_candidates=32, seed=0
            )
            apply_plan(engine, plan)
            after_ii, after_ids = _measured_ii(engine, skewed_sketches)
            for one, two in zip(before_ids, after_ids):
                assert np.array_equal(one, two)
            assert after_ii <= 0.75 * before_ii
            # Every shard converged to the same portfolio.
            reference = engine.collections[0].normals
            for collection in engine.collections[1:]:
                assert np.array_equal(collection.normals, reference)

    def test_sharded_plan_matches_monolithic_plan(
        self, points, model, skewed_sketches
    ):
        mono = FunctionIndex(points, model, n_indices=5, rng=0)
        with ShardedFunctionIndex(
            points, model, n_indices=5, rng=0, n_shards=3
        ) as engine:
            plan_mono = Advisor(mono, sketches=skewed_sketches).advise(
                budget=5, n_candidates=16, seed=2
            )
            plan_shard = Advisor(engine, sketches=skewed_sketches).advise(
                budget=5, n_candidates=16, seed=2
            )
        # Same data, same normals, same workload -> same portfolio (the
        # predicted |II| means differ only by shard-local subsampling,
        # which the advisor does not do — so everything matches).
        assert plan_mono.to_dict() == plan_shard.to_dict()

    def test_dry_run_never_mutates(self, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(budget=5)
        before = index.collection.normals.copy()
        summary = apply_plan(index, plan, dry_run=True)
        assert np.array_equal(index.collection.normals, before)
        assert summary["dry_run"] and not summary["applied"]
        # Still appliable afterwards: dry-run did not consume the plan.
        apply_plan(index, plan)
        assert index.n_indices == len(plan.portfolio_normals)

    def test_stale_plan_refused(self, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(budget=5)
        index.add_index(np.array([2.0, 2.0, 2.0, 2.0]))
        with pytest.raises(TuningError, match="stale"):
            apply_plan(index, plan)
        with pytest.raises(TuningError, match="stale"):
            apply_plan(index, plan, dry_run=True)

    def test_reapply_refused(self, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(
            budget=5, n_candidates=32
        )
        apply_plan(index, plan)
        if not plan.is_noop():
            with pytest.raises(TuningError, match="stale"):
                apply_plan(index, plan)

    def test_portfolio_matches_plan(self, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(
            budget=4, n_candidates=32
        )
        apply_plan(index, plan)
        assert np.array_equal(
            index.collection.normals, np.asarray(plan.portfolio_normals)
        )

    def test_apply_under_concurrent_queries(self, points, model, skewed_sketches):
        """Queries racing an advise -> apply stay exact throughout."""
        with ShardedFunctionIndex(
            points, model, n_indices=5, rng=0, n_shards=2
        ) as engine:
            oracle = {
                i: engine.query(s.normal, s.offset).ids
                for i, s in enumerate(skewed_sketches)
            }
            stop = threading.Event()
            failures: list[str] = []

            def hammer() -> None:
                position = 0
                while not stop.is_set():
                    sketch = skewed_sketches[position % len(skewed_sketches)]
                    got = engine.query(sketch.normal, sketch.offset).ids
                    if not np.array_equal(got, oracle[position % len(oracle)]):
                        failures.append(f"query {position} diverged")
                        return
                    position += 1

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                plan = Advisor(engine, sketches=skewed_sketches).advise(
                    budget=5, n_candidates=24
                )
                apply_plan(engine, plan)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not failures
            _, after_ids = _measured_ii(engine, skewed_sketches)
            for i, ids in enumerate(after_ids):
                assert np.array_equal(ids, oracle[i])


class TestPlan:
    def test_json_round_trip(self, tmp_path, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(
            budget=5, n_candidates=16, seed=4
        )
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path).to_dict() == plan.to_dict()

    def test_loaded_plan_applies(self, tmp_path, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(budget=5)
        path = plan.save(tmp_path / "plan.json")
        reloaded = TuningPlan.load(path)
        summary = apply_plan(index, reloaded)
        assert summary["applied"]

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(TuningError, match="not a JSON object"):
            load_plan(bad)
        bad.write_text("{nope")
        with pytest.raises(TuningError, match="cannot read"):
            load_plan(bad)

    def test_from_dict_rejects_versions_and_shapes(self):
        with pytest.raises(TuningError, match="version"):
            TuningPlan.from_dict({"format_version": 999})
        with pytest.raises(TuningError, match="malformed"):
            TuningPlan.from_dict({"format_version": 1, "actions": []})

    def test_action_validation(self):
        with pytest.raises(TuningError, match="unknown plan action"):
            PlanAction(action="replace", normal=(1.0,))

    def test_render_mentions_every_action(self, index, skewed_sketches):
        plan = Advisor(index, sketches=skewed_sketches).advise(
            budget=5, n_candidates=32
        )
        text = plan.render()
        assert "tuning plan" in text
        assert text.count("add") >= len(plan.adds)
        assert text.count("drop @ position") == len(plan.drops)

    def test_noop_plan_when_already_optimal(self, points, model, skewed_sketches):
        """Re-advising an already-advised index changes nothing."""
        index = FunctionIndex(points, model, n_indices=5, rng=0)
        advisor = Advisor(index, sketches=skewed_sketches)
        first = advisor.advise(budget=5, n_candidates=24, seed=0)
        apply_plan(index, first)
        second = Advisor(index, sketches=skewed_sketches).advise(
            budget=5, n_candidates=24, seed=0
        )
        assert second.is_noop()
        summary = apply_plan(index, second)
        assert summary["added"] == 0 and summary["dropped"] == 0
