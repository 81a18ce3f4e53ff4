"""Model-based stateful testing of the dynamic FunctionIndex.

A hypothesis ``RuleBasedStateMachine`` drives a :class:`FunctionIndex`
through random interleavings of point updates, inserts, deletes, index
additions, and queries of both problem types — checking every answer
against a plain-array model.  This is the kind of test that catches
sorted-order corruption, stale translator state, and id-bookkeeping bugs
that example-based tests miss.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import FunctionIndex, QueryModel, ScalarProductQuery

from ..conftest import brute_force_topk

DIM = 3
VALUE = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
POINT = st.lists(VALUE, min_size=DIM, max_size=DIM)


class FunctionIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        initial = rng.uniform(-10.0, 10.0, size=(50, DIM))
        self.model_points: dict[int, np.ndarray] = {
            i: initial[i].copy() for i in range(50)
        }
        self.query_model = QueryModel.uniform(dim=DIM, low=0.5, high=4.0)
        self.index = FunctionIndex(initial, self.query_model, n_indices=4, rng=0)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    @rule(point=POINT, data=st.data())
    def update_point(self, point, data):
        ids = sorted(self.model_points)
        target = data.draw(st.sampled_from(ids))
        values = np.asarray(point)
        self.index.update_points(np.array([target]), values.reshape(1, -1))
        self.model_points[target] = values

    @rule(point=POINT)
    def insert_point(self, point):
        values = np.asarray(point).reshape(1, -1)
        new_ids = self.index.insert_points(values)
        assert new_ids.size == 1
        assert int(new_ids[0]) not in self.model_points
        self.model_points[int(new_ids[0])] = values[0]

    @precondition(lambda self: len(self.model_points) > 5)
    @rule(data=st.data())
    def delete_point(self, data):
        ids = sorted(self.model_points)
        target = data.draw(st.sampled_from(ids))
        self.index.delete_points(np.array([target]))
        del self.model_points[target]

    @rule(seed=st.integers(0, 2**16))
    def add_index(self, seed):
        normal = self.query_model.sample_normal(seed)
        self.index.add_index(normal)

    # ------------------------------------------------------------------ #
    # Queries checked against the model
    # ------------------------------------------------------------------ #

    def _model_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.array(sorted(self.model_points), dtype=np.int64)
        rows = np.vstack([self.model_points[int(i)] for i in ids])
        return ids, rows

    @rule(
        seed=st.integers(0, 2**16),
        offset=st.floats(-100.0, 100.0, allow_nan=False),
        op=st.sampled_from(["<=", "<", ">=", ">"]),
    )
    def inequality_query(self, seed, offset, op):
        normal = self.query_model.sample_normal(seed)
        answer = self.index.query(normal, offset, op)
        ids, rows = self._model_arrays()
        expected = ids[ScalarProductQuery(normal, offset, op).evaluate(rows)]
        assert np.array_equal(answer.ids, expected)

    @rule(
        seed=st.integers(0, 2**16),
        offset=st.floats(-50.0, 50.0, allow_nan=False),
        k=st.integers(1, 10),
    )
    def topk_query(self, seed, offset, k):
        normal = self.query_model.sample_normal(seed)
        result = self.index.topk(normal, offset, k)
        ids, rows = self._model_arrays()
        _, expected = brute_force_topk(rows, ScalarProductQuery(normal, offset), k, ids)
        assert np.allclose(result.distances, expected, atol=1e-9)

    # ------------------------------------------------------------------ #

    @invariant()
    def sizes_agree(self):
        assert len(self.index) == len(self.model_points)

    @invariant()
    def every_index_sorted(self):
        for planar in self.index.collection:
            keys = planar._keys.sorted_keys
            assert np.all(np.diff(keys) >= 0)


TestFunctionIndexStateful = FunctionIndexMachine.TestCase
TestFunctionIndexStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
