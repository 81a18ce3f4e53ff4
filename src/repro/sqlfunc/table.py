"""A tiny relational layer with Planar function indexes (Example 1).

:class:`Table` stores named numeric columns.  ``create_function_index``
compiles a parameterised expression into scalar product form, materialises
its ``phi`` components, and builds a :class:`~repro.core.FunctionIndex`
over them — the analogue of::

    CREATE FUNCTION Critical_Consume (INPUT double threshold ...)
    WHERE active_power - threshold * voltage * current <= 0

Row appends and in-place updates propagate to every function index
registered on the table, exercising the paper's dynamic-maintenance path
(Section 4.4).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .._util import as_1d_float
from ..core.domains import ParameterDomain, QueryModel
from ..core.function_index import FunctionIndex, QueryAnswer
from ..core.phi import identity_map
from ..core.query import Comparison
from ..core.selection import SelectionStrategy
from ..core.topk import TopKResult
from ..exceptions import DimensionMismatchError, UnknownColumnError
from .compile import ScalarProductForm, compile_expression

__all__ = ["Table", "FunctionIndexHandle"]


class Table:
    """An in-memory table of named float64 columns."""

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            arr = as_1d_float(values, f"column {name!r}")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise DimensionMismatchError(
                    f"column {name!r} has {arr.size} rows, expected {length}"
                )
            self._columns[str(name)] = arr.copy()
        self._handles: list[FunctionIndexHandle] = []

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(next(iter(self._columns.values())).size)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(n={len(self)}, columns={self.column_names})"

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in insertion order."""
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        """One column as a read-only view."""
        try:
            view = self._columns[name].view()
        except KeyError:
            raise UnknownColumnError(name) from None
        view.setflags(write=False)
        return view

    def env(self) -> dict[str, np.ndarray]:
        """Column environment for expression evaluation."""
        return dict(self._columns)

    # ------------------------------------------------------------------ #
    # Direct (scan) evaluation
    # ------------------------------------------------------------------ #

    def filter(
        self,
        expression: str,
        params: Sequence[float] = (),
        op: Comparison | str = Comparison.LE,
        rhs: float = 0.0,
    ) -> np.ndarray:
        """Row indices where ``expression(params) OP rhs`` — sequential scan."""
        form = compile_expression(expression)
        self._check_columns(form)
        values = form.evaluate(self.env(), params)
        values = np.broadcast_to(values, len(self))
        mask = Comparison.parse(op).evaluate(values, float(rhs))
        return np.nonzero(mask)[0].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Function indexes
    # ------------------------------------------------------------------ #

    def _check_columns(self, form: ScalarProductForm) -> None:
        missing = sorted(form.columns() - set(self._columns))
        if missing:
            raise UnknownColumnError(missing[0])

    def create_function_index(
        self,
        expression: str,
        param_domains: Sequence[ParameterDomain],
        rhs: float = 0.0,
        n_indices: int = 10,
        strategy: SelectionStrategy | str = SelectionStrategy.COUNTED,
        rng: np.random.Generator | int | None = None,
    ) -> "FunctionIndexHandle":
        """Compile ``expression`` and build a Planar function index for it.

        ``param_domains`` give the anticipated domain of each ``?`` in
        source order (Section 4.1); they drive octant derivation and index
        normal sampling.  The handle answers ``expression OP rhs`` for any
        comparison ``OP`` and parameter binding.
        """
        form = compile_expression(expression)
        self._check_columns(form)
        if len(param_domains) != form.n_params:
            raise DimensionMismatchError(
                f"expression has {form.n_params} parameter(s), "
                f"got {len(param_domains)} domain(s)"
            )
        domains = list(param_domains)
        if form.has_base:
            domains = [ParameterDomain(values=[1.0]), *domains]
        model = QueryModel(domains)
        features = form.feature_matrix(self.env(), len(self))
        index = FunctionIndex(
            features,
            model,
            feature_map=identity_map(form.phi_dim),
            n_indices=n_indices,
            strategy=strategy,
            rng=rng,
        )
        handle = FunctionIndexHandle(self, form, index, float(rhs))
        self._handles.append(handle)
        return handle

    def drop_function_index(self, handle: "FunctionIndexHandle") -> None:
        """Unregister a function index from update propagation."""
        self._handles.remove(handle)

    # ------------------------------------------------------------------ #
    # Mutation (propagates to registered indexes)
    # ------------------------------------------------------------------ #

    def _coerce_rows(self, rows: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        unknown = sorted(set(rows) - set(self._columns))
        if unknown:
            raise UnknownColumnError(unknown[0])
        missing = sorted(set(self._columns) - set(rows))
        if missing:
            raise DimensionMismatchError(f"missing values for column {missing[0]!r}")
        coerced = {name: as_1d_float(vals, f"column {name!r}") for name, vals in rows.items()}
        sizes = {arr.size for arr in coerced.values()}
        if len(sizes) != 1:
            raise DimensionMismatchError(f"ragged row batch: sizes {sorted(sizes)}")
        return coerced

    def append_rows(self, rows: Mapping[str, np.ndarray]) -> np.ndarray:
        """Append a batch of rows; returns their new row indices."""
        coerced = self._coerce_rows(rows)
        start = len(self)
        count = next(iter(coerced.values())).size
        for name in self._columns:
            self._columns[name] = np.concatenate([self._columns[name], coerced[name]])
        new_ids = np.arange(start, start + count, dtype=np.int64)
        for handle in self._handles:
            handle._on_rows_appended(new_ids)
        return new_ids

    def update_rows(self, row_indices: np.ndarray, rows: Mapping[str, np.ndarray]) -> None:
        """Overwrite existing rows in the given columns (others unchanged)."""
        row_indices = np.ascontiguousarray(row_indices, dtype=np.int64)
        if row_indices.size and (row_indices.min() < 0 or row_indices.max() >= len(self)):
            raise IndexError(f"row index out of range [0, {len(self)})")
        unknown = sorted(set(rows) - set(self._columns))
        if unknown:
            raise UnknownColumnError(unknown[0])
        for name, values in rows.items():
            arr = as_1d_float(values, f"column {name!r}")
            if arr.size != row_indices.size:
                raise DimensionMismatchError(
                    f"column {name!r}: {arr.size} values for {row_indices.size} rows"
                )
            self._columns[name][row_indices] = arr
        for handle in self._handles:
            handle._on_rows_updated(row_indices)


class FunctionIndexHandle:
    """A live Planar function index over one table expression."""

    def __init__(
        self,
        table: Table,
        form: ScalarProductForm,
        index: FunctionIndex,
        rhs: float,
    ) -> None:
        self._table = table
        self._form = form
        self._index = index
        self._rhs = rhs

    # ------------------------------------------------------------------ #

    @property
    def form(self) -> ScalarProductForm:
        """The compiled scalar-product decomposition."""
        return self._form

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the indexed ``phi`` components."""
        return self._form.feature_names

    @property
    def rhs(self) -> float:
        """Default right-hand side of the indexed inequality."""
        return self._rhs

    @property
    def index(self) -> FunctionIndex:
        """The underlying :class:`FunctionIndex`."""
        return self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionIndexHandle(expr={self._form.expr}, n={len(self._index)})"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(
        self,
        params: Sequence[float],
        op: Comparison | str = Comparison.LE,
        rhs: float | None = None,
    ) -> QueryAnswer:
        """Row indices with ``expression(params) OP rhs`` via the Planar index."""
        normal = self._form.query_normal(params)
        offset = self._rhs if rhs is None else float(rhs)
        return self._index.query(normal, offset, op)

    def topk(
        self,
        params: Sequence[float],
        k: int,
        op: Comparison | str = Comparison.LE,
        rhs: float | None = None,
    ) -> TopKResult:
        """Top-k satisfying rows closest to the expression's zero set."""
        normal = self._form.query_normal(params)
        offset = self._rhs if rhs is None else float(rhs)
        return self._index.topk(normal, offset, k, op)

    def scan(
        self,
        params: Sequence[float],
        op: Comparison | str = Comparison.LE,
        rhs: float | None = None,
    ) -> np.ndarray:
        """Oracle answer by direct expression evaluation (sequential scan)."""
        offset = self._rhs if rhs is None else float(rhs)
        values = np.broadcast_to(
            self._form.evaluate(self._table.env(), params), len(self._table)
        )
        mask = Comparison.parse(op).evaluate(values, offset)
        return np.nonzero(mask)[0].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Update propagation (called by Table)
    # ------------------------------------------------------------------ #

    def _feature_rows(self, row_indices: np.ndarray) -> np.ndarray:
        env = {name: col[row_indices] for name, col in self._table.env().items()}
        return self._form.feature_matrix(env, row_indices.size)

    def _on_rows_appended(self, new_ids: np.ndarray) -> None:
        assigned = self._index.insert_points(self._feature_rows(new_ids))
        if not np.array_equal(assigned, new_ids):  # pragma: no cover - invariant
            raise RuntimeError("table rows and index ids diverged")

    def _on_rows_updated(self, row_indices: np.ndarray) -> None:
        self._index.update_points(row_indices, self._feature_rows(row_indices))
