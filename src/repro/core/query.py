"""Scalar product queries (Problem 1 and Problem 2 of the paper).

A scalar product query asks for all data points ``x`` with
``<a, phi(x)> OP b`` where ``OP`` is one of ``<=``, ``<``, ``>=``, ``>``.
The parameters ``a`` (the query normal) and ``b`` (the inequality offset)
are only known at query time; ``phi`` is fixed and indexed ahead of time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .._util import describe_nonfinite
from ..exceptions import DimensionMismatchError, InvalidQueryError
from ..geometry.hyperplane import Hyperplane
from . import exact

__all__ = ["Comparison", "ScalarProductQuery", "TopKQuery"]


class Comparison(enum.Enum):
    """Inequality direction of a scalar product query."""

    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"

    @classmethod
    def parse(cls, op: "Comparison | str") -> "Comparison":
        """Accept either a :class:`Comparison` or its textual form."""
        if isinstance(op, Comparison):
            return op
        try:
            return _BY_TEXT[op]
        except (KeyError, TypeError):
            valid = ", ".join(repr(member.value) for member in cls)
            raise InvalidQueryError(f"unknown comparison {op!r}; expected one of {valid}") from None

    @property
    def is_upper_bound(self) -> bool:
        """True for ``<=`` / ``<`` (the result set lies below the hyperplane)."""
        return self in (Comparison.LE, Comparison.LT)

    @property
    def is_strict(self) -> bool:
        """True for the strict variants ``<`` and ``>``."""
        return self in (Comparison.LT, Comparison.GT)

    def flipped(self) -> "Comparison":
        """The comparison obtained by negating both sides of the inequality."""
        return _FLIPPED[self]

    def evaluate(self, lhs: np.ndarray, rhs: float) -> np.ndarray:
        """Vectorized truth of ``lhs OP rhs``."""
        if self is Comparison.LE:
            return lhs <= rhs
        if self is Comparison.LT:
            return lhs < rhs
        if self is Comparison.GE:
            return lhs >= rhs
        return lhs > rhs


_BY_TEXT = {member.value: member for member in Comparison}

_FLIPPED = {
    Comparison.LE: Comparison.GE,
    Comparison.LT: Comparison.GT,
    Comparison.GE: Comparison.LE,
    Comparison.GT: Comparison.LT,
}


@dataclass(frozen=True)
class ScalarProductQuery:
    """An inequality query ``<a, phi(x)> OP b`` (Problem 1).

    Parameters
    ----------
    normal:
        The query parameters ``a`` — the normal of the query hyperplane
        ``H(q)`` in feature space.  Must be nonzero; individual zero
        components are allowed here (the index layer drops or rejects them
        depending on its configured domains).
    offset:
        The inequality parameter ``b``.
    op:
        The inequality direction (default ``<=``, as in the paper).
    """

    normal: np.ndarray
    offset: float
    op: Comparison = Comparison.LE

    def __post_init__(self) -> None:
        # A private copy: freezing the caller's own array (or a view of
        # it) would make it read-only for the caller, or let the caller's
        # later writes change this query.
        normal = np.array(self.normal, dtype=np.float64, order="C")
        if normal.ndim != 1:
            raise DimensionMismatchError(
                f"normal must be one-dimensional, got shape {normal.shape}"
            )
        # The largest |a_i| is NaN or infinite iff some a_i is, zero iff all are.
        peak = np.maximum.reduce(np.abs(normal)) if normal.size else 0.0
        if not peak < math.inf:
            raise InvalidQueryError(
                f"query normal must be finite; non-finite entries at "
                f"{describe_nonfinite(normal)}"
            )
        if peak == 0.0:
            raise InvalidQueryError("query normal must be nonzero")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise InvalidQueryError(f"query offset must be finite, got {offset!r}")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "op", Comparison.parse(self.op))

    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Dimensionality ``d'`` of the query (feature) space."""
        return int(self.normal.size)

    @property
    def hyperplane(self) -> Hyperplane:
        """The query hyperplane ``H(q): <a, Y> = b`` (Eq. 2), built when read."""
        return Hyperplane(self.normal, self.offset)

    def canonical(self) -> "ScalarProductQuery":
        """Equivalent query with nonnegative offset ``b`` (paper assumption).

        ``<a, y> OP b`` with ``b < 0`` is rewritten as
        ``<-a, y> flipped(OP) -b``.  The index layer canonicalizes every
        incoming query before octant checks, so callers may pass queries in
        either form.
        """
        if self.offset >= 0.0:
            return self
        return ScalarProductQuery(-self.normal, -self.offset, self.op.flipped())

    def evaluate(self, features: np.ndarray) -> np.ndarray:
        """Ground-truth boolean mask over feature rows, decided exactly.

        See :mod:`repro.core.exact`; the error bound comes from the column
        maxima of ``features``.
        """
        keep, values = exact.satisfying(features, self)
        mask = np.zeros(values.shape, dtype=bool)
        mask[keep] = True
        return mask

    def distance(self, features: np.ndarray) -> np.ndarray:
        """Hyperplane distance ``|<a, phi(x)> - b| / |a|`` per feature row."""
        return self.hyperplane.distance(features)

    def with_op(self, op: "Comparison | str") -> "ScalarProductQuery":
        """Copy of this query with a different comparison operator."""
        return ScalarProductQuery(self.normal.copy(), self.offset, Comparison.parse(op))


@dataclass(frozen=True)
class TopKQuery:
    """A top-k nearest neighbor query (Problem 2).

    Among points satisfying the inequality, report the ``k`` whose features
    lie closest to the query hyperplane.
    """

    query: ScalarProductQuery
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.query, ScalarProductQuery):
            raise InvalidQueryError("TopKQuery.query must be a ScalarProductQuery")
        if int(self.k) <= 0:
            raise InvalidQueryError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))

    @property
    def dim(self) -> int:
        """Dimensionality ``d'`` of the feature space."""
        return self.query.dim
