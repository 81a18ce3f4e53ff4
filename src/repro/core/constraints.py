"""Conjunctive linear-constraint queries over multiple Planar indices.

The paper's Related Work (Section 2, "Linear constraint queries") notes
that a search region given by an intersection of half-spaces can be
answered with multiple Planar indices.  This module implements that idea:

For a conjunction ``AND_j <a_j, phi(x)> OP_j b_j``:

* a point inside *every* constraint's certain-accept interval is accepted
  without any scalar product,
* a point inside *any* constraint's certain-reject interval is rejected
  without any scalar product,
* the rest are verified — against the cheapest-to-falsify constraint
  first, so verification short-circuits.

All set algebra happens on sorted-rank intervals and id arrays, never on
per-point Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import InvalidQueryError
from .collection import PlanarIndexCollection
from .planar import QueryStats, WorkingQuery
from .query import ScalarProductQuery

__all__ = [
    "ConjunctiveQuery",
    "DisjunctiveQuery",
    "ConstraintAnswer",
    "answer_conjunction",
    "answer_disjunction",
]


@dataclass(frozen=True)
class _Constraints:
    """A non-empty combination of scalar product constraints of one dimension."""

    constraints: tuple[ScalarProductQuery, ...]

    _name = "conjunction"
    _combine = staticmethod(np.logical_and)

    def __init__(self, constraints: Sequence[ScalarProductQuery]) -> None:
        constraints = tuple(constraints)
        if not constraints:
            raise InvalidQueryError(f"a {self._name} needs at least one constraint")
        dims = {c.dim for c in constraints}
        if len(dims) != 1:
            raise InvalidQueryError(
                f"constraints disagree on dimensionality: {sorted(dims)}"
            )
        object.__setattr__(self, "constraints", constraints)

    @property
    def dim(self) -> int:
        """Feature-space dimensionality shared by all constraints."""
        return self.constraints[0].dim

    def __len__(self) -> int:
        return len(self.constraints)

    def evaluate(self, features: np.ndarray) -> np.ndarray:
        """Ground-truth mask of the combination (oracle semantics)."""
        mask = self.constraints[0].evaluate(features)
        for constraint in self.constraints[1:]:
            mask = self._combine(mask, constraint.evaluate(features))
        return mask


class ConjunctiveQuery(_Constraints):
    """A conjunction (AND) of scalar product constraints."""


class DisjunctiveQuery(_Constraints):
    """A disjunction (OR) of scalar product constraints."""

    _name = "disjunction"
    _combine = staticmethod(np.logical_or)


@dataclass(frozen=True)
class ConstraintAnswer:
    """Result of a conjunctive query with pruning diagnostics."""

    ids: np.ndarray
    n_verified: int
    n_total: int
    per_constraint: tuple[QueryStats, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", np.ascontiguousarray(self.ids, dtype=np.int64))

    @property
    def pruned_fraction(self) -> float:
        """Fraction of points decided purely by interval membership."""
        if self.n_total == 0:
            return 1.0
        return 1.0 - self.n_verified / self.n_total

    def __len__(self) -> int:
        return int(self.ids.size)


def _certain_sets(
    collection: PlanarIndexCollection, wq: WorkingQuery
) -> tuple[np.ndarray, np.ndarray, np.ndarray, QueryStats]:
    """(certain-accept ids, candidate ids, certain-reject ids, stats).

    Over live points of the planned index: its
    :meth:`~repro.core.planar.PlanarIndex._split` skips the write log's
    stale entries and makes its pending ids candidates.
    """
    plan = collection.plan(wq)
    index = plan.index
    part = index._split(index._log.state, plan.r_lo, plan.r_hi, below=True, above=True)
    if wq.op.is_upper_bound:
        accept, reject = part.below, part.above
    else:
        accept, reject = part.above, part.below
    stats = QueryStats(
        n_total=part.n,
        si_size=part.si,
        ii_size=part.ii,
        li_size=part.li,
        n_verified=0,
        n_results=0,
    )
    return accept, part.middle, reject, stats


def _answer(
    collection: PlanarIndexCollection, query: _Constraints, store, conjunctive: bool
) -> ConstraintAnswer:
    """Both combinations: decide by intervals, verify the rest.

    A conjunction accepts the intersection of per-constraint certain
    accepts and rejects their union of certain rejects; a disjunction is
    the De Morgan dual.  Undecided points are verified constraint by
    constraint, most selective-looking first (smallest candidate set), and
    leave the loop as soon as one constraint decides them: a failed one for
    a conjunction, a satisfied one for a disjunction.
    """
    working = [collection.working_query(constraint) for constraint in query.constraints]
    certains = [_certain_sets(collection, wq) for wq in working]
    n_total = certains[0][3].n_total

    def intersect(parts):
        common = parts[0]
        for part in parts[1:]:
            common = np.intersect1d(common, part, assume_unique=True)
        return common

    accepts, rejects = [c[0] for c in certains], [c[2] for c in certains]
    if conjunctive:
        accepted, rejected = intersect(accepts), np.unique(np.concatenate(rejects))
    else:
        accepted, rejected = np.unique(np.concatenate(accepts)), intersect(rejects)

    # Everything neither certainly accepted nor certainly rejected must be
    # verified; that is the complement of (accepted | rejected) among the
    # live points, which one constraint's three parts cover exactly.
    decided = np.union1d(accepted, rejected)
    all_ids = np.sort(np.concatenate(certains[0][:3]))
    remaining = np.setdiff1d(all_ids, decided, assume_unique=True)

    n_verified = int(remaining.size)
    satisfied: list[np.ndarray] = []
    if remaining.size:
        feats = store.take_rows(remaining)
        order = np.argsort([c[1].size for c in certains])
        for position in order:  # repro: noqa(REP006) — loop over the few constraints, not data points
            mask = query.constraints[position].evaluate(feats)
            if not conjunctive:
                satisfied.append(remaining[mask])
                mask = ~mask
            remaining = remaining[mask]
            feats = feats[mask]
            if remaining.size == 0:
                break
    if conjunctive:
        satisfied.append(remaining)

    ids = np.sort(np.concatenate([accepted, *satisfied]))
    return ConstraintAnswer(
        ids=ids,
        n_verified=n_verified,
        n_total=n_total,
        per_constraint=tuple(c[3] for c in certains),
    )


def answer_conjunction(
    collection: PlanarIndexCollection,
    query: ConjunctiveQuery,
    store,
) -> ConstraintAnswer:
    """Exact evaluation of a conjunction through one index collection.

    ``store`` is the :class:`~repro.core.FeatureStore` backing the
    collection (needed to verify undecided points).
    """
    return _answer(collection, query, store, conjunctive=True)


def answer_disjunction(
    collection: PlanarIndexCollection,
    query: DisjunctiveQuery,
    store,
) -> ConstraintAnswer:
    """Exact evaluation of a disjunction (OR) through one index collection."""
    return _answer(collection, query, store, conjunctive=False)
