"""Per-query pruning statistics shared by every result type.

:class:`QueryStats` started life inside :mod:`repro.core.planar`; it now
lives in its own module so that both inequality results
(:class:`~repro.core.planar.QueryResult`) and top-k results
(:class:`~repro.core.topk.TopKResult`) can carry the *same* pruning
diagnostics without an import cycle (``planar`` imports ``topk``).
``repro.core.planar`` re-exports the class, so existing imports keep
working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["QueryStats"]


@dataclass(frozen=True)
class QueryStats:
    """Per-query pruning diagnostics (the Figures 9/10 metric).

    ``si_size``/``ii_size``/``li_size`` are the cardinalities of the three
    intervals.  ``n_verified`` counts points whose scalar product was
    actually evaluated — normally the intermediate interval, or the whole
    dataset when the cost-based router preferred a scan.
    """

    n_total: int
    si_size: int
    ii_size: int
    li_size: int
    n_verified: int
    n_results: int

    @classmethod
    def merged(cls, parts: "Iterable[QueryStats]") -> "QueryStats":
        """Field-wise sum of ``parts``: the stats of their union.

        Every field is additive over disjoint point sets (shards) and over
        the queries of a batch, so the merged fractions are the
        point-weighted means of the parts' fractions.
        """
        n_total = si_size = ii_size = li_size = n_verified = n_results = 0
        for p in parts:
            n_total += p.n_total
            si_size += p.si_size
            ii_size += p.ii_size
            li_size += p.li_size
            n_verified += p.n_verified
            n_results += p.n_results
        return cls(n_total, si_size, ii_size, li_size, n_verified, n_results)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of points the *intervals* decide without a scalar product.

        Interval-based, exactly the paper's Figures 9/10 metric — it
        reflects index quality even when the router chose to scan anyway.
        """
        if self.n_total == 0:
            return 1.0
        return (self.si_size + self.li_size) / self.n_total

    @property
    def verified_fraction(self) -> float:
        """Fraction of points whose scalar product was actually evaluated."""
        if self.n_total == 0:
            return 0.0
        return self.n_verified / self.n_total

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by EXPLAIN and exporters)."""
        return {
            "n_total": self.n_total,
            "si_size": self.si_size,
            "ii_size": self.ii_size,
            "li_size": self.li_size,
            "n_verified": self.n_verified,
            "n_results": self.n_results,
            "pruned_fraction": self.pruned_fraction,
        }
