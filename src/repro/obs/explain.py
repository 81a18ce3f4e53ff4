"""EXPLAIN report structures and text renderer.

This module holds only *data* — the structured report types returned by
``PlanarIndexCollection.explain`` and a renderer that turns them into the
fixed-width text block shown by ``repro demo --explain``.  All computation (selection scores, interval ranks, actual
execution) lives with the index classes in :mod:`repro.core`; keeping the
shapes here avoids a circular import (``core`` imports ``obs``, never the
reverse).

A report answers four questions about one query:

1. **Which index was chosen, and why** — every candidate's stretch and
   angle score, with the winner marked (``candidates``/``chosen``).
2. **What the partition looked like** — SI/II/LI rank boundaries and
   sizes on the chosen index (``si_size``/``ii_size``/``li_size``).
3. **How much work verification did** — points whose scalar product was
   actually computed, and how many passed (``n_verified``/``n_results``).
4. **How good the plan was** — estimated vs. actual pruning fraction,
   i.e. the selection heuristic's promise against the measured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["IndexCandidate", "ExplainReport", "render_report"]


@dataclass(frozen=True)
class IndexCandidate:
    """Selection-time score card for one candidate index.

    ``expected_ii`` is the |II| two binary searches count exactly;
    ``estimated_ii`` the key-sketch count counted selection ranks by,
    scaled to points (sketch keys × n / 32).
    """

    position: int
    stretch: float
    angle_cos: float
    expected_ii: int
    chosen: bool = False
    estimated_ii: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation."""
        payload = {
            "position": self.position,
            "stretch": self.stretch,
            "angle_cos": self.angle_cos,
            "expected_ii": self.expected_ii,
            "chosen": self.chosen,
        }
        if self.estimated_ii is not None:
            payload["estimated_ii"] = self.estimated_ii
        return payload


@dataclass(frozen=True)
class ExplainReport:
    """Structured EXPLAIN output for a single query.

    ``route`` is one of ``"intervals"``, ``"scan"``, ``"octant-fallback"``
    or ``"topk"``; fields that do not apply to a route are ``None`` (for
    example ``si_size`` on a pure scan).  ``estimated_pruned`` is the
    selection heuristic's promise (1 - |II|/n), ``actual_pruned`` the
    measured fraction of points never verified.
    """

    kind: str
    route: str
    n_total: int
    strategy: Optional[str] = None
    chosen_index: Optional[int] = None
    index_normal: Optional[Tuple[float, ...]] = None
    candidates: Tuple[IndexCandidate, ...] = ()
    interval: Optional[Tuple[float, float]] = None
    rank_lo: Optional[int] = None
    rank_hi: Optional[int] = None
    si_size: Optional[int] = None
    ii_size: Optional[int] = None
    li_size: Optional[int] = None
    n_verified: int = 0
    n_results: int = 0
    estimated_pruned: Optional[float] = None
    actual_pruned: Optional[float] = None
    notes: Tuple[str, ...] = ()
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly nested representation (drops ``None`` fields)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "route": self.route,
            "n_total": self.n_total,
            "n_verified": self.n_verified,
            "n_results": self.n_results,
        }
        for key in (
            "strategy",
            "chosen_index",
            "rank_lo",
            "rank_hi",
            "si_size",
            "ii_size",
            "li_size",
            "estimated_pruned",
            "actual_pruned",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.index_normal is not None:
            out["index_normal"] = list(self.index_normal)
        if self.interval is not None:
            out["interval"] = list(self.interval)
        if self.candidates:
            out["candidates"] = [candidate.to_dict() for candidate in self.candidates]
        if self.notes:
            out["notes"] = list(self.notes)
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    def render(self) -> str:
        """Fixed-width text block (see :func:`render_report`)."""
        return render_report(self)


def _fmt_pct(fraction: Optional[float]) -> str:
    return "-" if fraction is None else f"{fraction * 100.0:6.2f}%"


def _fmt_opt(value: Optional[int]) -> str:
    return "-" if value is None else f"{value:,}"


def render_report(report: ExplainReport) -> str:
    """Render an :class:`ExplainReport` as a human-readable text block."""
    lines: List[str] = []
    title = f"EXPLAIN  kind={report.kind}  route={report.route}"
    lines.append(title)
    lines.append("-" * len(title))
    if report.strategy is not None:
        chosen = "-" if report.chosen_index is None else str(report.chosen_index)
        lines.append(f"selection: strategy={report.strategy}  chosen_index={chosen}")
    if report.index_normal is not None:
        normal = ", ".join(f"{component:g}" for component in report.index_normal)
        lines.append(f"index normal: [{normal}]")
    if report.interval is not None:
        lo, hi = report.interval
        lines.append(f"key interval: [{lo:g}, {hi:g}]")
    if report.candidates:
        lines.append("candidates:")
        lines.append(
            "  pos   stretch      angle_cos   expected_ii   estimated_ii   chosen"
        )
        for candidate in report.candidates:
            marker = "  *" if candidate.chosen else ""
            lines.append(
                f"  {candidate.position:<5d} {candidate.stretch:<12.6g} "
                f"{candidate.angle_cos:<11.6g} {candidate.expected_ii:<13,d} "
                f"{_fmt_opt(candidate.estimated_ii):<14}{marker}"
            )
    if report.rank_lo is not None and report.rank_hi is not None:
        lines.append(f"rank window: [{report.rank_lo}, {report.rank_hi})")
    lines.append(
        "partition: "
        f"|SI|={_fmt_opt(report.si_size)}  "
        f"|II|={_fmt_opt(report.ii_size)}  "
        f"|LI|={_fmt_opt(report.li_size)}  "
        f"n={report.n_total:,}"
    )
    lines.append(
        f"verification: evaluated={report.n_verified:,}  results={report.n_results:,}"
    )
    lines.append(
        "pruning: "
        f"estimated={_fmt_pct(report.estimated_pruned)}  "
        f"actual={_fmt_pct(report.actual_pruned)}"
    )
    for note in report.notes:
        lines.append(f"note: {note}")
    for key, value in sorted(report.extra.items()):
        lines.append(f"{key}: {value}")
    return "\n".join(lines)
