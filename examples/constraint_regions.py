"""Linear-constraint regions, ranges, EXPLAIN, and persistence.

Shows the features layered on top of the core Planar index:

* conjunctions (AND) and disjunctions (OR) of scalar product constraints
  — the "linear constraint queries" the paper's Related Work points at,
* BETWEEN ranges served by a single index pass,
* EXPLAIN-style plan introspection, and
* saving the index to disk and reloading it.

Run:  python examples/constraint_regions.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import FunctionIndex, QueryModel, load_index, save_index
from repro.datasets import independent


def main() -> None:
    points = independent(80_000, 4, rng=3).points
    model = QueryModel.uniform(dim=4, low=1.0, high=5.0, rq=4)
    index = FunctionIndex(points, model, n_indices=60, rng=0)
    rng = np.random.default_rng(1)

    # ---------------- conjunction: a polytope slice ------------------- #
    a1, a2 = model.sample_normal(rng), model.sample_normal(rng)
    constraints = [(a1, 700.0, "<="), (a2, 300.0, ">=")]
    answer = index.query_conjunction(constraints)
    truth = (points @ a1 <= 700.0) & (points @ a2 >= 300.0)
    assert np.array_equal(answer.ids, np.nonzero(truth)[0])
    print(f"conjunction (2 half-spaces): {len(answer):,} points, "
          f"{answer.pruned_fraction:.1%} decided by intervals alone")

    # ---------------- disjunction ------------------------------------- #
    answer = index.query_disjunction([(a1, 250.0, "<="), (a2, 900.0, ">=")])
    truth = (points @ a1 <= 250.0) | (points @ a2 >= 900.0)
    assert np.array_equal(answer.ids, np.nonzero(truth)[0])
    print(f"disjunction: {len(answer):,} points, "
          f"{answer.pruned_fraction:.1%} decided by intervals alone")

    # ---------------- BETWEEN range ----------------------------------- #
    ranged = index.query_range(a1, 400.0, 600.0)
    truth = (points @ a1 >= 400.0) & (points @ a1 <= 600.0)
    assert np.array_equal(ranged.ids, np.nonzero(truth)[0])
    print(f"range 400 <= <a, x> <= 600: {len(ranged):,} points "
          f"(verified only {ranged.stats.n_verified:,} of {len(points):,})")

    # ---------------- EXPLAIN ------------------------------------------ #
    report = index.explain_report(a1, 500.0)
    print(f"\nEXPLAIN <a1, x> <= 500:")
    print(f"  route          : {report.route}")
    print(f"  selected index : #{report.chosen_index} "
          f"(strategy {report.strategy})")
    print(f"  intervals      : SI={report.si_size:,}  II={report.ii_size:,}  "
          f"LI={report.li_size:,}")
    print(f"  verified       : {report.n_verified:,} of {report.n_total:,}")
    matched = index.collection[0].normal
    report = index.explain_report(matched, 500.0)
    print(f"EXPLAIN with an index-parallel normal: route={report.route}, "
          f"II={report.ii_size}")

    # ---------------- persistence -------------------------------------- #
    with tempfile.TemporaryDirectory() as tmp:
        path = save_index(index, Path(tmp) / "household")
        loaded = load_index(path)
        original = index.query(a1, 500.0)
        reloaded = loaded.query(a1, 500.0)
        assert np.array_equal(original.ids, reloaded.ids)
        # The default format is a directory of arrays; a load binds the
        # stored sorted keys instead of rebuilding the indices.
        size_mb = sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6
        print(f"\nsaved -> loaded round trip OK ({size_mb:.1f} MB on disk, "
              f"{loaded.n_indices} indices loaded)")


if __name__ == "__main__":
    main()
