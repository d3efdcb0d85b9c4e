#!/usr/bin/env python3
"""Sweep small censuses and tabulate how rare solvable tasks are.

Edit SWEEP to taste; every run is exact (no sampling). Up to five
programs the totals are a sum over classes of languages, with or without
--dedup, whose cost does not grow with the states. Each class is counted
from its statements, by one memoized recursion over its up-sets and a
closed form for the solvable tasks, so even 64/5, at the 64-state cap,
takes a fraction of a second. A point that hits an engineering cap prints
a row naming the cap. With --classification the census is
restricted to tasks shaped like encoded classification problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vtask.errors import CapacityError
from vtask.search import SearchSpec, census


@dataclass(frozen=True)
class SweepPoint:
    n_states: int
    vocab_size: int


SWEEP = [
    SweepPoint(1, 1),
    SweepPoint(2, 1),
    SweepPoint(2, 2),
    SweepPoint(2, 3),
    SweepPoint(3, 1),
    SweepPoint(3, 2),
    SweepPoint(3, 3),
    SweepPoint(3, 4),
    SweepPoint(3, 5),
    SweepPoint(4, 3),
    SweepPoint(4, 4),
    SweepPoint(6, 4),
    SweepPoint(4, 5),
    SweepPoint(5, 5),
    SweepPoint(10, 4),
    SweepPoint(10, 5),
    SweepPoint(64, 4),
    SweepPoint(64, 5),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classification", action="store_true")
    parser.add_argument("--dedup", action="store_true")
    args = parser.parse_args()

    header = (
        f"{'states':>6} {'vocab':>5} {'valid':>32} {'solvable':>24} "
        f"{'unsolvable':>32} {'share':>7} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for point in SWEEP:
        spec = SearchSpec(
            n_states=point.n_states,
            vocab_size=point.vocab_size,
            require_classification_shaped=args.classification,
            dedup=args.dedup,
        )
        try:
            report = census(spec)
        except CapacityError as err:
            print(f"{point.n_states:>6} {point.vocab_size:>5} capped: {err.cap_name}={err.cap_value}")
            continue
        share = (
            report.tasks_solvable / report.tasks_valid if report.tasks_valid else 0.0
        )
        print(
            f"{point.n_states:>6} {point.vocab_size:>5} {report.tasks_valid:>32} "
            f"{report.tasks_solvable:>24} {report.tasks_unsolvable:>32} "
            f"{share:>7.4f} {report.elapsed_seconds:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
