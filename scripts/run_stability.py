#!/usr/bin/env python3
"""Reproduce the decision-change table and conflict histograms.

With the defaults this runs 2·10⁵ accepted pairs per class count under the
uniform-mass law and writes plot-ready CSVs next to the chosen output stem:
<stem>.csv for the table and <stem>_hist_<n>.csv for the per-class-count
conflict histograms (all pairs vs decision-change pairs).
"""

import argparse
import sys
from pathlib import Path

from expertfuse.cli import (
    DEFAULT_SEED,
    check_distinct_class_counts,
    write_histogram_csv,
    write_rate_csv,
)
from expertfuse.stability import SAMPLING_LAWS, rate_and_histograms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000,
                        help="accepted pairs per class count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--law", choices=SAMPLING_LAWS, default="uniform")
    parser.add_argument("--classes", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7])
    parser.add_argument("--bins", type=int, default=30)
    parser.add_argument("--stem", type=Path, default=Path("stability"),
                        help="output path stem")
    args = parser.parse_args()

    try:
        check_distinct_class_counts(args.classes)
        # one draw per class count gives its table row and both histograms
        drawn = [rate_and_histograms(n, args.samples, args.seed, args.bins, args.law)
                 for n in args.classes]
        results = [row for row, _, _ in drawn]
        print(f"{'n':>3} {'pairs':>9} {'change_rate':>12} {'ci':>8} "
              f"{'mean_conflict':>14} {'mean|changed':>13}")
        for r in results:
            print(f"{r.n_classes:>3} {r.accepted_pairs:>9} {r.change_rate:>12.4f} "
                  f"{r.ci_halfwidth:>8.4f} {r.mean_conflict:>14.4f} "
                  f"{r.mean_conflict_changed:>13.4f}")
        table_path = args.stem.with_suffix(".csv")
        write_rate_csv(table_path, results)
        print(f"wrote {table_path}")

        for n, (_, full, flipped) in zip(args.classes, drawn):
            hist_path = args.stem.parent / f"{args.stem.name}_hist_{n}.csv"
            write_histogram_csv(hist_path, full, flipped)
            print(f"wrote {hist_path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
