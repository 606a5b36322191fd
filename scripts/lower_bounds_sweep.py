#!/usr/bin/env python3
"""Reproduce the class-count table for one-relation binary patterns.

Default run covers 8 and 9 leaves in both modes (minutes).  The 10..12-leaf
rows sweep tens of thousands of patterns and run for hours; they are gated
behind --deep.  Counts at a finite truncation order are lower bounds for the
true class counts; the 8-leaf avoidance count additionally carries the
divisibility certificate making it exact.

Usage:
    python scripts/lower_bounds_sweep.py --out-dir results/
    python scripts/lower_bounds_sweep.py --deep --until 12
"""

import argparse
import pathlib
import sys

from treewilf.wilf import CSV_HEADER, classify, default_workers

# truncation orders per (n_leaves, mode); the deep rows use lower orders to
# keep the largest sweeps within reach
ORDERS = {
    ("av", 8): 257, ("av", 9): 257, ("av", 10): 257, ("av", 11): 257, ("av", 12): 201,
    ("en", 8): 257, ("en", 9): 257, ("en", 10): 257, ("en", 11): 201, ("en", 12): 157,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--from", dest="start", type=int, default=8)
    parser.add_argument("--until", type=int, default=9)
    parser.add_argument("--modes", default="av,en")
    parser.add_argument("--deep", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out-dir", default="sweep-results")
    args = parser.parse_args()
    if args.workers is None:
        try:
            args.workers = default_workers()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.until >= 10 and not args.deep:
        print("n >= 10 is hours-scale; pass --deep to confirm", file=sys.stderr)
        return 1

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "summary.csv"
    if not csv_path.exists():
        csv_path.write_text(CSV_HEADER + "\n")

    for n in range(args.start, args.until + 1):
        for mode in args.modes.split(","):
            order = ORDERS.get((mode, n), 257)
            print(f"sweeping n={n} mode={mode} K={order} ...", file=sys.stderr)
            report = classify(n, order, mode, workers=args.workers,
                              progress=lambda d, t: print(f"  {d}/{t}", file=sys.stderr)
                              if d % 500 == 0 or d == t else None)
            (out / f"classes-n{n}-{mode}-K{order}.json").write_text(report.to_json() + "\n")
            with csv_path.open("a") as fh:
                fh.write(report.csv_row() + "\n")
            suffix = "" if report.exactness == "lower_bound" else " (certified exact)"
            print(report.summary_line() + suffix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
