#!/usr/bin/env python3
"""Watch the class count stabilize as the truncation order grows.

Solves every mirror representative once at the top order and restricts
downward, so the ladder costs no more than a single classify run.

Usage:
    python scripts/stabilization.py -n 7
    python scripts/stabilization.py -n 8 --orders 32,64,128,257 --mode en
"""

import argparse
import sys

from treewilf.wilf import default_workers, stabilization_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--leaves", type=int, required=True)
    parser.add_argument("--orders", default="16,32,64,128,257")
    parser.add_argument("--mode", choices=("av", "en"), default="av")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    if args.workers is None:
        try:
            args.workers = default_workers()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    orders = sorted(int(k) for k in args.orders.split(","))
    scan = stabilization_scan(args.leaves, orders, args.mode, workers=args.workers)
    for k in orders:
        print(f"n={args.leaves} mode={args.mode} K={k} classes={scan[k]}")
    if len({scan[k] for k in orders[-2:]}) == 1:
        print("stable over the last two orders", file=sys.stderr)
    else:
        print("still moving at the top order; extend the ladder", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
