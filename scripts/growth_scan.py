#!/usr/bin/env python3
"""Compare sum-square growth ratios across rings at matched relative density.

For each ring, samples unit subsets whose sizes are fixed fractions of
the unit group, then prints the median LHS/RHS ratio per theorem-style
bound.  High medians at the same density hint the bound has slack for
that ring shape; medians creeping toward 1 mean near-extremal sets exist.
"""

import argparse
import json
import sys

from valring import ValringError, bound_ratio_scan
from valring.cli import parse_ring

DENSITIES = (0.2, 0.4, 0.6, 0.8, 1.0)


def scan_ring(spec: str, trials: int, seed: int) -> dict:
    ring = parse_ring(spec)
    sizes = sorted({max(1, round(f * ring.unit_count)) for f in DENSITIES})
    return bound_ratio_scan(ring, sizes, trials, seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rings", default="z:3:2,z:5:2,z:7:2,f:9:2")
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", dest="json_out", default=None)
    args = ap.parse_args()

    try:
        tables = [scan_ring(spec, args.trials, args.seed) for spec in args.rings.split(",")]
    except ValringError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"{'ring':>8} {'|A|':>5} {'thm':>5} {'ratio_med':>10} {'ratio_max':>10} "
          f"{'regimes 1/2/3/none':>20}")
    for table in tables:
        for row in table["rows"]:
            reg = row["regime_counts"]
            regs = f"{reg['1']}/{reg['2']}/{reg['3']}/{reg['none']}"
            print(f"{table['ring']:>8} {row['size']:>5} {row['theorem']:>5} "
                  f"{row['ratio_median']:>10.4f} {row['ratio_max']:>10.4f} {regs:>20}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"kind": "growth_scan", "tables": tables}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
