#!/usr/bin/env python3
"""Hunt for unit subsets with unusually small max{|A+A|, |A^2+A^2|}.

Runs the swap-based local search at several subset sizes and reports the
best objective found next to the trivial floor |A| and the ceiling q^r.
Sets found here are the natural stress inputs for the verify pipelines.
"""

import argparse
import json
import sys

from valring import classify_regime, ElementSet, ValringError, extremal_search
from valring.cli import parse_ring


def int_list(text: str) -> list[int]:
    """A comma-separated list of integers; argparse makes a ValueError here a usage error."""
    return [int(t) for t in text.split(",")]


def probe(spec: str, sizes, iters: int, seed: int):
    ring = parse_ring(spec)
    out = []
    for k in sizes:
        res = extremal_search(ring, k, iters, seed)
        verdict = classify_regime(ElementSet.from_indices(ring, res["best_set"]))
        out.append(
            {
                "ring": spec,
                "k": k,
                "best_objective": res["best_objective"],
                "start_objective": res["start_objective"],
                "regime": verdict.regime,
                "chains": res["chains"],
                "best_set": res["best_set"],
            }
        )
    return ring, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ring", default="z:5:2")
    ap.add_argument("--sizes", type=int_list, default="4,6,8,10,12")
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", dest="json_out", default=None)
    args = ap.parse_args()

    try:
        ring, rows = probe(args.ring, args.sizes, args.iters, args.seed)
    except ValringError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"ring {args.ring}: |R| = {ring.size}, |R*| = {ring.unit_count}")
    print(f"{'k':>4} {'best':>6} {'start':>6} {'regime':>7}  best set")
    for row in rows:
        members = ",".join(str(m) for m in row["best_set"])
        regime = row["regime"] if row["regime"] is not None else "-"
        print(f"{row['k']:>4} {row['best_objective']:>6} {row['start_objective']:>6} "
              f"{regime!s:>7}  {{{members}}}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"kind": "extremal_probe", "rows": rows}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
