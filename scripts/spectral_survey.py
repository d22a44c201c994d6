#!/usr/bin/env python3
"""Survey second singular values against the closed-form bound.

Builds every orthogonality graph in a (ring, dimension) grid that fits
under MAX_GRAPH_CLASSES classes per side and tabulates how tight sigma_2
sits against sqrt(q^((d-2)(2r-1))).  Ratios near 1 mean the bound is sharp there.
A graph that build_graph refuses as too large is listed as skipped, with
no class count: the count can have millions of digits.
"""

import argparse
import json
import sys

from valring import (
    MAX_GRAPH_CLASSES,
    TooLarge,
    ValringError,
    build_graph,
    lambda3_bound,
    spectrum,
)
from valring.cli import parse_ring

DEFAULT_RINGS = ("z:3:1", "z:3:2", "z:5:1", "z:5:2", "z:7:1", "f:9:1", "f:9:2")


def int_list(text: str) -> list[int]:
    """A comma-separated list of integers; argparse makes a ValueError here a usage error."""
    return [int(t) for t in text.split(",")]


def survey(ring_specs, dims):
    rows = []
    for spec in ring_specs:
        ring = parse_ring(spec)
        for d in dims:
            try:
                g = build_graph(ring, d)
            except TooLarge:
                rows.append({"ring": spec, "d": d, "classes": None, "skipped": True})
                continue
            sv = spectrum(g)
            bound = lambda3_bound(ring, d)
            rows.append(
                {
                    "ring": spec,
                    "d": d,
                    "classes": g.n_classes,
                    "degree": g.degree,
                    "sigma1": float(sv[0]),
                    "sigma2": float(sv[1]),
                    "bound": bound,
                    "tightness": float(sv[1]) / bound if bound else None,
                    "skipped": False,
                }
            )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rings", default=",".join(DEFAULT_RINGS),
                    help="comma-separated ring specs")
    ap.add_argument("--dims", type=int_list, default="2,3,4",
                    help="comma-separated dimensions")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="also write the full table to this path")
    args = ap.parse_args()

    try:
        rows = survey(args.rings.split(","), args.dims)
    except ValringError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"{'ring':>8} {'d':>2} {'classes':>8} {'degree':>7} "
          f"{'sigma2':>10} {'bound':>10} {'sigma2/bound':>12}")
    for row in rows:
        if row["skipped"]:
            print(f"{row['ring']:>8} {row['d']:>2} {'> ' + str(MAX_GRAPH_CLASSES):>8}  "
                  "(over cap, skipped)")
            continue
        print(f"{row['ring']:>8} {row['d']:>2} {row['classes']:>8} {row['degree']:>7} "
              f"{row['sigma2']:>10.4f} {row['bound']:>10.4f} {row['tightness']:>12.4f}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"kind": "spectral_survey", "rows": rows}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
