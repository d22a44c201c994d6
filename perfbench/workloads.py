"""Op lists and set-up steps of the four benchmark workloads.

Every op is a `valring` argv in the README's form; the benchmark makes
the inputs (explicit index sets, CLI seeds) from the workload seed, so
the program only ever sees the generated inputs.  The make-up of each
list (rings, sizes, op counts) is fixed; the seed only changes which
elements are drawn, the CLI seeds and the op order.

The work of a verify op follows from |A+A|, |A^2| and |A^2+A^2| (they
fix the tuple count, the embedded row counts and so the edge-count
cells), and for small random sets these sizes vary widely.  So a verify
set of size k is drawn at random from the seed, but redrawn until its
sizes equal the most frequent ones among sets of that size (the modal
profile, found from a fixed sample).  The sets differ between seeds;
the work per op does not, which keeps the end-to-end figures steady.

`setup` holds argv lists run once before the first op: they pay the
lazy costs the benchmark README assigns to set-up (ring construction,
inverse tables, the route graphs of the verify workloads and their
spectra, the first LAPACK call).  With `cold_graphs` set, the
`build_graph` cache is cleared before every op, so each op builds and
decomposes its graph anew.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import reference

NAMES = ("zpr-verify", "fqtr-verify", "graph-spectral", "fqtr-search")


@dataclass
class Workload:
    ops: list
    setup: list
    cold_graphs: bool = False


def _verify(theorem: str, ring: str, members: list) -> list:
    literal = ",".join(str(i) for i in sorted(members))
    return ["verify", theorem, "--ring", ring, "--set", literal, "--n", "2"]


def _profile(R: reference.RefRing, a: list) -> tuple:
    sq = R.squares(a)
    return len(R.sumset(a, a)), len(sq), len(R.sumset(sq, sq))


def _modal_profile(R: reference.RefRing, k: int, samples: int = 64) -> tuple:
    rng = random.Random(k)  # fixed, so every workload seed gets the same profile
    units = R.units()
    counts = Counter(_profile(R, rng.sample(units, k)) for _ in range(samples))
    return counts.most_common(1)[0][0]


def _verify_ops(rng: random.Random, ring: str, plan) -> list:
    R = reference.ring(ring)
    units = R.units()
    ops = []
    for theorem, sizes, reps in plan:
        for k in sizes:
            target = _modal_profile(R, k)
            for _ in range(reps):
                a = rng.sample(units, k)
                while _profile(R, a) != target:
                    a = rng.sample(units, k)
                ops.append(_verify(theorem, ring, a))
    return ops


def zpr_verify(seed: int) -> Workload:
    # Z/9 (6 units) and Z/25 (20 units): every route graph fits the dense
    # cap except the 19 500 classes of Z/25 thm2, which go direct.
    rng = random.Random(seed)
    ops = _verify_ops(rng, "z:3:2", [
        ("thm1", range(2, 7), 4),
        ("thm2", range(2, 7), 4),
    ])
    ops += _verify_ops(rng, "z:5:2", [
        ("thm1", range(2, 21, 2), 3),
        ("thm2", range(2, 9, 2), 5),
        ("thm2", [10], 8),
        ("thm2", [12, 16, 20], 2),
    ])
    rng.shuffle(ops)
    setup = [
        _verify("thm1", "z:3:2", [1, 2]),
        _verify("thm2", "z:3:2", [1, 2]),
        _verify("thm1", "z:5:2", [1, 2]),
        _verify("thm2", "z:5:2", [1, 2]),
    ]
    return Workload(ops, setup)


def fqtr_verify(seed: int) -> Workload:
    # F_9[t]/(t^2), 72 units.  thm1 is always direct here (7371 classes);
    # thm2 is direct for |A| <= 5 and bound-only for |A| >= 23, where
    # |A+A|*|A|*|A^2| >= |A|^3/2 exceeds sqrt(max_pair_count).
    rng = random.Random(seed)
    ops = _verify_ops(rng, "f:9:2", [
        ("thm1", range(2, 7), 10),
        ("thm1", [7, 8], 2),
        ("thm1", [9], 3),
        ("thm2", [2, 3], 12),
        ("thm2", [4], 10),
        ("thm2", [5], 2),
        ("thm2", [24], 1),
        ("thm2", [72], 6),
    ])
    rng.shuffle(ops)
    setup = [
        _verify("thm1", "f:9:2", [1, 2]),
        _verify("thm2", "f:9:2", [1, 2]),
    ]
    return Workload(ops, setup)


# (ring, d, reps): class counts from 90 to 1080 in both families.
_GRAPHS = [
    ("z:3:2", 3, 4), ("z:11:1", 3, 4), ("z:5:1", 4, 4), ("z:13:1", 3, 4),
    ("z:17:1", 3, 4), ("z:7:1", 4, 4), ("z:3:1", 6, 4),
    ("f:9:1", 3, 4), ("f:3:2", 3, 4), ("f:9:2", 2, 4), ("f:11:2", 2, 4),
    ("f:13:2", 2, 4),
    ("z:5:2", 3, 2), ("z:3:2", 4, 1), ("f:25:1", 3, 1),
]


def graph_spectral(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for ring, d, reps in _GRAPHS:
        for _ in range(reps):
            ops.append(["graph", "spectrum", "--ring", ring, "--d", str(d)])
            ops.append(["graph", "mixing", "--ring", ring, "--d", str(d),
                        "--trials", "100", "--seed", str(rng.randrange(2**32))])
    rng.shuffle(ops)
    setup = [["ring", "info", "--ring", ring] for ring in sorted({g[0] for g in _GRAPHS})]
    setup.append(["graph", "spectrum", "--ring", "z:3:1", "--d", "3"])
    return Workload(ops, setup, cold_graphs=True)


def fqtr_search(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    # Unequal counts keep the median inside the scan ops and the 90th
    # percentile inside the search ops, away from the step between them.
    for _ in range(30):
        ops.append(["search", "extremal", "--ring", "f:9:2", "--sizes", "8,16",
                    "--iters", "100", "--seed", str(rng.randrange(2**32))])
    for _ in range(80):
        ops.append(["scan", "ratios", "--ring", "f:9:2", "--sizes", "8,16,32",
                    "--trials", "10", "--seed", str(rng.randrange(2**32))])
    rng.shuffle(ops)
    setup = [
        ["search", "extremal", "--ring", "f:9:2", "--sizes", "4", "--iters", "10", "--seed", "0"],
        ["scan", "ratios", "--ring", "f:9:2", "--sizes", "4", "--trials", "2", "--seed", "0"],
    ]
    return Workload(ops, setup)


_MAKERS = {
    "zpr-verify": zpr_verify,
    "fqtr-verify": fqtr_verify,
    "graph-spectral": graph_spectral,
    "fqtr-search": fqtr_search,
}


def build(name: str, seed: int) -> Workload:
    return _MAKERS[name](seed)
