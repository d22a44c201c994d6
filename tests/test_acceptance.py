"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; without -s they still appear in captured output.
"""

import json
import math
import random
import time

import numpy as np

from valring import (
    MAX_GRAPH_CLASSES,
    ElementSet,
    build_graph,
    check_square_halving,
    class_count,
    classify_regime,
    derive_seed,
    lambda3_bound,
    make_ring,
    mixing_random_pairs,
    sample_unit_subset,
    spectrum,
    verify_thm1_pipeline,
    verify_thm2_pipeline,
)
from valring.cli import parse_ring, run as cli_run


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _matrix():
    """All buildable (ring, d) combinations for the graph criteria."""
    combos = []
    for q in (3, 5, 9):
        for r in (1, 2):
            ring = make_ring(3, 2, r, "fqtr") if q == 9 else make_ring(q, 1, r)
            for d in (2, 3, 4):
                if class_count(ring, d) <= MAX_GRAPH_CLASSES:
                    combos.append((ring, d))
    return combos


def _random_subsets(ring, count, tag):
    """Deterministic stream of unit subsets with seed-derived sizes."""
    out = []
    for i in range(count):
        child = derive_seed(6006, tag, i)
        k = random.Random(child).randint(1, ring.unit_count)
        out.append(sample_unit_subset(ring, k, derive_seed(child, 1)))
    return out


def test_criterion_1_ring_cardinalities():
    start = time.perf_counter()
    ok = True
    for desc in ("z:3:1", "z:3:2", "z:3:3", "z:5:2", "z:7:2", "f:9:1", "f:9:2"):
        ring = parse_ring(desc)
        q, r = ring.q, ring.r
        ok = ok and ring.size == q**r
        ok = ok and ring.unit_count == q**r - q ** (r - 1)
        ok = ok and all(ring.ideal_size(k) == q ** (r - k) for k in range(r + 1))
        # the enumerated unit set really has that cardinality
        ok = ok and ElementSet.units(ring).card == ring.unit_count
    elapsed = time.perf_counter() - start
    _report(1, "ring cardinalities", ok and elapsed < 5.0, f"7 rings, {elapsed:.2f}s")


def test_criterion_2_graph_formulas():
    start = time.perf_counter()
    combos = _matrix()
    ok = len(combos) == 15
    for ring, d in combos:
        q, r = ring.q, ring.r
        n_expect = q ** ((d - 1) * (r - 1)) * (q**d - 1) // (q - 1)
        deg_expect = q ** ((d - 2) * (r - 1)) * (q ** (d - 1) - 1) // (q - 1)
        g = build_graph(ring, d)
        m = g.biadjacency
        ok = ok and g.n_classes == n_expect and len(g.classes) == n_expect
        ok = ok and bool((m.sum(axis=1) == deg_expect).all())
        ok = ok and bool((m.sum(axis=0) == deg_expect).all())
    elapsed = time.perf_counter() - start
    _report(2, "graph formulas", ok and elapsed < 60.0, f"{len(combos)} graphs, {elapsed:.2f}s")


def test_criterion_3_spectral_bound():
    start = time.perf_counter()
    ok = True
    for ring, d in _matrix():
        g = build_graph(ring, d)
        sv = spectrum(g)
        bound = lambda3_bound(ring, d)
        ok = ok and abs(float(sv[0]) - g.degree) <= 1e-6 * g.degree
        ok = ok and float(sv[1]) <= bound + 1e-6
    # frozen witnesses
    sv_a = spectrum(build_graph(make_ring(3, 1, 1), 3))
    ok = ok and abs(float(sv_a[0]) - 4.0) <= 1e-6 and float(sv_a[1]) <= 1.7321
    sv_b = spectrum(build_graph(make_ring(3, 1, 2), 3))
    ok = ok and abs(float(sv_b[0]) - 12.0) <= 1e-5 and float(sv_b[1]) <= 5.1963
    elapsed = time.perf_counter() - start
    _report(3, "spectral bound", ok, f"15 spectra + 2 witnesses, {elapsed:.2f}s")


def test_criterion_4_mixing_lemma():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for idx, (ring, d) in enumerate(_matrix()):
        g = build_graph(ring, d)
        rep = mixing_random_pairs(g, 1000, seed=derive_seed(4242, idx, d))
        ok = ok and rep["violations"] == 0
        worst = max(worst, rep["max_ratio"])
    elapsed = time.perf_counter() - start
    _report(
        4,
        "mixing lemma",
        ok,
        f"15 graphs x 1000 pairs, worst residual/bound {worst:.3f}, {elapsed:.2f}s",
    )


def test_criterion_5_square_halving():
    start = time.perf_counter()
    rep9 = check_square_halving(make_ring(3, 1, 2), exhaustive_limit=6, samples=0)
    rep25 = check_square_halving(make_ring(5, 1, 2), exhaustive_limit=8, samples=0)
    ok = rep9["passed"] and rep25["passed"]
    ok = ok and rep9["fiber_ok"] and rep25["fiber_ok"]
    ok = ok and rep9["checked_exhaustive"] == 2**6 - 1
    ok = ok and rep25["checked_exhaustive"] == sum(math.comb(20, k) for k in range(1, 9))
    elapsed = time.perf_counter() - start
    total = rep9["checked_exhaustive"] + rep25["checked_exhaustive"]
    _report(5, "square halving", ok and elapsed < 30.0, f"{total} subsets, {elapsed:.2f}s")


def test_criterion_6_solution_count_pipeline():
    start = time.perf_counter()
    z9 = make_ring(3, 1, 2)
    z25 = make_ring(5, 1, 2)
    ok = True
    runs = 0
    for tag, ring in ((0, z9), (1, z25)):
        for a in _random_subsets(ring, 100, tag):
            rep = verify_thm1_pipeline(a, 2)
            ok = ok and rep.hard_pass
            ok = ok and rep.embed["edges"] is not None  # n=2 is always exact here
            ok = ok and rep.counts["solutions"] <= rep.embed["edges"]
            runs += 1
    # n = 3 only where the dimension-4 graph fits the cap (z:3:2, 1080 classes)
    for a in _random_subsets(z9, 20, 2):
        rep = verify_thm1_pipeline(a, 3)
        ok = ok and rep.hard_pass and rep.embed["mode"] == "graph"
        runs += 1
    # hand-checkable witness
    wit = verify_thm1_pipeline(ElementSet.from_indices(z9, [1, 2]), 2)
    wit2 = verify_thm2_pipeline(ElementSet.from_indices(z9, [1, 2]), 2)
    ok = ok and wit.counts["solutions"] == 8
    ok = ok and wit2.counts["energy"] == 32
    ok = ok and 8 * 8 <= wit2.sizes["n_a_sq"] * 32 == 96
    elapsed = time.perf_counter() - start
    _report(6, "solution-count pipeline", ok and elapsed < 300.0, f"{runs} runs, {elapsed:.2f}s")


def test_criterion_7_energy_pipeline():
    start = time.perf_counter()
    z9 = make_ring(3, 1, 2)
    z25 = make_ring(5, 1, 2)
    ok = True
    runs = 0
    for tag, ring in ((10, z9), (11, z25)):
        for a in _random_subsets(ring, 100, tag):
            rep = verify_thm2_pipeline(a, 2)
            ok = ok and rep.hard_pass
            ok = ok and rep.steps["cauchy_schwarz"]["passed"]
            ok = ok and rep.embed["edges"] is not None
            ok = ok and rep.counts["energy"] <= rep.embed["edges"]
            runs += 1
    # n = 3: the bound-only route must deliver a finite bound and no failures
    for tag, ring in ((12, z9), (13, z25)):
        modes = set()
        subsets = _random_subsets(ring, 20, tag) + [ElementSet.units(ring)]
        for a in subsets:
            rep = verify_thm2_pipeline(a, 3)
            ok = ok and rep.hard_pass
            ok = ok and math.isfinite(rep.mixing["edge_bound"])
            modes.add(rep.embed["mode"])
            runs += 1
        ok = ok and "bound-only" in modes
    elapsed = time.perf_counter() - start
    _report(7, "energy pipeline", ok and elapsed < 300.0, f"{runs} runs, {elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    argv = ["scan", "ratios", "--ring", "z:5:2", "--sizes", "6,10,16",
            "--trials", "50", "--seed", "42"]
    blobs = []
    for attempt in (1, 2):
        out = tmp_path / f"scan_{attempt}.json"
        code = cli_run(argv + ["--out", str(out)])
        blobs.append((code, out.read_bytes()))
    ok = blobs[0][0] == 0 and blobs[1][0] == 0
    ok = ok and blobs[0][1] == blobs[1][1]
    elapsed = time.perf_counter() - start
    _report(8, "determinism across two runs", ok,
            f"{len(blobs[0][1])} bytes identical, {elapsed:.2f}s")


def test_criterion_9_scan_sanity(capsys):
    start = time.perf_counter()
    code = cli_run(["scan", "ratios", "--ring", "z:5:2", "--sizes", "4,8,12,16,20",
                    "--trials", "30", "--seed", "7"])
    payload = json.loads(capsys.readouterr().out)
    ok = code == 0 and payload["sanity_ok"] is True
    z25 = make_ring(5, 1, 2)
    for row in payload["rows"]:
        ok = ok and row["size"] <= row["lhs_min"] <= row["lhs_max"] <= 25
        ok = ok and 0 < row["ratio_min"] and math.isfinite(row["ratio_max"])
    # classifier honesty: regime 1 is never assigned below its own threshold
    for constants in ((1.0, 1.0, 1.0), (1.7, 1.0, 1.0)):
        threshold = constants[0] * 5 ** (2 - 1 / 3)
        for k in range(1, 21):
            v = classify_regime(sample_unit_subset(z25, k, derive_seed(9, k)), constants)
            if v.regime == 1:
                ok = ok and k >= threshold
    elapsed = time.perf_counter() - start
    _report(9, "ratio scan sanity", ok, f"{len(payload['rows'])} rows, {elapsed:.2f}s")
