import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import graph as graph_module
from valring import verify as verify_module
from valring.cli import parse_ring, run
from valring import (
    BadSize,
    ElementSet,
    NotUnits,
    Ring,
    TooLarge,
    ValringError,
    bound_ratio_scan,
    build_graph,
    check_square_halving,
    classify_regime,
    derive_seed,
    extremal_search,
    lambda3_bound,
    make_ring,
    mixing_random_pairs,
    sample_unit_subset,
    spectrum,
    verify_hpv,
    verify_thm1_pipeline,
    verify_thm2_pipeline,
)


# ---------------------------------------------------------------------------
# square halving


def test_square_halving_exhaustive_z9(z9):
    rep = check_square_halving(z9, exhaustive_limit=6)
    assert rep["passed"] and rep["fiber_ok"]
    assert rep["checked_exhaustive"] == 63  # all nonempty unit subsets
    assert rep["checked_sampled"] == 0
    assert rep["violations"] == []


def test_square_halving_fails_when_negation_fixes_every_unit(z9, monkeypatch):
    # a negation that returns its input offers no second root -u != u
    monkeypatch.setattr(Ring, "neg_many", lambda self, a: a)
    rep = check_square_halving(z9, exhaustive_limit=2)
    assert rep["fiber_ok"] is False and rep["passed"] is False
    assert rep["violations"] == []


def test_square_halving_sampled_z25(z25):
    rep = check_square_halving(z25, exhaustive_limit=3, samples=5, seed=1)
    assert rep["passed"]
    assert rep["checked_exhaustive"] == 20 + 190 + 1140
    assert rep["checked_sampled"] == 17 * 5


@pytest.mark.parametrize("spec,kwargs", [
    ((7, 1, 3), {"exhaustive_limit": 4}),  # C(294, 4) = 3.0e8 subsets
    ((65521, 1, 1), {"exhaustive_limit": 1, "samples": 5}),  # about 1.1e10 draws
])
def test_square_halving_refuses_before_it_enumerates(spec, kwargs, monkeypatch):
    def refuse(*args):
        raise AssertionError("a subset was enumerated before the cap was checked")

    monkeypatch.setattr(verify_module, "combinations", refuse)
    ring = make_ring(*spec)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="element visits"):
        check_square_halving(ring, **kwargs)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("limit,samples,visits", [
    (8, 0, 1_883_680),  # sum_{k <= 8} k*C(20, k), acceptance criterion 5
    (3, 5, 20 + 380 + 3420 + 5 * (210 - 6)),  # and 5 draws of each size 4..20
])
def test_square_halving_cap_counts_every_visit(limit, samples, visits, monkeypatch):
    ring = make_ring(5, 1, 2)
    monkeypatch.setattr(verify_module, "MAX_FOLD_CELLS", visits)
    check_square_halving(ring, exhaustive_limit=limit, samples=samples)
    monkeypatch.setattr(verify_module, "MAX_FOLD_CELLS", visits - 1)
    with pytest.raises(TooLarge):
        check_square_halving(ring, exhaustive_limit=limit, samples=samples)


@pytest.mark.parametrize("kwargs", [
    {"exhaustive_limit": -3},
    {"exhaustive_limit": 2, "samples": -5},
])
def test_square_halving_refuses_negative_counts(kwargs):
    with pytest.raises(BadSize):
        check_square_halving(make_ring(3, 1, 2), **kwargs)


def test_square_fibers_are_negation_pairs(z9):
    # explicit fibers in Z/9: 1 <- {1,8}, 4 <- {2,7}, 7 <- {4,5}
    fibers = {}
    for u in [1, 2, 4, 5, 7, 8]:
        fibers.setdefault(z9.mul(u, u), set()).add(u)
    assert fibers == {1: {1, 8}, 4: {2, 7}, 7: {4, 5}}


# ---------------------------------------------------------------------------
# solution-count pipeline


def test_thm1_frozen_z9(z9):
    a = ElementSet.from_indices(z9, [1, 2])
    rep = verify_thm1_pipeline(a, 2)
    assert rep.hard_pass
    assert rep.kind == "thm1" and rep.d == 3
    assert rep.counts["solutions"] == 8
    assert rep.counts["solution_density"] == pytest.approx(1.0)
    assert rep.sizes == {"a": 2, "a_units": 2, "a_plus_a": 3, "a_sq": 2, "n_a_sq": 3}
    assert rep.embed["mode"] == "graph"
    assert rep.embed["edges"] == 8
    assert rep.steps["solution_lower_bound"]["passed"]  # 8 >= 2*4
    assert rep.steps["solutions_le_edges"]["passed"]
    assert rep.steps["edges_le_mixing_bound"]["passed"]
    assert rep.ratio["rhs"] == pytest.approx(4 / 27**0.5)
    assert rep.ratio["lhs"] == 3
    assert any("floor" in w for w in rep.warnings)
    assert rep.hypothesis is None
    assert rep._asdict()["counts"]["solutions"] == 8


def test_thm1_drops_nonunits(z9):
    a = ElementSet.from_indices(z9, [0, 1, 2])
    rep = verify_thm1_pipeline(a, 2)
    assert rep.sizes["a"] == 3 and rep.sizes["a_units"] == 2
    assert any("dropped 1" in w for w in rep.warnings)
    assert rep.counts["solutions"] == 8


def test_thm1_singleton(z9):
    rep = verify_thm1_pipeline(ElementSet.from_indices(z9, [1]), 2)
    assert rep.counts["solutions"] == 1
    assert rep.hard_pass


def test_thm1_n3_graph_route(z9):
    a = sample_unit_subset(z9, 4, 2)
    rep = verify_thm1_pipeline(a, 3)
    assert rep.d == 4
    assert rep.embed["mode"] == "graph"  # 1080 classes fits the cap
    assert rep.hard_pass
    assert rep.counts["solutions"] <= rep.embed["edges"]


def test_each_route_follows_its_one_cap(z9, monkeypatch):
    a = ElementSet.units(z9)
    dense = verify_thm1_pipeline(a, 2).embed
    assert dense["mode"] == "graph" and dense["classes_per_side"] == 117
    with monkeypatch.context() as m:
        m.setattr(graph_module, "MAX_GRAPH_CLASSES", 116)
        direct = verify_thm1_pipeline(a, 2).embed
        assert direct["mode"] == "direct" and direct["edges"] == dense["edges"]
        assert direct["lambda3_kind"] == "theoretical"
        assert direct["lambda3"] == lambda3_bound(z9, 3)
        m.setattr(graph_module, "MAX_PAIR_COUNT", 1)
        bound = verify_thm1_pipeline(a, 2).embed
        assert bound["mode"] == "bound-only" and bound["audit"] == "ok"
    with monkeypatch.context() as m:
        m.setattr(graph_module, "MAX_EMBED_SIZE", 1)
        skipped = verify_thm1_pipeline(a, 2).embed
        assert skipped["audit"] == "skipped" and skipped["mode"] == "bound-only"


def test_edge_route_at_each_cap(z9, monkeypatch):
    # the rows are never built here: the stub stands in for every count
    monkeypatch.setattr(graph_module, "pair_edge_count", lambda ring, u_rows, v_rows: 7)

    def route(d, u_count, v_count):
        emb = graph_module.EmbeddedSets(d, None, None, u_count, v_count)
        got = graph_module.edge_route(z9, d, emb)
        mode = got["mode"]
        assert got["edges"] == (None if mode == "bound-only" else 7)
        if mode == "graph":
            assert got["lambda3_kind"] == "computed"
            assert got["lambda3"] == float(spectrum(build_graph(z9, d))[1])
        else:
            assert got["lambda3_kind"] == "theoretical"
            assert got["lambda3"] == lambda3_bound(z9, d)
        return mode

    side, pairs = graph_module.MAX_EMBED_SIZE, graph_module.MAX_PAIR_COUNT
    # MAX_EMBED_SIZE on one side
    assert route(3, side, 1) == route(3, 1, side) == "graph"
    assert route(3, side + 1, 1) == route(3, 1, side + 1) == "bound-only"
    # MAX_PAIR_COUNT on |U|*|V|
    assert route(3, 6000, 5000) == "graph" and 6000 * 5000 == pairs
    with monkeypatch.context() as m:
        m.setattr(graph_module, "MAX_EMBED_SIZE", pairs + 1)  # only the pair cap binds
        assert route(3, pairs, 1) == "graph"
        assert route(3, pairs + 1, 1) == "bound-only"
    # MAX_GRAPH_CLASSES on the class count
    assert graph_module.class_count(z9, 4) == 1080 and route(4, 10, 10) == "graph"
    assert graph_module.class_count(z9, 5) == 9801 and route(5, 10, 10) == "direct"
    assert route(5, pairs, 2) == "bound-only"


def test_every_graph_that_fits_has_a_pair_count():
    # U and V are distinct classes, so |U|*|V| <= MAX_GRAPH_CLASSES**2
    assert graph_module.MAX_GRAPH_CLASSES**2 <= graph_module.MAX_PAIR_COUNT, (
        "edge_route tests MAX_PAIR_COUNT before the class cap, and the graph route counts "
        "e(U, V) too; a dense cap past sqrt(MAX_PAIR_COUNT) would send graphs that fit "
        "to bound-only"
    )


def _cli_payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(argv)
    payload = json.loads(out.getvalue())
    del payload["schema"]
    return payload


def test_asdict_gives_the_cli_payload_bytes():
    # one report per route, and one verdict, each against the CLI's payload
    for desc, fn, k, mode in [
        ("z:3:2", verify_thm1_pipeline, 6, "graph"),
        ("z:5:2", verify_thm2_pipeline, 6, "direct"),
        ("f:9:2", verify_thm2_pipeline, 24, "bound-only"),
    ]:
        rep = fn(sample_unit_subset(parse_ring(desc), k, 1), 2)
        assert rep.embed["mode"] == mode
        payload = _cli_payload(["verify", rep.kind, "--ring", desc, "--set", f"random:{k}:1"])
        assert json.dumps(rep._asdict(), sort_keys=True) == json.dumps(payload, sort_keys=True)
    verdict = classify_regime(sample_unit_subset(parse_ring("z:5:2"), 6, 1))
    payload = _cli_payload(["classify", "--ring", "z:5:2", "--set", "random:6:1"])
    assert (payload.pop("kind"), payload.pop("ring")) == ("regime", "z:5:2")
    assert json.dumps(verdict._asdict(), sort_keys=True) == json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("maker", [(3, 1, 2, "zpr"), (3, 2, 1, "fqtr")])
def test_graph_route_and_mixing_read_the_computed_sigma2(maker):
    ring = make_ring(*maker)
    sigma2 = float(spectrum(build_graph(ring, 3))[1])
    route = verify_thm1_pipeline(ElementSet.units(ring), 2).embed
    assert route["mode"] == "graph"
    mixing = mixing_random_pairs(build_graph(ring, 3), 10, seed=1)
    for rep in (route, mixing):
        assert rep["lambda3_kind"] == "computed" and rep["lambda3"] == sigma2


@given(st.integers(2, 18), st.integers(0, 2**32))
def test_thm1_hard_chain_z25(k, seed):
    ring = make_ring(5, 1, 2)
    rep = verify_thm1_pipeline(sample_unit_subset(ring, k, seed), 2)
    assert rep.hard_pass
    sol = rep.counts["solutions"]
    assert sol >= rep.sizes["a_sq"] * k**2
    assert sol <= rep.embed["edges"]


# ---------------------------------------------------------------------------
# energy pipeline


def test_thm2_frozen_z9(z9):
    a = ElementSet.from_indices(z9, [1, 2])
    rep = verify_thm2_pipeline(a, 2)
    assert rep.hard_pass
    assert rep.kind == "thm2" and rep.d == 4
    assert rep.counts["energy"] == 32
    assert rep.steps["cauchy_schwarz"]["passed"]  # 64 <= 3 * 32
    assert rep.embed["mode"] == "graph"
    assert rep.embed["edges"] == 32
    assert rep.hypothesis == {"lhs": 12, "rhs": 243, "met": False}
    assert rep.ratio["rhs"] == pytest.approx(3 ** (2 / 3) * 2 ** (2 / 3))


def test_thm2_direct_route_z25(z25):
    # d = 4 over Z/25 has 19500 classes, beyond the dense cap, so the
    # pipeline must fall back to explicit pair counting and stay exact
    a = sample_unit_subset(z25, 10, 9)
    rep = verify_thm2_pipeline(a, 2)
    assert rep.embed["mode"] == "direct"
    assert rep.embed["edges"] == rep.counts["energy"]
    assert rep.steps["energy_le_edges"]["passed"]
    assert rep.hard_pass


def test_thm2_bound_only_n3(z9):
    a = ElementSet.units(z9)
    rep = verify_thm2_pipeline(a, 3)
    assert rep.embed["mode"] == "bound-only"
    assert rep.embed["edges"] is None
    assert rep.steps["energy_le_edges"]["mode"] == "skipped"
    assert rep.steps["energy_le_mixing_bound"]["passed"]
    assert math.isfinite(rep.mixing["edge_bound"])
    assert rep.hard_pass


def test_thm2_energy_past_int64(f9t2):
    # 7.1 * 10^12 tuples; int64 would wrap E to 1598799546263011328
    rep = verify_thm2_pipeline(ElementSet.units(f9t2), 4)
    energy, n_sol = rep.counts["energy"], rep.counts["solutions"]
    assert energy == 630621991703380994555904 > 2**63
    assert n_sol * n_sol <= rep.sizes["n_a_sq"] * energy
    assert rep.steps["cauchy_schwarz"]["passed"]
    assert rep.embed["mode"] == "bound-only" and rep.hard_pass


@given(st.integers(2, 6), st.integers(0, 2**32))
def test_thm2_hard_chain_z9(k, seed):
    ring = make_ring(3, 1, 2)
    rep = verify_thm2_pipeline(sample_unit_subset(ring, k, seed), 2)
    assert rep.hard_pass
    n_sol = rep.counts["solutions"]
    assert n_sol * n_sol <= rep.sizes["n_a_sq"] * rep.counts["energy"]


# ---------------------------------------------------------------------------
# regime classification


def test_classify_units_z9(z9):
    v = classify_regime(ElementSet.units(z9))
    assert v.regime == 2
    assert v.empty_regimes == [3]
    assert v.hypothesis_met
    assert v.lhs == 9
    assert v.rhs == pytest.approx(36 / 27**0.5)
    assert v.thresholds["regime1_min_size"] == pytest.approx(3 ** (5 / 3))
    assert v.thresholds["regime2_min_size"] == pytest.approx(3 ** (13 / 8))


def test_classify_full_ring_is_regime_1(z9):
    v = classify_regime(ElementSet.full(z9))
    assert v.regime == 1


def test_classify_tiny_set_matches_no_band(z9):
    v = classify_regime(ElementSet.from_indices(z9, [1]))
    assert v.regime is None
    assert v.rhs is None and v.ratio is None
    assert not v.hypothesis_met


# |A| = q^(r-1/3) exactly, where the float threshold reads a few ulps above |A|
@pytest.mark.parametrize("maker,k", [
    ((3, 3, 1, "fqtr"), 9), ((5, 3, 1, "fqtr"), 25),
    ((7, 3, 1, "fqtr"), 49), ((3, 3, 2, "fqtr"), 243),
])
def test_classify_exact_regime1_boundary(maker, k):
    v = classify_regime(sample_unit_subset(make_ring(*maker), k, 0))
    assert v.regime == 1
    assert v.thresholds["regime1_min_size"] == pytest.approx(k)


def test_classify_thresholds_z25(z25):
    assert classify_regime(sample_unit_subset(z25, 20, 0)).regime == 1
    assert classify_regime(sample_unit_subset(z25, 15, 0)).regime == 1
    assert classify_regime(sample_unit_subset(z25, 14, 0)).regime == 2


def test_classify_constants_shift_bands(z9):
    # doubling c1 pushes the full ring out of the top band
    v = classify_regime(ElementSet.full(z9), constants=(2.0, 1.0, 1.0))
    assert v.regime == 2


@pytest.mark.parametrize("constants", [(0, 1, 1), (1, -1, 1), (1, 1, 0.0)])
def test_classify_refuses_constants_that_are_not_positive(z9, constants, monkeypatch):
    # each would make its band vacuous; refused before A+A is built
    monkeypatch.setattr(verify_module, "fold_sets", None)
    with pytest.raises(ValringError, match="positive"):
        classify_regime(ElementSet.from_indices(z9, [1, 2]), constants)


def test_no_empty_bands_for_z49():
    ring = make_ring(7, 1, 2)
    v = classify_regime(sample_unit_subset(ring, 30, 0))
    assert v.empty_regimes == []
    assert v.regime == 1


# ---------------------------------------------------------------------------
# ratio scan


def test_scan_shape_and_determinism(z25):
    a = bound_ratio_scan(z25, [4, 8], trials=5, seed=3)
    b = bound_ratio_scan(z25, [4, 8], trials=5, seed=3)
    assert a == b
    assert len(a["rows"]) == 4  # two sizes x two theorems
    for row in a["rows"]:
        assert row["size"] <= row["lhs_min"] <= row["lhs_max"] <= 25
        assert 0 < row["ratio_min"] <= row["ratio_median"] <= row["ratio_max"]
        assert math.isfinite(row["ratio_max"])
        assert sum(row["regime_counts"].values()) == 5


def test_scan_seed_changes_output(z25):
    a = bound_ratio_scan(z25, [6], trials=8, seed=1)
    b = bound_ratio_scan(z25, [6], trials=8, seed=2)
    assert a != b


def test_classify_and_scan_read_the_replays_bounds(monkeypatch):
    # the bounds do not depend on the edge route: skip z:7:2's 2793-class SVD
    monkeypatch.setattr(graph_module, "MAX_GRAPH_CLASSES", 2000)
    # f:27:1 with |A| = 9 sits on the regime-1 boundary, where thm1's two terms
    # meet; z:3001:1 with |A| = 2921 is where math.sqrt(k) and k ** 0.5 differ
    sweep = {
        "z:3:2": range(1, 7), "z:5:2": (2, 5, 8, 10, 12, 13, 15, 20),
        "z:7:2": (5, 14, 18, 20, 23, 30, 42), "f:9:2": (8, 18, 24, 30, 35, 50, 72),
        "z:3:3": (3, 9, 17, 18), "f:27:1": (9,), "z:3001:1": (2921,),
    }
    seed, seen = 7, set()
    for spec, sizes in sweep.items():
        ring = parse_ring(spec)
        for k in sizes:
            a = sample_unit_subset(ring, k, derive_seed(seed, 0, 0))
            v = classify_regime(a)
            thm1, thm2 = verify_thm1_pipeline(a, 2), verify_thm2_pipeline(a, 2)
            seen.add(v.regime)
            if v.regime is not None:
                assert v.rhs == (thm2 if v.regime == 3 else thm1).ratio["rhs"], (spec, k)
            assert v.hypothesis_met == thm2.hypothesis["met"], (spec, k)
            row1, row2 = bound_ratio_scan(ring, [k], 1, seed)["rows"]
            assert row1["ratio_min"] == thm1.ratio["ratio"], (spec, k)
            assert row2["ratio_min"] == thm2.ratio["ratio"], (spec, k)
    assert seen == {1, 2, 3, None}


def test_scan_rejects_bad_sizes(z25):
    with pytest.raises(BadSize):
        bound_ratio_scan(z25, [0], trials=2, seed=0)
    with pytest.raises(BadSize):
        bound_ratio_scan(z25, [21], trials=2, seed=0)


# ---------------------------------------------------------------------------
# extremal search


def test_search_all_units_short_circuit(z9):
    out = extremal_search(z9, 6, iters=100, seed=0)
    assert out["chains"] == 0
    assert out["best_set"] == [1, 2, 4, 5, 7, 8]
    assert out["best_objective"] == 9
    assert out["trace"] == [9]


def test_search_trace_monotone(z25, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHAIN_LEN", 50)
    out = extremal_search(z25, 4, iters=120, seed=7)
    assert out["chains"] == 3
    tr = out["trace"]
    assert all(tr[i + 1] <= tr[i] for i in range(len(tr) - 1))
    assert out["best_objective"] == tr[-1]
    assert out["best_objective"] <= out["start_objective"]
    assert len(out["best_set"]) == 4
    again = extremal_search(z25, 4, iters=120, seed=7)
    assert again == out


def test_search_bad_size(z25):
    with pytest.raises(BadSize):
        extremal_search(z25, 0, iters=10, seed=0)
    with pytest.raises(BadSize):
        extremal_search(z25, 99, iters=10, seed=0)


# ---------------------------------------------------------------------------
# product-growth ratio report


def test_hpv_frozen_units_z9(z9):
    u = ElementSet.units(z9)
    rep = verify_hpv(u, u, u)
    assert rep["sizes"] == {"a": 6, "b": 6, "c": 6, "ab": 6, "bc": 6, "b_plus_c": 9}
    assert rep["rhs"] == pytest.approx(48.0)
    assert rep["additive"]["lhs"] == 54
    assert rep["additive"]["ratio"] == pytest.approx(1.125)
    assert rep["multiplicative"]["lhs"] == 36
    assert rep["multiplicative"]["ratio"] == pytest.approx(0.75)


def test_hpv_singletons(z9):
    one = ElementSet.from_indices(z9, [1])
    rep = verify_hpv(one, one, one)
    assert rep["rhs"] == pytest.approx(1 / 27)
    assert rep["additive"]["ratio"] == pytest.approx(27.0)


def test_hpv_rejects_nonunits(z9):
    u = ElementSet.units(z9)
    with pytest.raises(NotUnits):
        verify_hpv(u, ElementSet.from_indices(z9, [0, 1]), u)
