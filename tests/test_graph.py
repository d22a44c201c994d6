import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import graph as graph_module
from valring.cli import parse_ring
from valring import (
    AllNonUnits,
    BadIndex,
    MAX_GRAPH_CLASSES,
    ElementFilter,
    ElementSet,
    TooLarge,
    build_graph,
    canonicalize,
    canonicalize_rows,
    class_count,
    class_degree,
    count_form_solutions,
    edge_count,
    embed_energy_sets,
    embed_solution_sets,
    enumerate_classes,
    fold_sets,
    form_energy,
    lambda3_bound,
    make_ring,
    mixing_random_pairs,
    pair_edge_count,
    sample_unit_subset,
    spectrum,
)


# ---------------------------------------------------------------------------
# closed-form counts, frozen


@pytest.mark.parametrize(
    "maker,d,n_cls,deg",
    [
        ((3, 1, 1, "zpr"), 2, 4, 1),
        ((3, 1, 1, "zpr"), 3, 13, 4),
        ((3, 1, 1, "zpr"), 4, 40, 13),
        ((3, 1, 2, "zpr"), 2, 12, 1),
        ((3, 1, 2, "zpr"), 3, 117, 12),
        ((3, 1, 2, "zpr"), 4, 1080, 117),
        ((5, 1, 2, "zpr"), 3, 775, 30),
        ((5, 1, 2, "zpr"), 4, 19500, 775),
        ((3, 2, 1, "fqtr"), 3, 91, 10),
        ((3, 2, 2, "fqtr"), 2, 90, 1),
        ((3, 2, 2, "fqtr"), 3, 7371, 90),
    ],
)
def test_class_count_and_degree(maker, d, n_cls, deg):
    ring = make_ring(*maker)
    assert class_count(ring, d) == n_cls
    assert class_degree(ring, d) == deg


def test_orbit_counting_oracle(z9):
    # brute force: vectors with a unit coordinate fall in orbits of size |R*|
    d = 2
    valid = [
        v
        for v in itertools.product(range(9), repeat=d)
        if any(z9.is_unit(c) for c in v)
    ]
    assert len(valid) == 72
    orbits = {canonicalize(z9, v) for v in valid}
    assert len(orbits) == 12 == class_count(z9, d)
    # every orbit has exactly unit_count members
    sizes = {}
    for v in valid:
        sizes[canonicalize(z9, v)] = sizes.get(canonicalize(z9, v), 0) + 1
    assert set(sizes.values()) == {6}


@pytest.mark.parametrize(
    "maker,d,lam",
    [
        ((3, 1, 1, "zpr"), 3, 3**0.5),
        ((3, 1, 2, "zpr"), 3, 27**0.5),
        ((3, 1, 2, "zpr"), 4, 27.0),
        ((5, 1, 2, "zpr"), 3, 125**0.5),
    ],
)
def test_lambda3_bound_frozen(maker, d, lam):
    assert lambda3_bound(make_ring(*maker), d) == pytest.approx(lam, rel=1e-12)


# ---------------------------------------------------------------------------
# canonical representatives


def test_canonicalize_scalar(z9):
    assert canonicalize(z9, (2, 4, 6)) == (1, 2, 3)
    assert canonicalize(z9, (3, 2, 0)) == (6, 1, 0)
    assert canonicalize(z9, (0, 3, 5)) == (0, 6, 1)
    with pytest.raises(AllNonUnits):
        canonicalize(z9, (0, 3, 6))


@given(st.integers(1, 8), st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_canonicalize_is_scale_invariant(u, vec):
    ring = make_ring(3, 1, 2)
    if not ring.is_unit(u) or not any(ring.is_unit(c) for c in vec):
        return
    scaled = [ring.mul(u, c) for c in vec]
    assert canonicalize(ring, scaled) == canonicalize(ring, vec)
    rep = canonicalize(ring, vec)
    assert canonicalize(ring, rep) == rep


def _canonicalize_reference(ring, vec):
    """Scale by the inverse of the first unit coordinate, found by search."""
    pivot = next(c for c in vec if ring.is_unit(c))
    inv = next(y for y in range(ring.size) if ring.mul(pivot, y) == ring.one.index)
    return tuple(ring.mul(inv, c) for c in vec)


def test_canonicalize_rows_matches_scalar(f9t2):
    rows = []
    for v in itertools.product(range(0, 81, 7), repeat=2):
        if any(f9t2.is_unit(c) for c in v):
            rows.append(v)
    rows = np.array(rows, dtype=np.int64)
    out = canonicalize_rows(f9t2, rows)
    for r_in, r_out in zip(rows, out):
        vec = tuple(int(c) for c in r_in)
        expected = _canonicalize_reference(f9t2, vec)
        assert tuple(int(c) for c in r_out) == expected
        assert canonicalize(f9t2, vec) == expected


def test_enumerate_classes_frozen_f3():
    ring = make_ring(3, 1, 1)
    rows = enumerate_classes(ring, 2)
    assert rows.tolist() == [[0, 1], [1, 0], [1, 1], [1, 2]]
    assert not rows.flags.writeable


def test_enumerate_classes_properties(z9):
    rows = enumerate_classes(z9, 3)
    assert len(rows) == 117
    # rows unique, canonical, lex sorted
    assert len(np.unique(rows, axis=0)) == 117
    again = canonicalize_rows(z9, rows)
    assert np.array_equal(again, rows)
    order = np.lexsort(rows[:, ::-1].T)
    assert np.array_equal(order, np.arange(117))


def test_enumerate_classes_cap(z9):
    with pytest.raises(TooLarge):
        enumerate_classes(z9, 5)  # 9801 classes, over MAX_GRAPH_CLASSES = 5000


# ---------------------------------------------------------------------------
# dense graph


def test_build_graph_basic(z9):
    g = build_graph(z9, 3)
    assert g.n_classes == 117
    assert g.degree == 12
    m = g.biadjacency
    assert m.shape == (117, 117)
    assert np.array_equal(m, m.T)
    assert (m.sum(axis=1) == 12).all()
    assert (m.sum(axis=0) == 12).all()


def test_build_graph_is_cached(z9):
    assert build_graph(z9, 3) is build_graph(z9, 3)


def test_build_graph_cap(f9t2):
    with pytest.raises(TooLarge):
        build_graph(f9t2, 3)  # 7371 classes


def test_index_of_roundtrip(z9):
    g = build_graph(z9, 3)
    assert np.array_equal(g.index_of(g.classes), np.arange(117))
    with pytest.raises(BadIndex):
        g.index_of(np.array([[2, 0, 0]]))  # not canonical, absent
    # the key of [0, 0, 10] or of [0, 1] is that of a class; neither is one
    for bad in ([[0, 0, 10]], [[0, 0, -1]], [[0, 1]], [0, 0, 1]):
        with pytest.raises(BadIndex):
            g.index_of(np.array(bad))


def test_spectrum_frozen_f3():
    g = build_graph(make_ring(3, 1, 1), 3)
    sv = spectrum(g)
    assert sv[0] == pytest.approx(4.0, abs=1e-9)
    assert sv[1] == pytest.approx(3**0.5, abs=1e-9)
    assert sv[1] <= lambda3_bound(g.ring, 3) + 1e-6


def test_spectrum_frozen_z9(z9):
    sv = spectrum(build_graph(z9, 3))
    assert sv[0] == pytest.approx(12.0, abs=1e-8)
    assert sv[1] == pytest.approx(27**0.5, abs=1e-8)


def test_edge_count_identities(z9):
    g = build_graph(z9, 3)
    every = range(g.n_classes)
    assert edge_count(g, every, every) == g.n_classes * g.degree
    assert edge_count(g, [0, 1, 2], every) == 3 * g.degree
    assert edge_count(g, [], every) == 0
    with pytest.raises(BadIndex):
        edge_count(g, [0, 200], [1])


def test_pair_edge_count_matches_graph(z9):
    g = build_graph(z9, 3)
    rng = np.random.default_rng(7)
    li = rng.choice(g.n_classes, size=40, replace=False)
    ri = rng.choice(g.n_classes, size=25, replace=False)
    direct = pair_edge_count(z9, g.classes[np.sort(li)], g.classes[np.sort(ri)])
    assert direct == edge_count(g, li, ri)


def _near_top_rows(ring, d, spread):
    """60 left and 70 right rows with entries in [size - spread, size - 1],
    near the top of the dot-product bound."""
    rng = np.random.default_rng(ring.p + d)
    left, right = (ring.size - 1 - rng.integers(0, spread, size=(m, d)) for m in (60, 70))
    if ring.r == 1:
        # random pairs over a large field are almost never orthogonal: make
        # one right row orthogonal to each of the first ten left rows
        for i in range(10):
            head = int(ring.mul_many(left[i, :-1], right[i, :-1]).sum())
            right[i, -1] = -head * pow(int(left[i, -1]), -1, ring.size) % ring.size
    return left, right


@pytest.mark.parametrize(
    "p,r,d,spread",
    [(5, 2, 4, 25), (3, 4, 3, 81), (65521, 1, 8, 4)],
)
def test_pair_edge_count_zpr_matches_ring_arithmetic(p, r, d, spread):
    ring = make_ring(p, 1, r)
    left, right = _near_top_rows(ring, d, spread)
    acc = np.zeros((len(left), len(right)), dtype=np.int64)
    for k in range(d):
        acc = ring.add_many(acc, ring.mul_many(left[:, k, None], right[None, :, k]))
    expected = int((acc == 0).sum())
    assert expected > 0
    assert pair_edge_count(ring, left, right) == expected


def test_pair_edge_count_cap(z9, monkeypatch):
    g = build_graph(z9, 3)
    monkeypatch.setattr(graph_module, "MAX_PAIR_COUNT", 100)
    with pytest.raises(TooLarge):
        pair_edge_count(z9, g.classes, g.classes)


def _pairwise_count(ring, left, right):
    return int(graph_module._dot_zero_block(ring, left, right).sum())


def _random_side(ring, rng, d, rows, prefixes, last):
    """rows x d indices: prefixes drawn from a pool, last column by ``last``."""
    pool = rng.integers(0, ring.size, size=(prefixes, d - 1))
    side = np.empty((rows, d), dtype=np.int64)
    side[:, :-1] = pool[rng.integers(0, prefixes, size=rows)]
    if last == "zero":
        side[:, -1] = 0
    elif last == "non-unit":
        side[:, -1] = rng.choice(ring.indices(ElementFilter.MAXIMAL_IDEAL), size=rows)
    else:
        side[:, -1] = rng.integers(0, ring.size, size=rows)
    return side


_SIDE = st.tuples(
    st.sampled_from([1, 2, 9, 40, 90]),  # rows
    st.sampled_from([1, 2, 5, 90]),  # size of the prefix pool
    st.sampled_from(["zero", "non-unit", "any"]),  # last coordinate
)


@given(
    st.sampled_from(["z:3:2", "z:5:2", "z:7:2", "f:9:2", "f:3:3"]),
    st.integers(2, 5),
    _SIDE,
    _SIDE,
    st.integers(0, 2**32 - 1),
)
def test_pair_edge_count_matches_pairwise(desc, d, left_shape, right_shape, seed):
    ring = parse_ring(desc)
    rng = np.random.default_rng(seed)
    left = _random_side(ring, rng, d, *left_shape)
    right = _random_side(ring, rng, d, *right_shape)
    assert pair_edge_count(ring, left, right) == _pairwise_count(ring, left, right)


def _no_pairwise(*args):
    raise AssertionError("grouped kernel fell back to pairwise blocks")


def test_pair_edge_count_grouped_skips_pairwise(z25, monkeypatch):
    f = fold_sets(sample_unit_subset(z25, 10, 9), 2)
    emb = embed_energy_sets(f)
    monkeypatch.setattr(graph_module, "_dot_zero_block", _no_pairwise)
    assert pair_edge_count(z25, emb.u_rows, emb.v_rows) == form_energy(f)


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_pair_edge_count_chunk_boundaries(z25, monkeypatch, cells):
    f = fold_sets(sample_unit_subset(z25, 4, 3), 2)
    emb = embed_energy_sets(f)
    monkeypatch.setattr(graph_module, "_dot_zero_block", _no_pairwise)
    monkeypatch.setattr(graph_module, "_CHUNK_CELLS", cells)
    assert pair_edge_count(z25, emb.u_rows, emb.v_rows) == form_energy(f)


def test_pair_edge_count_large_field_falls_back(monkeypatch):
    # 70 right groups x 4 distinct x x 65521 table cells dwarf the 4200 pairs
    ring = make_ring(65521, 1, 1)
    left, right = _near_top_rows(ring, 8, 4)
    expected = _pairwise_count(ring, left, right)
    calls = []
    pairwise = graph_module._dot_zero_block

    def counted(*args):
        calls.append(len(args[1]))
        return pairwise(*args)

    monkeypatch.setattr(graph_module, "_dot_zero_block", counted)
    assert pair_edge_count(ring, left, right) == expected
    assert calls == [60]


@pytest.mark.parametrize("p,d", [(3, 4), (65521, 8)])
def test_row_keys_follow_lexicographic_order(p, d):
    # 65521**8 passes int64, so those keys are rebuilt from ranks on the way
    ring = make_ring(p, 1, 1)
    rng = np.random.default_rng(d)
    # three values per column, so rows repeat and share leading columns
    values = rng.integers(0, ring.size, size=(d, 3))
    rows = values[np.arange(d), rng.integers(0, 3, size=(300, d))]
    _, first = np.unique(graph_module._row_keys(ring, rows), return_index=True)
    assert np.array_equal(rows[first], np.unique(rows, axis=0))


# ---------------------------------------------------------------------------
# mixing


def test_mixing_random_pairs_lambda3_kind(z9):
    g = build_graph(z9, 3)
    rep = mixing_random_pairs(g, 20, seed=3)
    assert rep["violations"] == 0
    assert rep["lambda3_kind"] == "computed"


@pytest.mark.parametrize("maker,d", [((3, 1, 2, "zpr"), 3), ((3, 2, 1, "fqtr"), 3)])
def test_mixing_random_pairs_no_violations(maker, d):
    g = build_graph(make_ring(*maker), d)
    rep = mixing_random_pairs(g, 200, seed=5)
    assert rep["violations"] == 0
    assert 0.0 <= rep["mean_ratio"] <= rep["max_ratio"] <= 1.0 + 1e-9


def test_mixing_random_pairs_deterministic(z9):
    g = build_graph(z9, 3)
    a = mixing_random_pairs(g, 50, seed=11)
    b = mixing_random_pairs(g, 50, seed=11)
    assert a == b


@pytest.mark.parametrize("trials_per_chunk", [1, 7, 49])
def test_mixing_random_pairs_chunks_match_one_chunk(z9, monkeypatch, trials_per_chunk):
    g = build_graph(z9, 3)
    whole = mixing_random_pairs(g, 50, seed=11)
    monkeypatch.setattr(graph_module, "_CHUNK_CELLS", trials_per_chunk * g.n_classes)
    chunked = mixing_random_pairs(g, 50, seed=11)
    assert json.dumps(chunked) == json.dumps(whole)


# ---------------------------------------------------------------------------
# statistic-preserving embeddings


def test_embed_solution_sets_frozen(z9):
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    emb = embed_solution_sets(f)
    assert emb.audit == "ok"
    assert emb.d == 3
    assert emb.u_count == 6 and emb.v_count == 6
    g = build_graph(z9, 3)
    e = edge_count(g, g.index_of(emb.u_rows), g.index_of(emb.v_rows))
    assert e == count_form_solutions(f) == 8
    # direct pairwise route agrees with the dense graph
    assert pair_edge_count(z9, emb.u_rows, emb.v_rows) == 8


def test_embed_energy_sets_frozen(z9):
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    emb = embed_energy_sets(f)
    assert emb.audit == "ok"
    assert emb.d == 4
    assert emb.u_count == emb.v_count == 12
    assert pair_edge_count(z9, emb.u_rows, emb.v_rows) == form_energy(f) == 32
    g = build_graph(z9, 4)
    e = edge_count(g, g.index_of(emb.u_rows), g.index_of(emb.v_rows))
    assert e == 32


def _check_embeddings(ring, f):
    """Both embeddings reproduce their statistic, by pairs and by dense graph."""
    for embed, stat in (
        (embed_solution_sets, count_form_solutions(f)),
        (embed_energy_sets, form_energy(f)),
    ):
        emb = embed(f)
        assert emb.audit == "ok"
        assert pair_edge_count(ring, emb.u_rows, emb.v_rows) == stat
        if class_count(ring, emb.d) <= MAX_GRAPH_CLASSES:
            g = build_graph(ring, emb.d)
            assert edge_count(g, g.index_of(emb.u_rows), g.index_of(emb.v_rows)) == stat


@pytest.mark.parametrize("maker", [(3, 1, 2, "zpr"), (3, 2, 1, "fqtr"), (5, 1, 2, "zpr")])
def test_embeddings_reproduce_counts(maker):
    ring = make_ring(*maker)
    for seed in (1, 2, 3):
        a = sample_unit_subset(ring, min(5, ring.unit_count), seed)
        _check_embeddings(ring, fold_sets(a, 2))


# at n = 3, larger rings or |A| > 4 can exceed max_pair_count
@pytest.mark.parametrize("maker", [(3, 1, 2, "zpr"), (3, 2, 1, "fqtr")])
def test_embeddings_reproduce_counts_n3(maker):
    ring = make_ring(*maker)
    for seed in (1, 3):
        _check_embeddings(ring, fold_sets(sample_unit_subset(ring, 4, seed), 3))


def test_embed_skip_mode(z9, monkeypatch):
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    monkeypatch.setattr(graph_module, "MAX_EMBED_SIZE", 1)
    emb = embed_solution_sets(f)
    assert emb.audit == "skipped"
    assert emb.u_rows is None and emb.v_rows is None
    assert emb.u_count == 6  # counts still reported for the bound-only route
