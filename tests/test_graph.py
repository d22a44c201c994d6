import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import graph as graph_module
from valring import ring as ring_module
from valring.cli import parse_ring
from valring import (
    AllNonUnits,
    BadIndex,
    MAX_GRAPH_CLASSES,
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

from oracle import Oracle


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
    for bad in (9, -1):
        with pytest.raises(BadIndex):
            canonicalize(z9, (1, bad, 2))


@given(st.integers(1, 8), st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_canonicalize_is_scale_invariant(u, vec):
    ring = make_ring(3, 1, 2)
    if not ring.is_unit(u) or not any(ring.is_unit(c) for c in vec):
        return
    scaled = [ring.mul(u, c) for c in vec]
    assert canonicalize(ring, scaled) == canonicalize(ring, vec)
    rep = canonicalize(ring, vec)
    assert canonicalize(ring, rep) == rep


def test_canonicalize_rows_matches_scalar(f9t2):
    ref = Oracle("f:9:2")
    grid = np.array(list(itertools.product(range(0, 81, 7), repeat=2)))
    rows = grid[ref.is_unit(grid).any(axis=1)]
    expected = ref.canonicalize(rows)
    np.testing.assert_array_equal(canonicalize_rows(f9t2, rows), expected)
    for vec, rep in zip(rows.tolist(), expected.tolist()):
        assert canonicalize(f9t2, vec) == tuple(rep)


def test_canonicalize_rows_takes_grid_columns(f9t2):
    a, b = np.array([0, 3, 10, 44, 72]), np.array([1, 5, 28, 80])  # 0 and 72 are not units
    grid = np.array(list(itertools.product(a.tolist(), b.tolist())), dtype=np.int64)
    out = canonicalize_rows(f9t2, [a[:, None], b[None, :]])
    assert np.array_equal(out, canonicalize_rows(f9t2, grid))
    with pytest.raises(AllNonUnits):  # the vector (0, 9) has no unit coordinate
        canonicalize_rows(f9t2, [np.array([0, 1])[:, None], np.array([1, 9])[None, :]])


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


def _vertex_ids(g, rows):
    """Vertex ids of canonical rows, looked up in the graph's class list."""
    index = {row: i for i, row in enumerate(map(tuple, g.classes.tolist()))}
    return [index[row] for row in map(tuple, rows.tolist())]


@pytest.mark.parametrize("desc", ["z:3:2", "f:9:1"])
def test_pair_edge_count_rejects_bad_rows(desc):
    ring = parse_ring(desc)  # 9 elements in both families
    good = enumerate_classes(ring, 3)[:5]
    assert pair_edge_count(ring, good, good) > 0
    assert pair_edge_count(ring, good[:0], good) == pair_edge_count(ring, good, good[:0]) == 0
    # out of range, a width-2 row against width-3 rows, a 1-D row
    for bad in ([[0, 0, 10]], [[0, 0, -1]], [[0, 1]], [0, 0, 1]):
        for left, right in ((np.array(bad), good), (good, np.array(bad))):
            with pytest.raises(BadIndex):
                pair_edge_count(ring, left, right)
    # shifted or negated classes are not ring indices, whatever they count
    for bad in (good + ring.size, -good):
        with pytest.raises(BadIndex):
            pair_edge_count(ring, bad, good)


@pytest.mark.parametrize(
    "p,k,family",
    # k * (p - 1)**2 just under 2**31, then just over, on z:p:1 and f:p:1
    [
        pytest.param(p, k, family, id=f"{p}-{k}" + ("-fqtr" if family == "fqtr" else ""))
        for family in ("zpr", "fqtr")
        for p, k in [(26737, 3), (26759, 3), (23167, 4), (23173, 4)]
    ],
)
def test_dot_block_exact_near_the_int32_bound(p, k, family):
    ring = make_ring(p, 1, 1, family)
    rng = np.random.default_rng(p)
    left, right = (ring.size - 1 - rng.integers(0, 3, size=(m, k)) for m in (20, 30))
    expected = Oracle(ring.descriptor).dot(left[:, None], right[None])
    np.testing.assert_array_equal(ring.dot_many(left, right), expected)


# every multi-digit ring that tabulates: f:<p**s>:<r> with s*r > 1 and
# p**(s*r) <= _TABLE_MAX_SIZE (15 rings at 125, from f:3:2 to f:121:1)
_TABLE_CAP = ring_module._TABLE_MAX_SIZE
_TABULATED_MULTI_DIGIT = [
    f"f:{p**s}:{r}"
    for p in range(3, math.isqrt(_TABLE_CAP) + 1, 2)
    if ring_module.is_prime(p)
    for s in range(1, _TABLE_CAP.bit_length())
    for r in range(1, _TABLE_CAP.bit_length())
    if s * r > 1 and p ** (s * r) <= _TABLE_CAP
]


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("desc", _TABULATED_MULTI_DIGIT + ["f:13:2"])
def test_dot_block_matches_a_scalar_fold(desc, d):
    # f:13:2 (28 561 elements) is above the table cap, where dot_many contracts
    # instead of gathering
    ring = parse_ring(desc)
    assert ring.n > 1
    assert (ring._cayley() is None) == (desc == "f:13:2")
    rng = np.random.default_rng(ring.size * 10 + d)
    left, right = (rng.integers(0, ring.size, size=(m, d)) for m in (6, 7))
    for side in (left, right):
        side[0] = ring.size - 1  # one row of top entries, and about a quarter elsewhere
        side[rng.random(side.shape) < 0.25] = ring.size - 1
    expected = Oracle(desc).dot(left[:, None], right[None])
    np.testing.assert_array_equal(ring.dot_many(left, right), expected)


@pytest.mark.parametrize("desc,d", [("f:9:2", 2), ("f:3:2", 3), ("f:25:1", 3)])
def test_build_graph_matches_a_column_fold(desc, d):
    # f:9:2 at d = 3 has 7371 classes, past MAX_GRAPH_CLASSES; f:3:2 stands in
    ring = parse_ring(desc)
    classes = enumerate_classes(ring, d)
    dots = Oracle(desc).dot(classes[:, None], classes[None])
    np.testing.assert_array_equal(build_graph(ring, d).biadjacency, dots == 0)


@pytest.mark.parametrize("desc", ["z:3:2", "f:9:1"])
def test_dot_zero_block_row_blocks_match_one_block(desc, monkeypatch):
    ring = parse_ring(desc)
    classes = enumerate_classes(ring, 3)
    whole = np.full((len(classes), len(classes)), 2, dtype=np.uint8)
    count = graph_module._zero_dot_count(ring, classes, classes, out=whole)
    assert count == whole.sum() == len(classes) * class_degree(ring, 3)
    # blocks of 4 rows; 117 and 91 classes leave a short last block
    monkeypatch.setattr(graph_module, "_BLOCK_CELLS", 4 * len(classes))
    blocked = np.full_like(whole, 2)
    assert graph_module._zero_dot_count(ring, classes, classes, out=blocked) == count
    assert np.array_equal(blocked, whole)


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


def _near_top_rows(ring, d, spread, sizes=(60, 70)):
    """Left and right rows, 60 and 70 by default, with entries in
    [size - spread, size - 1], near the top of the dot-product bound."""
    rng = np.random.default_rng(ring.p + d)
    left, right = (ring.size - 1 - rng.integers(0, spread, size=(m, d)) for m in sizes)
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
    expected = Oracle(ring.descriptor).zero_dots(left, right)
    assert expected > 0
    assert pair_edge_count(ring, left, right) == expected


def test_pair_edge_count_cap(z9, monkeypatch):
    g = build_graph(z9, 3)
    monkeypatch.setattr(graph_module, "MAX_PAIR_COUNT", 100)
    with pytest.raises(TooLarge):
        pair_edge_count(z9, g.classes, g.classes)


def _random_side(ring, rng, d, rows, prefixes, last):
    """rows x d indices: prefixes drawn from a pool, last column by ``last``."""
    pool = rng.integers(0, ring.size, size=(prefixes, d - 1))
    side = np.empty((rows, d), dtype=np.int64)
    side[:, :-1] = pool[rng.integers(0, prefixes, size=rows)]
    if last == "zero":
        side[:, -1] = 0
    elif last == "non-unit":
        side[:, -1] = rng.choice(ElementSet.maximal_ideal(ring).indices(), size=rows)
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
    assert pair_edge_count(ring, left, right) == Oracle(ring.descriptor).zero_dots(left, right)


def _pooled_rows(ring, rng, rows, d, plain=0):
    """rows x d indices, each column drawn from a pool of six: 0, two non-units
    and three units, so rows repeat and share prefixes and suffixes.  The
    first ``plain`` rows are a unit followed by d-1 non-units, so none of
    their suffixes holds a unit coordinate."""
    nonunits = ElementSet.maximal_ideal(ring).indices()
    units = ElementSet.units(ring).indices()
    pools = [np.concatenate(([0], rng.choice(nonunits[1:], 2), rng.choice(units, 3))) for _ in range(d)]
    side = np.stack([rng.choice(pool, rows) for pool in pools], axis=1)
    side[:plain, 0] = rng.choice(units, plain)
    side[:plain, 1:] = rng.choice(nonunits, (plain, d - 1))
    return side


def _split_case(name):
    """(ring descriptor, left, right) for the split kernel's differential test."""
    if name == "energy":  # a z:5:2 energy embedding, every left suffix with a unit
        emb = embed_energy_sets(fold_sets(sample_unit_subset(parse_ring("z:5:2"), 3, 1), 2))
        return "z:5:2", emb.u_rows, emb.v_rows
    desc, d = {"plain": ("z:5:2", 4), "gather": ("f:9:2", 3), "above-cap": ("f:13:2", 3)}[name]
    ring = parse_ring(desc)
    rng = np.random.default_rng(len(name))
    left = _pooled_rows(ring, rng, 40, d, plain=12)
    right = _pooled_rows(ring, rng, 30, d, plain=5)
    # repeated rows: the last ten of each side again
    return desc, np.concatenate([left, left[-10:]]), np.concatenate([right, right[-10:]])


@pytest.mark.parametrize("cells", [1, 7, 100])
@pytest.mark.parametrize("name", ["energy", "plain", "gather", "above-cap"])
def test_split_count_matches_the_oracle(name, cells, monkeypatch):
    # every split s and both sides scaled, with temporaries of 1, 7 and 100 cells
    desc, left, right = _split_case(name)
    ring = parse_ring(desc)
    expected = Oracle(desc).zero_dots(left, right)
    assert expected > 0
    monkeypatch.setattr(graph_module, "CHUNK_CELLS", cells)
    for s in range(1, left.shape[1]):
        assert graph_module._split_count(ring, left, right, s) == expected
        assert graph_module._split_count(ring, right, left, s) == expected


@given(
    st.sampled_from(["z:3:2", "z:5:2", "f:9:2", "f:3:3"]),
    st.integers(2, 5),
    _SIDE,
    _SIDE,
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_split_count_matches_pairwise(desc, d, left_shape, right_shape, seed, data):
    ring = parse_ring(desc)
    rng = np.random.default_rng(seed)
    left = _random_side(ring, rng, d, *left_shape)
    right = _random_side(ring, rng, d, *right_shape)
    s = data.draw(st.integers(1, d - 1))
    expected = Oracle(desc).zero_dots(left, right)
    assert graph_module._split_count(ring, left, right, s) == expected
    assert graph_module._split_count(ring, right, left, s) == expected


def _no_pairwise(*args):
    raise AssertionError("pair_edge_count fell back to pairwise blocks")


def _routed_split_cases():
    """(ring, left, right, expected, split) inputs that pair_edge_count splits.

    First the z:5:2 energy embedding of 10 units (1750 x 1750 rows), then
    400 x 300 pooled z:5:2 rows of which 100 left rows have no unit in any
    suffix; both split at s = 2 with the left rows scaled.
    """
    z25 = parse_ring("z:5:2")
    f = fold_sets(sample_unit_subset(z25, 10, 9), 2)
    emb = embed_energy_sets(f)
    yield z25, emb.u_rows, emb.v_rows, form_energy(f), (2, False)
    rng = np.random.default_rng(1)
    left, right = _pooled_rows(z25, rng, 400, 4, plain=100), _pooled_rows(z25, rng, 300, 4)
    yield z25, left, right, Oracle("z:5:2").zero_dots(left, right), (2, False)


def test_pair_edge_count_grouped_skips_pairwise(monkeypatch):
    cases = list(_routed_split_cases())
    monkeypatch.setattr(graph_module, "_zero_dot_count", _no_pairwise)
    for ring, left, right, expected, split in cases:
        assert graph_module._split_choice(ring, left, right) == split
        assert pair_edge_count(ring, left, right) == expected


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_pair_edge_count_chunk_boundaries(monkeypatch, cells):
    # small enough for one-cell chunks: a f:9:2 energy embedding (160 x 160
    # rows) and a z:5:2 solution embedding (175 x 150 rows), both split at s = 1
    f92, z25 = parse_ring("f:9:2"), parse_ring("z:5:2")
    f = fold_sets(sample_unit_subset(f92, 4, 0), 2)
    g = fold_sets(sample_unit_subset(z25, 10, 9), 2)
    cases = [
        (f92, embed_energy_sets(f), form_energy(f)),
        (z25, embed_solution_sets(g), count_form_solutions(g)),
    ]
    monkeypatch.setattr(graph_module, "_zero_dot_count", _no_pairwise)
    monkeypatch.setattr(graph_module, "CHUNK_CELLS", cells)
    for ring, emb, expected in cases:
        assert graph_module._split_choice(ring, emb.u_rows, emb.v_rows) == (1, False)
        assert pair_edge_count(ring, emb.u_rows, emb.v_rows) == expected


def test_pair_edge_count_memory(z25):
    # 5000 x 5000 rows: every temporary is chunked, and the tables are 4-byte cells
    f = fold_sets(sample_unit_subset(z25, 20, 0), 2)
    emb = embed_energy_sets(f)
    assert len(emb.u_rows) == len(emb.v_rows) == 5000
    tracemalloc.start()
    try:
        edges = pair_edge_count(z25, emb.u_rows, emb.v_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges == form_energy(f)
    assert peak < 16 * 10**6


def _counting_pairwise(monkeypatch):
    """Wrap _zero_dot_count; returns the list of the left row counts it is called with."""
    calls = []
    pairwise = graph_module._zero_dot_count

    def counted(*args):
        calls.append(len(args[1]))
        return pairwise(*args)

    monkeypatch.setattr(graph_module, "_zero_dot_count", counted)
    return calls


def test_pair_edge_count_large_field_falls_back(monkeypatch):
    # 120 x 130 rows of width 8 on a field of 65521 elements: priced, since the
    # pairs cost more than a split's base, but every split's tables hold 65521
    # cells per class and right group and outprice the pairs
    ring = make_ring(65521, 1, 1)
    left, right = _near_top_rows(ring, 8, 4, sizes=(120, 130))
    assert len(left) * len(right) * (8 + 1) > graph_module._SPLIT_BASE
    expected = Oracle(ring.descriptor).zero_dots(left, right)
    calls = _counting_pairwise(monkeypatch)
    assert pair_edge_count(ring, left, right) == expected
    assert calls == [120]


def _weighted_window_cases():
    """(ring, left, right, expected, split, split_at_weight_1): the split
    pair_edge_count picks, with a pairwise coordinate weighed twice on a
    multi-digit ring with Cayley tables, and with it weighed once."""
    f92 = parse_ring("f:9:2")
    f = fold_sets(sample_unit_subset(f92, 4, 0), 2)
    emb = embed_energy_sets(f)  # 160 x 160 rows of width 4
    yield f92, emb.u_rows, emb.v_rows, form_energy(f), (1, False), None
    z81 = parse_ring("z:3:4")  # the same rows on a one-digit ring of 81 elements
    expected = Oracle("z:3:4").zero_dots(emb.u_rows, emb.v_rows)
    yield z81, emb.u_rows, emb.v_rows, expected, None, None
    # 160 x 160 rows over 10 prefixes and one left last coordinate on f:13:2,
    # above the table cap, where a coordinate weighs 1 either way
    f132 = parse_ring("f:13:2")
    rng = np.random.default_rng(13)
    pool = rng.integers(0, f132.size, size=(10, 2))
    left = np.column_stack([pool[np.arange(160) % 10], np.full(160, 5)])
    right = np.column_stack([pool[np.arange(160) % 10], rng.integers(0, f132.size, 160)])
    yield f132, left, right, Oracle("f:13:2").zero_dots(left, right), (1, False), (1, False)


@pytest.mark.parametrize("case", range(3))
def test_pair_edge_count_weighs_tabulated_pairs_twice(case, monkeypatch):
    ring, left, right, expected, split, split_at_weight_1 = list(_weighted_window_cases())[case]
    assert graph_module._split_choice(ring, left, right) == split
    monkeypatch.setattr(graph_module, "_GATHER_COORD_PRICE", 1)
    assert graph_module._split_choice(ring, left, right) == split_at_weight_1
    monkeypatch.undo()
    calls = _counting_pairwise(monkeypatch)
    assert pair_edge_count(ring, left, right) == expected
    assert calls == ([] if split else [len(left)])


def test_pair_edge_count_fallback_row_blocks(monkeypatch):
    # blocks of 7 of the 60 left rows: eight full blocks and a short last one
    ring = make_ring(65521, 1, 1)
    left, right = _near_top_rows(ring, 8, 4)
    ref = Oracle(ring.descriptor)
    expected = ref.zero_dots(left, right)
    assert ref.zero_dots(left[56:], right) > 0
    monkeypatch.setattr(graph_module, "_BLOCK_CELLS", 7 * len(right))
    assert pair_edge_count(ring, left, right) == expected


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
    monkeypatch.setattr(graph_module, "CHUNK_CELLS", trials_per_chunk * g.n_classes)
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
    e = edge_count(g, _vertex_ids(g, emb.u_rows), _vertex_ids(g, emb.v_rows))
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
    e = edge_count(g, _vertex_ids(g, emb.u_rows), _vertex_ids(g, emb.v_rows))
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
            assert edge_count(g, _vertex_ids(g, emb.u_rows), _vertex_ids(g, emb.v_rows)) == stat


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


def _oracle_rows(ref, blocks, signs, side):
    """The canonical class of each block tuple, by the oracle, in the module
    docstring's coordinates: U = (-2 s_j u_j, sum s_j u_j^2 + x, 1) and
    V = (v_j, 1, sum s_j v_j^2 - t)."""
    *heads, last = np.array(list(itertools.product(*(b.tolist() for b in blocks)))).T
    total, one = 0, np.ones_like(last)
    for h, s in zip(heads, signs):
        total = (ref.add if s > 0 else ref.sub)(total, ref.mul(h, h))
    if side == "u":
        coords = [ref.neg(ref.add(h, h)) if s > 0 else ref.add(h, h) for h, s in zip(heads, signs)]
        coords += [ref.add(total, last), one]
    else:
        coords = [*heads, one, ref.sub(total, last)]
    return set(map(tuple, ref.canonicalize(np.stack(coords, axis=-1)).tolist()))


@pytest.mark.parametrize(
    "desc,members,n",
    [
        ("z:3:2", [1, 2, 4], 2),
        ("z:5:2", [1, 2, 3, 7], 2),
        ("f:9:1", [1, 2, 4, 5], 2),
        ("f:3:2", [1, 2, 4, 5], 2),
        ("f:9:2", [1, 2, 10, 13], 2),
        ("z:3:2", [1, 2, 4], 3),
        ("f:3:2", [1, 2, 4], 3),
    ],
)
def test_embeddings_match_per_tuple_canonicalize(desc, members, n):
    ring = parse_ring(desc)
    f = fold_sets(ElementSet.from_indices(ring, members), n)
    m = n - 1
    a, plus, sq, target = (s.indices() for s in (f.a, f.plus, f.sq, f.target))
    cases = (
        (embed_solution_sets, [plus] * m + [sq], [a] * m + [target], [1] * m),
        (
            embed_energy_sets,
            [plus] * m + [a] * m + [sq],
            [a] * m + [plus] * m + [sq],
            [1] * m + [-1] * m,
        ),
    )
    for embed, u_blocks, v_blocks, signs in cases:
        emb = embed(f)
        assert emb.audit == "ok"
        for rows, blocks, side in ((emb.u_rows, u_blocks, "u"), (emb.v_rows, v_blocks, "v")):
            got = set(map(tuple, rows.tolist()))
            assert len(got) == len(rows)
            assert got == _oracle_rows(Oracle(desc), blocks, signs, side)


@pytest.mark.parametrize("side", ["u", "v"])
def test_embed_collision_fails_the_audit(z9, side):
    # a repeated entry in one block puts two tuples in one class
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    a, plus, sq, target = (s.indices() for s in (f.a, f.plus, f.sq, f.target))
    u_blocks, v_blocks = [plus, sq], [a, target]
    if side == "u":
        u_blocks[0] = np.concatenate([plus, plus[:1]])
    else:
        v_blocks[1] = np.concatenate([target, target[:1]])
    with pytest.raises(AssertionError, match="injectivity"):
        graph_module._embed_blocks(f, u_blocks, v_blocks, [1])


def test_embed_energy_sets_memory(f9t2):
    # the first 30 units: 34 020 rows per side, built and audited without
    # listing the tuple grid
    units = ElementSet.units(f9t2).indices()[:30]
    f = fold_sets(ElementSet.from_indices(f9t2, units), 2)
    embed_energy_sets(f)  # inverse and Cayley tables are built outside the trace
    tracemalloc.start()
    try:
        emb = embed_energy_sets(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emb.audit == "ok" and emb.u_count == emb.v_count == 34020
    assert peak < 5 * 10**6
