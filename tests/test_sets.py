import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import (
    BadArity,
    BadIndex,
    BadSize,
    ElementSet,
    NotUnits,
    RingMismatch,
    TooLarge,
    count_form_solutions,
    fold_sets,
    form_energy,
    form_tuple_count,
    form_value_histogram,
    iterated_sumset,
    make_ring,
    productset,
    restrict_to_units,
    sample_unit_subset,
    square_set,
    sumset,
    triple_product_sizes,
)
from valring import sets as sets_module
from valring.sets import _form_values

from oracle import Oracle


def _ids(s):
    return sorted(int(i) for i in s.indices())


# ---------------------------------------------------------------------------
# mask container semantics


def test_constructors_and_card(z9):
    a = ElementSet.from_indices(z9, [1, 2, 2])
    assert a.card == 2
    assert _ids(a) == [1, 2]
    assert ElementSet.empty(z9).card == 0
    assert ElementSet.full(z9).card == 9
    assert _ids(ElementSet.units(z9)) == [1, 2, 4, 5, 7, 8]
    assert _ids(ElementSet.maximal_ideal(z9)) == [0, 3, 6]


def test_mask_roundtrip(z9):
    a = ElementSet.from_indices(z9, [0, 4, 8])
    m = a.mask()
    assert m.dtype == np.bool_ and m.shape == (9,)
    assert ElementSet.from_mask(z9, m) == a


def test_membership_iter_len(z9):
    a = ElementSet.from_indices(z9, [3, 5])
    assert 3 in a and 5 in a and 4 not in a
    assert 9 not in a and -1 not in a  # outside [0, size): no member
    assert list(a) == [3, 5]
    assert len(a) == 2


def test_set_algebra(z9):
    a = ElementSet.from_indices(z9, [1, 2, 3])
    b = ElementSet.from_indices(z9, [3, 4])
    assert _ids(a & b) == [3]
    assert _ids(a | b) == [1, 2, 3, 4]
    assert (a & b).issubset(a)
    assert not a.issubset(b)


def test_hash_eq(z9, z25):
    a = ElementSet.from_indices(z9, [1, 2])
    b = ElementSet.from_indices(z9, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != ElementSet.from_indices(z25, [1, 2])


def test_bad_index_and_ring_mismatch(z9, z25):
    with pytest.raises(BadIndex):
        ElementSet.from_indices(z9, [9])
    with pytest.raises(BadIndex):
        ElementSet.from_indices(z9, [-1])
    # the whole array is checked at once: one bad entry among good ones
    with pytest.raises(BadIndex):
        ElementSet.from_indices(z9, np.array([0, 4, 8, 9, 1], dtype=np.int64))
    assert ElementSet.from_indices(z9, []) == ElementSet.empty(z9)
    with pytest.raises(RingMismatch):
        sumset(ElementSet.units(z9), ElementSet.units(z25))


def test_all_units(z9):
    assert ElementSet.from_indices(z9, [1, 8]).all_units()
    assert not ElementSet.from_indices(z9, [1, 3]).all_units()
    assert not ElementSet.empty(z9).all_units() or ElementSet.empty(z9).card == 0


@pytest.mark.parametrize("shape", [(8,), (10,), (3, 3), ()])
def test_mask_of_wrong_shape_raises(z9, shape):
    with pytest.raises(BadIndex):
        ElementSet(z9, np.zeros(shape, dtype=bool))
    with pytest.raises(BadIndex):
        ElementSet.from_mask(z9, np.zeros(shape, dtype=bool))


def test_from_mask_does_not_alias(z9):
    m = np.zeros(9, dtype=bool)
    m[2] = True
    a = ElementSet.from_mask(z9, m)
    m[5] = True
    assert list(a) == [2] and 5 not in a
    assert m.flags.writeable


def test_views_are_read_only(z9):
    a = ElementSet.from_indices(z9, [1, 4])
    for view in (a.mask(), a.indices()):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0


def test_three_constructions_agree(f9t2):
    a = ElementSet.from_indices(f9t2, [1, 5, 10, 33])
    b = ElementSet.from_indices(f9t2, [2, 9, 70])
    ids = sorted({f9t2.add(x, y) for x in a for y in b})
    m = np.zeros(f9t2.size, dtype=bool)
    m[ids] = True
    built = [ElementSet.from_indices(f9t2, ids), ElementSet.from_mask(f9t2, m), sumset(a, b)]
    for other in built[1:]:
        assert other == built[0] and hash(other) == hash(built[0])
    assert list(built[2]) == ids


@st.composite
def _ring_and_index_lists(draw):
    ring = make_ring(*draw(st.sampled_from([(5, 1, 2, "zpr"), (3, 2, 2, "fqtr")])))
    index = st.integers(0, ring.size - 1)
    return ring, draw(st.lists(index, max_size=12)), draw(st.lists(index, max_size=12))


@given(_ring_and_index_lists())
def test_set_ops_match_frozenset(case):
    ring, ia, ib = case
    a, b = ElementSet.from_indices(ring, ia), ElementSet.from_indices(ring, ib)
    fa, fb = frozenset(ia), frozenset(ib)
    assert list(a & b) == sorted(fa & fb)
    assert list(a | b) == sorted(fa | fb)
    assert a.issubset(b) == (fa <= fb) and b.issubset(a) == (fb <= fa)
    assert (a & b).issubset(a | b)
    assert a.card == len(a) == len(fa)
    assert list(a) == sorted(fa)
    for x in range(-2, ring.size + 2):
        assert (x in a) == (x in fa)


# ---------------------------------------------------------------------------
# pointwise set operations, frozen small cases in Z/9


def test_sumset_frozen(z9):
    a = ElementSet.from_indices(z9, [1, 2])
    assert _ids(sumset(a, a)) == [2, 3, 4]
    units = ElementSet.units(z9)
    assert sumset(units, units) == ElementSet.full(z9)


def test_productset_frozen(z9):
    a = ElementSet.from_indices(z9, [1, 2])
    assert _ids(productset(a, a)) == [1, 2, 4]
    assert _ids(square_set(a)) == [1, 4]
    assert _ids(square_set(ElementSet.units(z9))) == [1, 4, 7]


@pytest.mark.parametrize("rows_per_chunk", [1, 3, 100])
def test_sumset_and_productset_chunks_match_pairs(f9t2, monkeypatch, rows_per_chunk):
    a = ElementSet.from_indices(f9t2, [1, 2, 5, 10, 13, 30, 44])
    b = ElementSet.from_indices(f9t2, [0, 3, 7, 11, 12, 80])
    monkeypatch.setattr(sets_module, "CHUNK_CELLS", rows_per_chunk * b.card)
    ref, x, y = Oracle("f:9:2"), a.indices()[:, None], b.indices()
    assert _ids(sumset(a, b)) == np.unique(ref.add(x, y)).tolist()
    assert _ids(productset(a, b)) == np.unique(ref.mul(x, y)).tolist()


def test_iterated_sumset_frozen(z9):
    sq = square_set(ElementSet.from_indices(z9, [1, 2]))  # {1, 4}
    assert _ids(iterated_sumset(sq, 1)) == [1, 4]
    assert _ids(iterated_sumset(sq, 2)) == [2, 5, 8]
    assert _ids(iterated_sumset(sq, 3)) == [0, 3, 6]
    with pytest.raises(BadArity):
        iterated_sumset(sq, 0)


def test_restrict_to_units(z9):
    a = ElementSet.from_indices(z9, [0, 1, 3, 5])
    assert _ids(restrict_to_units(a)) == [1, 5]


@st.composite
def _subset(draw, size, lo=0):
    idx = draw(st.lists(st.integers(lo, size - 1), min_size=1, max_size=8))
    return sorted(set(idx))


@given(_subset(25), _subset(25))
def test_sumset_commutes_and_dominates(ia, ib):
    ring = make_ring(5, 1, 2)
    a = ElementSet.from_indices(ring, ia)
    b = ElementSet.from_indices(ring, ib)
    s = sumset(a, b)
    assert s == sumset(b, a)
    # adding a fixed element is injective, so |A+B| >= max(|A|, |B|)
    assert s.card >= max(a.card, b.card)
    zero = ElementSet.from_indices(ring, [0])
    assert sumset(a, zero) == a


@given(_subset(81))
def test_identity_element_fqtr(ia):
    ring = make_ring(3, 2, 2, "fqtr")
    a = ElementSet.from_indices(ring, ia)
    one = ElementSet.from_indices(ring, [1])
    assert productset(a, one) == a


@given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 7, 8, 9, 11, 12]), min_size=1, max_size=6))
def test_square_halving_z25(units):
    # squaring on units is 2-to-1, so |A^2| is within [|A|/2, |A|]
    ring = make_ring(5, 1, 2)
    a = ElementSet.from_indices(ring, units)
    sq = square_set(a)
    assert 2 * sq.card >= a.card
    assert sq.card <= a.card


# ---------------------------------------------------------------------------
# counting statistics for x + sum of squared differences


def test_count_frozen_z9(z9):
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    assert count_form_solutions(f) == 8
    assert form_energy(f) == 32
    hist = form_value_histogram(f)
    assert {i: int(c) for i, c in enumerate(hist) if c} == {1: 2, 2: 2, 4: 2, 5: 4, 8: 2}
    assert int(hist.sum()) == form_tuple_count(f) == 12


def test_count_matches_bruteforce(z9, z25, f9t2):
    cases = [
        (z9, [1, 2], 2),
        (z9, [1, 2, 4], 2),
        (z9, [1, 2], 3),
        (make_ring(5, 1, 1), [1, 2, 3], 2),
        (make_ring(3, 2, 1, "fqtr"), [1, 3, 5], 2),
        (z25, [1, 2, 3, 7], 2),
        (z25, [1, 6], 3),
        (f9t2, [1, 5, 10, 33], 2),
        (f9t2, [2, 70], 3),
    ]
    for ring, ids, n in cases:
        ref = Oracle(ring.descriptor)
        f = fold_sets(ElementSet.from_indices(ring, ids), n)
        hist = ref.fold_histogram(ids, n)
        np.testing.assert_array_equal(form_value_histogram(f), hist)
        # the solutions are the tuples whose value lies in n*A^2
        squares = target = np.unique(ref.mul(ids, ids))
        for _ in range(n - 1):
            target = np.unique(ref.add(target[:, None], squares))
        assert count_form_solutions(f) == hist[target].sum()


@st.composite
def _fold_case(draw):
    spec = draw(st.sampled_from([(3, 1, 2), (5, 1, 2), (3, 2, 1, "fqtr"), (3, 1, 2, "fqtr")]))
    ring = make_ring(*spec)
    units = list(ElementSet.units(ring))
    ids = draw(st.lists(st.sampled_from(units), min_size=1, max_size=4))
    return ring, ids, draw(st.sampled_from([2, 3, 4]))


@given(_fold_case())
def test_energy_is_sum_of_squared_multiplicities(case):
    ring, ids, n = case
    a = ElementSet.from_indices(ring, ids)
    f = fold_sets(a, n)
    hist = form_value_histogram(f)
    np.testing.assert_array_equal(hist, Oracle(ring.descriptor).fold_histogram(ids, n))
    assert form_energy(f) == sum(int(c) ** 2 for c in hist)
    assert int(hist.sum()) == form_tuple_count(f)
    # mass inside n*A^2 is exactly the solution count
    target = iterated_sumset(square_set(a), n)
    inside = sum(int(hist[i]) for i in target)
    assert inside == count_form_solutions(f)


def test_histogram_counts_past_the_listing(f9t2):
    # 1 224 440 064 tuples: the convolution counts what no listing could hold
    f = fold_sets(ElementSet.units(f9t2), 3)
    hist = form_value_histogram(f)
    assert int(hist.sum()) == form_tuple_count(f) == 1_224_440_064
    with pytest.raises(TooLarge):
        _form_values(f)
    # n = 4: E = 630621991703380994555904 > 2^63, summed in Python ints
    f4 = fold_sets(ElementSet.units(f9t2), 4)
    energy, n_sol = form_energy(f4), count_form_solutions(f4)
    assert energy == 630621991703380994555904 > 2**63
    assert n_sol * n_sol <= f4.target.card * energy  # Cauchy-Schwarz
    # past 2^53 tuples the float64 counts could round: refused
    z7 = make_ring(7, 1, 4)
    with pytest.raises(TooLarge, match="2\\^53"):
        form_value_histogram(fold_sets(ElementSet.units(z7), 4))


def test_form_arg_validation(z9, monkeypatch):
    a = ElementSet.from_indices(z9, [1, 2])
    with pytest.raises(BadArity):
        fold_sets(a, 1)
    with pytest.raises(BadArity):
        fold_sets(a, sets_module.MAX_N + 1)
    monkeypatch.setattr(sets_module, "MAX_N", 2)
    with pytest.raises(BadArity):
        fold_sets(a, 3)
    # the public readers refuse non-units and passes over the cell cap
    readers = (count_form_solutions, form_energy, form_value_histogram)
    for reader in readers:
        with pytest.raises(NotUnits):
            reader(fold_sets(ElementSet.from_indices(z9, [0, 1]), 2))
    monkeypatch.setattr(sets_module, "MAX_FOLD_CELLS", 4)  # the first pass has |A+A|*|A| = 6
    for reader in readers:
        with pytest.raises(TooLarge):
            reader(fold_sets(a, 2))


def test_triple_product_sizes_frozen(z9):
    u = ElementSet.units(z9)
    assert triple_product_sizes(u, u, u) == (6, 6, 9)
    a = ElementSet.from_indices(z9, [1, 2])
    assert triple_product_sizes(a, a, a) == (3, 3, 3)
    with pytest.raises(NotUnits):
        triple_product_sizes(a, ElementSet.from_indices(z9, [0]), a)


# ---------------------------------------------------------------------------
# seeded sampling


def test_sample_unit_subset(z25):
    a = sample_unit_subset(z25, 7, 123)
    b = sample_unit_subset(z25, 7, 123)
    c = sample_unit_subset(z25, 7, 124)
    assert a == b
    assert a != c
    assert a.card == 7 and a.all_units()
    with pytest.raises(BadSize):
        sample_unit_subset(z25, 0, 1)
    with pytest.raises(BadSize):
        sample_unit_subset(z25, 21, 1)
