import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import (
    BadArity,
    BadIndex,
    BadSize,
    DEFAULT_CAPS,
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
from valring.sets import _form_values


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
    assert z9.element(5) in a
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


def test_three_constructions_agree(f9t2, z9):
    a = ElementSet.from_indices(f9t2, [1, 5, 10, 33])
    b = ElementSet.from_indices(f9t2, [2, 9, 70])
    ids = sorted({f9t2.add(x, y) for x in a for y in b})
    m = np.zeros(f9t2.size, dtype=bool)
    m[ids] = True
    built = [ElementSet.from_indices(f9t2, ids), ElementSet.from_mask(f9t2, m), sumset(a, b)]
    for other in built[1:]:
        assert other == built[0] and hash(other) == hash(built[0])
    assert list(built[2]) == ids
    assert z9.element(ids[0]) not in built[0]


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


def _brute_count(ring, a_ids, n):
    """Scalar reference: x + sum (b_i - c_i)^2 landing in n*A^2,
    with x in A^2, b_i in A+A, c_i in A."""
    sq = sorted({ring.mul(i, i) for i in a_ids})
    ss = sorted({ring.add(i, j) for i in a_ids for j in a_ids})
    target = set()
    for combo in itertools.product(sq, repeat=n):
        acc = 0
        for v in combo:
            acc = ring.add(acc, v)
        target.add(acc)
    count = 0
    for x in sq:
        for bs in itertools.product(ss, repeat=n - 1):
            for cs in itertools.product(a_ids, repeat=n - 1):
                acc = x
                for b, c in zip(bs, cs):
                    d = ring.sub(b, c)
                    acc = ring.add(acc, ring.mul(d, d))
                if acc in target:
                    count += 1
    return count


def test_count_frozen_z9(z9):
    f = fold_sets(ElementSet.from_indices(z9, [1, 2]), 2)
    assert count_form_solutions(f) == 8
    assert form_energy(f) == 32
    hist = form_value_histogram(f)
    assert {i: int(c) for i, c in enumerate(hist) if c} == {1: 2, 2: 2, 4: 2, 5: 4, 8: 2}
    assert int(hist.sum()) == form_tuple_count(f) == 12


def test_count_matches_bruteforce():
    cases = [
        (make_ring(3, 1, 2), [1, 2], 2),
        (make_ring(3, 1, 2), [1, 2, 4], 2),
        (make_ring(3, 1, 2), [1, 2], 3),
        (make_ring(5, 1, 1), [1, 2, 3], 2),
        (make_ring(3, 2, 1, "fqtr"), [1, 3, 5], 2),
    ]
    for ring, ids, n in cases:
        f = fold_sets(ElementSet.from_indices(ring, ids), n)
        assert count_form_solutions(f) == _brute_count(ring, ids, n)


@given(st.lists(st.sampled_from([1, 2, 4, 5, 7, 8]), min_size=1, max_size=6), st.sampled_from([2, 3]))
def test_energy_is_sum_of_squared_multiplicities(ids, n):
    ring = make_ring(3, 1, 2)
    a = ElementSet.from_indices(ring, ids)
    f = fold_sets(a, n)
    hist = form_value_histogram(f)
    assert form_energy(f) == sum(int(c) ** 2 for c in hist)
    assert int(hist.sum()) == form_tuple_count(f)
    # mass inside n*A^2 is exactly the solution count
    target = iterated_sumset(square_set(a), n)
    inside = sum(int(hist[i]) for i in target)
    assert inside == count_form_solutions(f)


def test_form_arg_validation(z9):
    a = ElementSet.from_indices(z9, [1, 2])
    with pytest.raises(BadArity):
        fold_sets(a, 1)
    with pytest.raises(BadArity):
        fold_sets(a, DEFAULT_CAPS.max_n + 1)
    with pytest.raises(BadArity):
        fold_sets(a, 3, DEFAULT_CAPS.with_(max_n=2))
    with pytest.raises(NotUnits):
        _form_values(fold_sets(ElementSet.from_indices(z9, [0, 1]), 2), DEFAULT_CAPS)
    with pytest.raises(TooLarge):
        _form_values(fold_sets(a, 2), DEFAULT_CAPS.with_(max_tuple_count=4))
    # the public readers go through the same checks
    with pytest.raises(NotUnits):
        count_form_solutions(fold_sets(ElementSet.from_indices(z9, [0, 1]), 2))
    with pytest.raises(TooLarge):
        count_form_solutions(fold_sets(a, 2), DEFAULT_CAPS.with_(max_tuple_count=4))


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
