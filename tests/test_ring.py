import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring import ring as ring_module
from valring import (
    BadFamilyCombo,
    BadIndex,
    ElementSet,
    EvenPrime,
    NotAUnit,
    NonPrime,
    Ring,
    RingFamily,
    TooLarge,
    make_ring,
)
from valring.cli import parse_ring
from valring.ring import is_prime, smallest_irreducible

import oracle
from oracle import Oracle


# ---------------------------------------------------------------------------
# construction and validation


def test_make_ring_rejects_bad_input():
    with pytest.raises(NonPrime):
        make_ring(6, 1, 2)
    with pytest.raises(EvenPrime):
        make_ring(2, 1, 3)
    with pytest.raises(BadFamilyCombo):
        make_ring(3, 2, 2, "zpr")
    with pytest.raises(ValueError):
        make_ring(3, 0, 2)
    with pytest.raises(ValueError):
        make_ring(3, 1, 0)
    with pytest.raises(TooLarge):
        make_ring(3, 1, 11)  # 3**11 elements, over MAX_RING_SIZE = 2**16


def test_make_ring_is_cached():
    a = make_ring(5, 1, 2)
    b = make_ring(5, 1, 2)
    assert a is b
    c = make_ring(5, 1, 2, "zpr")
    assert a is c


@pytest.mark.parametrize(
    "p,s,r,family,size,units",
    [
        (3, 1, 1, "zpr", 3, 2),
        (3, 1, 2, "zpr", 9, 6),
        (3, 1, 3, "zpr", 27, 18),
        (5, 1, 2, "zpr", 25, 20),
        (7, 1, 2, "zpr", 49, 42),
        (3, 2, 1, "fqtr", 9, 8),
        (3, 2, 2, "fqtr", 81, 72),
        (5, 2, 1, "fqtr", 25, 24),
    ],
)
def test_cardinalities(p, s, r, family, size, units):
    ring = make_ring(p, s, r, family)
    assert ring.size == size
    assert ring.unit_count == units
    assert ring.size == ring.q**ring.r
    # ideal chain: |(z^k)| = q^(r-k)
    for k in range(r + 1):
        assert ring.ideal_size(k) == ring.q ** (r - k)


def test_descriptor_and_name(z9, f9t2):
    assert z9.descriptor == "z:3:2"
    assert f9t2.descriptor == "f:9:2"
    assert "9" in z9.math_name


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# ---------------------------------------------------------------------------
# irreducible modulus selection (frozen against hand-checked values)


@pytest.mark.parametrize(
    "p,s,coeffs",
    [
        (3, 2, (1, 0, 1)),  # x^2 + 1, since -1 is not a square mod 3
        (5, 2, (2, 0, 1)),  # x^2 + 2
        (7, 2, (1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),  # x^3 + 2x + 1 has no root in F_3
    ],
)
def test_smallest_irreducible(p, s, coeffs):
    assert smallest_irreducible(p, s) == coeffs


def test_smallest_irreducible_matches_the_oracle():
    # every field F_(p**s) with s >= 2 under the ring size cap
    pairs = [(p, s) for p in range(3, 257) if is_prime(p) for s in range(2, 17) if p**s <= 2**16]
    assert len(pairs) == 78
    for p, s in pairs:
        assert smallest_irreducible(p, s) == oracle.smallest_irreducible(p, s), (p, s)


def test_irreducible_has_no_roots():
    # degree 2 and 3: irreducible iff rootless
    for p, s in [(3, 2), (5, 2), (3, 3)]:
        cs = smallest_irreducible(p, s)
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(cs)) % p
            assert val != 0


# ---------------------------------------------------------------------------
# arithmetic: Z/p^r is plain modular arithmetic


@given(st.integers(0, 48), st.integers(0, 48))
def test_zpr_matches_integers(a, b):
    ring = make_ring(7, 1, 2)
    assert ring.add(a, b) == (a + b) % 49
    assert ring.sub(a, b) == (a - b) % 49
    assert ring.mul(a, b) == (a * b) % 49
    assert ring.neg(a) == (-a) % 49


def test_zpr_inverse_table_matches_pow(z25):
    table = z25.inverse_table()
    for x in range(25):
        if x % 5 != 0:
            assert int(table[x]) == pow(x, -1, 25)
        else:
            assert int(table[x]) == 0


def test_z9_inverse_table_frozen(z9):
    assert list(z9.inverse_table()) == [0, 1, 5, 0, 7, 2, 0, 4, 8]


# ---------------------------------------------------------------------------
# arithmetic: F_q[t]/(t^r) ring axioms and characteristic


@given(st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80)))
def test_fqtr_ring_axioms(triple):
    ring = make_ring(3, 2, 2, "fqtr")
    a, b, c = triple
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    left = ring.mul(a, ring.add(b, c))
    right = ring.add(ring.mul(a, b), ring.mul(a, c))
    assert left == right
    assert ring.add(a, ring.neg(a)) == 0
    assert ring.mul(a, 1) == a


# ---------------------------------------------------------------------------
# arithmetic: the table and digit paths against the oracle


# Every FQTR ring that the tests or the benchmark use, whether or not it
# is under the table cap, two with an odd number of base-p digits, and
# fields of degree s >= 3: up to the cap (f:125:1) and over it (f:9:3).
# Z/p^r rings below the cap, at it (z:5:3) and over it (z:3:5).
TABLE_RINGS = {
    "f:3:1": (3, 1, 1, "fqtr"),
    "f:9:1": (3, 2, 1, "fqtr"),
    "f:3:2": (3, 1, 2, "fqtr"),
    "f:9:2": (3, 2, 2, "fqtr"),
    "f:25:1": (5, 2, 1, "fqtr"),
    "f:13:2": (13, 1, 2, "fqtr"),
    "f:5:3": (5, 1, 3, "fqtr"),
    "f:3:5": (3, 1, 5, "fqtr"),
    "f:27:1": (3, 3, 1, "fqtr"),
    "f:81:1": (3, 4, 1, "fqtr"),
    "f:125:1": (5, 3, 1, "fqtr"),
    "f:9:3": (3, 2, 3, "fqtr"),
    "z:3:2": (3, 1, 2, "zpr"),
    "z:5:2": (5, 1, 2, "zpr"),
    "z:11:2": (11, 1, 2, "zpr"),
    "z:5:3": (5, 1, 3, "zpr"),
    "z:3:5": (3, 1, 5, "zpr"),
}


def _table_and_digit_rings(monkeypatch, p, s, r, family):
    """Two fresh copies of one ring: the first with its Cayley tables
    built (the cap raised to its size if need be), the second held on the
    per-call digit path by a zero table cap."""
    monkeypatch.setattr(ring_module, "_TABLE_MAX_SIZE", (p**s) ** r)
    tabled = Ring(p, s, r, RingFamily(family))
    assert tabled._cayley() is not None
    monkeypatch.setattr(ring_module, "_TABLE_MAX_SIZE", 0)
    digits = Ring(p, s, r, RingFamily(family))
    assert digits._cayley() is None
    return tabled, digits


# every multi-digit ring that tabulates: f:<p**s>:<r> with s*r > 1 and
# p**(s*r) <= _TABLE_MAX_SIZE (15 rings at 125, from f:3:2 to f:121:1)
_TABLE_CAP = ring_module._TABLE_MAX_SIZE
_TABULATED_MULTI_DIGIT = {
    f"f:{p**s}:{r}": (p, s, r, "fqtr")
    for p in range(3, math.isqrt(_TABLE_CAP) + 1, 2)
    if is_prime(p)
    for s in range(1, _TABLE_CAP.bit_length())
    for r in range(1, _TABLE_CAP.bit_length())
    if s * r > 1 and p ** (s * r) <= _TABLE_CAP
}


@pytest.mark.parametrize(
    "params", _TABULATED_MULTI_DIGIT.values(), ids=_TABULATED_MULTI_DIGIT.keys()
)
def test_dot_many_gather_matches_the_contraction(monkeypatch, params):
    # the flat-table gather against the contraction on a copy held at cap 0
    tabled, digits = _table_and_digit_rings(monkeypatch, *params)
    assert tabled.dot_gathers and not digits.dot_gathers
    rng = np.random.default_rng(tabled.size)
    for d in range(1, 7):
        left, right = (rng.integers(0, tabled.size, size=(k, d)) for k in (6, 7))
        for side in (left, right):
            side[0] = tabled.size - 1  # one row of top entries, and about a quarter elsewhere
            side[rng.random(side.shape) < 0.25] = tabled.size - 1
        np.testing.assert_array_equal(tabled.dot_many(left, right), digits.dot_many(left, right))


def test_dot_gathers_only_on_tabulated_multi_digit_rings(monkeypatch):
    assert len(_TABULATED_MULTI_DIGIT) == 15
    assert make_ring(3, 2, 2, "fqtr").dot_gathers  # f:9:2
    assert not make_ring(3, 1, 4, "zpr").dot_gathers  # z:3:4: 81 elements, one digit
    assert not make_ring(13, 1, 2, "fqtr").dot_gathers  # f:13:2: above the cap
    digits = _table_and_digit_rings(monkeypatch, 3, 2, 2, "fqtr")[1]  # f:9:2 at cap 0
    assert not digits.dot_gathers


@pytest.mark.parametrize("params", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_cayley_tables_match_digit_path(monkeypatch, params):
    # both paths against the oracle, on every pair of indices
    tabled, digits = _table_and_digit_rings(monkeypatch, *params)
    ref = Oracle(tabled.descriptor)
    idx = np.arange(tabled.size, dtype=np.int64)
    a, b = idx[:, None], idx[None, :]
    add, sub, mul, neg = ref.add(a, b), ref.sub(a, b), ref.mul(a, b), ref.neg(idx)
    for ring in (tabled, digits):
        np.testing.assert_array_equal(ring.add_many(a, b), add)
        np.testing.assert_array_equal(ring.sub_many(a, b), sub)
        np.testing.assert_array_equal(ring.mul_many(a, b), mul)
        np.testing.assert_array_equal(ring.neg_many(idx), neg)
    assert digits._cayley_tables is None


@pytest.mark.parametrize(
    "a,b",
    [
        (5, 7),
        (np.int64(5), np.int64(7)),
        (np.arange(4).reshape(4, 1), np.arange(0, 81, 9).reshape(1, 9)),
        (np.arange(10, 20), np.arange(60, 70)),
        (np.arange(6), 40),
        (np.zeros((0, 3), dtype=np.int64), np.arange(3)),
    ],
    ids=["int", "int64", "column-by-row", "1-d", "1-d-by-scalar", "empty"],
)
def test_both_paths_keep_dtype_and_broadcast_shape(monkeypatch, a, b):
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    for params in (TABLE_RINGS["f:9:2"], (3, 1, 4, "zpr")):  # both 81 elements
        tabled, digits = _table_and_digit_rings(monkeypatch, *params)
        for ring in (tabled, digits):
            for out in (ring.add_many(a, b), ring.sub_many(a, b), ring.mul_many(a, b)):
                assert out.dtype == np.int64
                assert out.shape == shape
            neg = ring.neg_many(a)
            assert neg.dtype == np.int64
            assert neg.shape == np.shape(a)
        for op in ("add_many", "sub_many", "mul_many"):
            np.testing.assert_array_equal(getattr(tabled, op)(a, b), getattr(digits, op)(a, b))
        assert tabled.add(5, 7) == digits.add(5, 7)
        assert tabled.mul(5, 7) == digits.mul(5, 7)


def test_ring_at_table_cap_builds_tables():
    for family in ("fqtr", "zpr"):
        ring = make_ring(5, 1, 3, family)  # F_5[t]/(t^3) or Z/125, 125 elements
        assert ring.size <= ring_module._TABLE_MAX_SIZE
        assert ring.add(1, 2) == 3
        assert ring._cayley_tables is not None


def test_ring_above_table_cap_stays_on_digit_path():
    for params in ((7, 2, 2, "fqtr"), (7, 1, 4, "zpr")):
        ring = make_ring(*params)  # F_49[t]/(t^2) or Z/2401, 2401 elements
        assert ring.size > ring_module._TABLE_MAX_SIZE
        rng = np.random.default_rng(49)
        a, b, c = rng.integers(0, ring.size, size=(3, 500))
        assert (ring.add_many(a, b) == ring.add_many(b, a)).all()
        assert (ring.mul_many(a, b) == ring.mul_many(b, a)).all()
        assert (ring.add_many(ring.add_many(a, b), c) == ring.add_many(a, ring.add_many(b, c))).all()
        assert (ring.mul_many(ring.mul_many(a, b), c) == ring.mul_many(a, ring.mul_many(b, c))).all()
        left = ring.mul_many(a, ring.add_many(b, c))
        right = ring.add_many(ring.mul_many(a, b), ring.mul_many(a, c))
        assert (left == right).all()
        assert (ring.add_many(a, ring.neg_many(a)) == 0).all()
        assert (ring.add_many(ring.sub_many(a, b), b) == a).all()
        assert (ring.mul_many(a, 1) == a).all()
        assert ring._cayley_tables is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 127, 65521])
def test_prime_field_is_one_ring_in_both_families(p):
    # z:p:1 and f:p:1 are the same field; below the cap every pair is
    # checked, above it (p = 127, 65521) 10**4 seeded pairs
    zp, fp = make_ring(p, 1, 1, "zpr"), make_ring(p, 1, 1, "fqtr")
    if p <= ring_module._TABLE_MAX_SIZE:
        a, b = np.arange(p)[:, None], np.arange(p)[None, :]
    else:
        a, b = np.random.default_rng(p).integers(0, p, size=(2, 10**4))
    for op in ("add_many", "sub_many", "mul_many"):
        np.testing.assert_array_equal(getattr(zp, op)(a, b), getattr(fp, op)(a, b))
    np.testing.assert_array_equal(zp.neg_many(a), fp.neg_many(a))
    np.testing.assert_array_equal(zp.inverse_table(), fp.inverse_table())
    left, right = (np.random.default_rng(p + k).integers(0, p, size=(k, 3)) for k in (20, 30))
    np.testing.assert_array_equal(zp.dot_many(left, right), fp.dot_many(left, right))


def test_digit_path_memory():
    # 10 base-3 digits: addition walks them one at a time and the product
    # contracts blocks of cells, so no (cells, digits) array is built
    ring = make_ring(3, 5, 2, "fqtr")  # F_243[t]/(t^2)
    a, b = np.random.default_rng(243).integers(0, ring.size, size=(2, 10**6))
    some = np.arange(0, 10**6, 9973)  # one cell in each of about 100 product blocks
    for op, scalar in (("add_many", ring.add), ("mul_many", ring.mul)):
        tracemalloc.start()
        try:
            out = getattr(ring, op)(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 10**6, op
        assert out[some].tolist() == [scalar(x, y) for x, y in zip(a[some].tolist(), b[some].tolist())]


def test_characteristic(z9, f9t2):
    # Z/9 has characteristic 9, F_9[t]/(t^2) has characteristic 3
    assert z9.add(z9.add(1, 1), 1) != 0
    assert f9t2.add(f9t2.add(1, 1), 1) == 0


def test_field_multiplication_oracle():
    # F_9 = F_3[x]/(x^2+1); elements a0 + a1*x with index a0 + 3*a1
    ring = make_ring(3, 2, 1, "fqtr")
    for a in range(9):
        for b in range(9):
            a0, a1 = a % 3, a // 3
            b0, b1 = b % 3, b // 3
            # (a0 + a1 x)(b0 + b1 x) mod (x^2 + 1), so x^2 = -1
            c0 = (a0 * b0 - a1 * b1) % 3
            c1 = (a0 * b1 + a1 * b0) % 3
            assert ring.mul(a, b) == c0 + 3 * c1


# every F_q with s > 1 and q <= 3**7, then the extremes of the structure
# tensor's contraction: the largest p with s = 2 (B's largest digit sums),
# the largest p and the largest s
SMALL_FIELDS = [(p, s) for s in range(2, 8) for p in range(3, 47) if is_prime(p) and p**s <= 3**7]
EXTREME_FIELDS = [(251, 2), (65521, 1), (3, 10)]


@pytest.mark.parametrize(
    "p,s", SMALL_FIELDS + EXTREME_FIELDS, ids=[f"f:{p**s}:1" for p, s in SMALL_FIELDS + EXTREME_FIELDS]
)
def test_field_mul_and_inverse_match_schoolbook(p, s):
    ring = make_ring(p, s, 1, "fqtr")
    ref, q = Oracle(ring.descriptor), ring.q
    if q <= 81:
        a, b = (v.ravel() for v in np.indices((q, q)))
    else:
        a, b = np.random.default_rng(q).integers(0, q, size=(2, 4000))
        a[0] = b[0] = q - 1  # every base-p digit p - 1
    np.testing.assert_array_equal(ring.mul_many(a, b), ref.mul(a, b))
    units = ElementSet.units(ring).indices()
    assert (ref.mul(units, ring.inverse_table()[units]) == 1).all()


# above the table cap, where the structure-tensor contraction computes every
# product: one-digit (z:3:5) and multi-digit, with s = 1, 2 and n = 6 (f:9:3)
@pytest.mark.parametrize("desc", ["z:3:5", "f:13:2", "f:25:2", "f:9:3"])
def test_products_and_dot_blocks_match_schoolbook(desc):
    ring, ref = parse_ring(desc), Oracle(desc)
    assert ring._cayley() is None
    rng = np.random.default_rng(ring.size)
    a, b = rng.integers(0, ring.size, size=(2, 500))
    a[:50], b[::7] = ring.size - 1, ring.size - 1
    np.testing.assert_array_equal(ring.mul_many(a, b), ref.mul(a, b))
    for d in (0, 1, 3, 5):  # d = 0: every dot product is the empty sum 0
        left, right = (rng.integers(0, ring.size, size=(k, d)) for k in (6, 7))
        left[0], right[rng.random(right.shape) < 0.3] = ring.size - 1, ring.size - 1
        expected = ref.dot(left[:, None], right[None])
        np.testing.assert_array_equal(ring.dot_many(left, right), expected)


@pytest.mark.parametrize("k,dtype", [(136, np.int32), (137, np.int64)])
def test_dot_sums_switch_to_int64_past_the_int32_bound(k, dtype):
    # f:63001:1: m = 251 and B's digit sums reach S = 251, so the rule
    # k * S * (m-1)**2 < 2**31 keeps k = 136 in int32 and moves k = 137 to
    # int64; rows of the top entry (both digits 250) attain the bound
    ring = make_ring(251, 2, 1, "fqtr")
    left = np.full((2, k), ring.size - 1)
    left[1, ::3] = ring.size - 2
    right = np.full((3, k), ring.size - 1)
    right[2, 1::2] = 1
    block = ring.dot_many(left, right)
    assert block.dtype == dtype
    np.testing.assert_array_equal(block, Oracle("f:63001:1").dot(left[:, None], right[None]))


def test_fqtr_uniformizer_nilpotent(f9t2):
    t = f9t2.uniformizer
    assert f9t2.valuation(t) == 1
    assert f9t2.mul(t, t) == 0
    # t * (a0 + a1 t) = a0 t, killing the top coefficient
    assert f9t2.mul(t, f9t2.from_coeffs([2, 5])) == f9t2.from_coeffs([0, 2])


# ---------------------------------------------------------------------------
# valuation, units, inverses


# every ring of at most 125 elements: 36 Z/p^r and 44 F_q[t]/(t^r)
SMALL_RINGS = [
    (p, s, r, family)
    for p in range(3, 126)
    if is_prime(p)
    for family in ("zpr", "fqtr")
    for s in range(1, 8)
    if s == 1 or family == "fqtr"
    for r in range(1, 8)
    if p ** (s * r) <= 125
]


def _small_rings_after(*first):
    """The rings first, then every other ring of SMALL_RINGS."""
    return [*first, *(maker for maker in SMALL_RINGS if maker not in first)]


@pytest.mark.parametrize("maker", _small_rings_after((3, 1, 3, "zpr"), (3, 2, 2, "fqtr")))
def test_valuation_level_counts(maker):
    ring = make_ring(*maker)
    idx = np.arange(ring.size)
    vals = ring.valuation_many(idx)
    assert int(vals[0]) == ring.r
    for k in range(ring.r + 1):
        assert int((vals >= k).sum()) == ring.ideal_size(k)
    # the vector and scalar routes and the unit rule agree with the oracle
    expected = Oracle(ring.descriptor).valuation(idx)
    np.testing.assert_array_equal(vals, expected)
    assert [ring.valuation(x) for x in range(ring.size)] == expected.tolist()
    np.testing.assert_array_equal(ring.is_unit_many(idx), expected == 0)


@pytest.mark.parametrize("maker", _small_rings_after((5, 1, 2, "zpr"), (3, 2, 2, "fqtr")))
def test_inverse_on_units(maker):
    ring = make_ring(*maker)
    ref, idx = Oracle(ring.descriptor), np.arange(ring.size)
    expected = ref.inverse(idx)
    np.testing.assert_array_equal(ring.is_unit_many(idx), ref.is_unit(idx))
    np.testing.assert_array_equal(ring.inverse_table(), expected)
    for x in ElementSet.units(ring):
        assert ring.inv(int(x)) == expected[x]
    with pytest.raises(NotAUnit):
        ring.inv(0)
    with pytest.raises(NotAUnit):
        ring.inv(ring.uniformizer)


@pytest.mark.parametrize("maker", [(5, 1, 2, "zpr"), (3, 2, 2, "fqtr")])
def test_scalar_twins_reject_bad_index(maker):
    ring = make_ring(*maker)
    for bad in (-1, ring.size, 2**70):
        for scalar in (ring.valuation, ring.inv, ring.is_unit, ring.coeffs, ring.neg):
            with pytest.raises(BadIndex):
                scalar(bad)
        for binary in (ring.add, ring.sub, ring.mul):
            for args in ((bad, 1), (1, bad)):
                with pytest.raises(BadIndex):
                    binary(*args)


@pytest.mark.parametrize("maker", [(3, 1, 2, "zpr"), (3, 2, 2, "fqtr")])
def test_check_indices_checks_all_entries_at_once(maker):
    ring = make_ring(*maker)
    every = np.arange(ring.size)
    assert ring.check_indices(every) is every  # int64 input is not copied
    assert ring.check_indices([0, ring.size - 1]).tolist() == [0, ring.size - 1]
    assert ring.check_indices(5).shape == () and ring.check_indices([]).size == 0
    for bad in (-1, ring.size, np.iinfo(np.int64).min):
        grid = np.zeros((3, 4), dtype=np.int64)
        grid[2, 1] = bad
        for a in (bad, grid, grid.T, [1, 2, int(bad)]):
            with pytest.raises(BadIndex):
                ring.check_indices(a)
    with pytest.raises(BadIndex):
        ring.check_indices([1, 2**64])


@pytest.mark.parametrize("maker", [(5, 1, 2, "zpr"), (3, 2, 2, "fqtr")])
def test_check_indices_refuses_non_integers(maker):
    # floats were truncated, strings parsed and bools read as 0 and 1
    ring = make_ring(*maker)
    for bad in ([1.7, 2.2], 1.5, 2.0, "3", ["1", "2"], True, [True, False], np.array([1.0]), [1, 2.5]):
        with pytest.raises(BadIndex):
            ring.check_indices(bad)
    with pytest.raises(BadIndex):
        ring.add(1.5, 2)
    with pytest.raises(BadIndex):
        ElementSet.from_indices(ring, [1.9])
    assert ring.check_indices(np.array([], dtype=np.float64)).dtype == np.int64
    assert ring.check_indices(np.array([3], dtype=np.uint8)).tolist() == [3]


def test_unit_iff_valuation_zero(z25):
    for x in range(25):
        assert z25.is_unit(x) == (z25.valuation(x) == 0)
    assert z25.is_unit_many(range(25)).tolist() == [z25.is_unit(x) for x in range(25)]


@pytest.mark.parametrize(
    "maker,z",
    [((3, 1, 3, "zpr"), 3), ((3, 2, 2, "fqtr"), 9), ((7, 1, 1, "zpr"), 0), ((3, 2, 1, "fqtr"), 0)],
)
def test_uniformizer_is_an_index(maker, z):
    ring = make_ring(*maker)
    assert type(ring.uniformizer) is int and ring.uniformizer == z
    assert ring.coeffs(z) == ((0, 1) + (0,) * (ring.r - 2) if ring.r > 1 else (0,))


def test_uniformizer_power_chain():
    ring = make_ring(3, 1, 3)
    z = ring.uniformizer
    assert z == 3
    zz = ring.mul(z, z)
    assert ring.valuation(zz) == 2
    assert ring.mul(zz, z) == 0


# ---------------------------------------------------------------------------
# unit partition and coefficient encoding


@pytest.mark.parametrize("maker", [(3, 1, 2, "zpr"), (3, 2, 2, "fqtr")])
def test_filters_partition(maker):
    ring = make_ring(*maker)
    every = set(ElementSet.full(ring))
    units = set(ElementSet.units(ring))
    ideal = set(ElementSet.maximal_ideal(ring))
    assert every == set(range(ring.size))
    assert units | ideal == every
    assert units & ideal == set()
    assert len(units) == ring.unit_count


@given(st.integers(0, 80))
def test_coeffs_roundtrip(idx):
    ring = make_ring(3, 2, 2, "fqtr")
    cs = ring.coeffs(idx)
    assert len(cs) == ring.r
    assert all(0 <= c < ring.q for c in cs)
    assert ring.from_coeffs(cs) == idx


def test_from_int(z9, f9t2):
    assert z9.from_int(10) == 1
    assert z9.from_int(-1) == 8
    # FQTR: integers land in the prime subring, reduced mod p
    assert f9t2.from_int(3) == 0
    assert f9t2.from_int(4) == 1

