"""Finite valuation rings with exact, vectorized arithmetic.

Two families cover every supported ring of size q**r, where q = p**s is
an odd prime power and r >= 1:

* ``ZPR``:  Z/p**r, the integers modulo a prime power (requires s = 1).
* ``FQTR``: F_q[t]/(t**r), truncated polynomials over the field with q
  elements.  For s > 1 the field is realized as F_p[x] modulo the
  lexicographically smallest monic irreducible of degree s.

Both are local rings: the unique maximal ideal is generated by the
uniformizer z (z = p for ZPR, z = t for FQTR), every element factors as
(unit) * z**k, and the units are exactly the elements whose valuation is
zero.  Characteristic 2 is rejected everywhere because the constructions
downstream divide by 2.

Both families share one representation: a ring is a free Z/m-module of
rank n with a basis e_0, ..., e_(n-1) and a structure tensor B, where
B[i, j] holds the coordinates of e_i * e_j.  Z/p**r is m = p**r, n = 1,
B = [[1]]; F_q[t]/(t**r) is m = p, n = r*s, with e_(k*s + l) = t**k * x**l.
An element's index is the base-m numeral sum(a_k * m**k) of its
coordinates.  That is the integer residue for Z/p**r and, for
F_q[t]/(t**r), the mixed-radix index sum(c_k * q**k) of its z-adic
digits c_k in [0, q), so in both families ``a % q`` is the residue mod
z and the valuation is the first nonzero base-q digit.

The :class:`Ring` methods ending in ``_many`` operate on numpy arrays
of indices with broadcasting and are the backbone of the set-operation
and graph modules; the scalar methods (``add``, ``mul``, ``inv``,
``valuation``, ...) are thin wrappers of them.  An element is its index
everywhere, an int or an int64 array, and :meth:`Ring.check_indices` is
the one range check.  There is one arithmetic path, in integers only.
Addition, subtraction and negation act on each digit mod m and never
carry between digits.  Digit c of a*b is sum_ij a_i * b_j * B[i, j, c]
mod m, one contraction over B's nonzero terms, which :meth:`Ring.dot_many`
also runs over whole matrices of dot products, the graph kernel.  A ring
of at most ``_TABLE_MAX_SIZE`` elements, Z/p**r or F_q[t]/(t**r), evaluates
the digitwise sum and the contraction once on the full index grid into
Cayley tables: a size x size add table, a size x size mul table and a
negation vector, so each of ``add_many``, ``mul_many`` and ``neg_many``
is one gather and ``sub_many`` is two (``add[a, neg[b]]``).  The tables
are built on the ring's first arithmetic call and :func:`make_ring`
caches rings, so one build serves every later caller in the process.
Larger rings add digitwise and contract on each call.  A multi-digit
ring with tables gathers its dot products from them instead.

The inverse of a residue v is the Fermat power v**(q-2), and Newton
steps lift it to the inverse of each unit.

Rings are immutable apart from those lazily built caches (the Cayley
tables and the inverse table).  Each build is idempotent: two threads
that race on one ring both compute the same arrays and one assignment
wins, so a ring is safe to share across threads.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .config import MAX_RING_SIZE
from .errors import (
    BadFamilyCombo,
    BadIndex,
    EvenPrime,
    NonPrime,
    NotAUnit,
    NotPrimePower,
    TooLarge,
    ValringError,
)

__all__ = [
    "Ring",
    "RingFamily",
    "make_ring",
    "check_ring_size",
    "is_prime",
    "factor_prime_power",
    "smallest_irreducible",
]

# Rings of at most this many elements, Z/p**r and F_q[t]/(t**r) alike,
# add, subtract, negate and multiply by Cayley-table gathers; larger rings
# add digitwise and contract with the structure tensor on each call.  On a
# 2-core host a gather over 10**5 products takes 0.4-0.7 ms, the per-call
# contraction 0.5-22 ms.  The cap is not the one-shot crossover: in a
# fresh process `verify thm1 --set 1,2 --n 2` takes 3.46 ms with the tables
# against 3.41 ms without on z:5:3, 3.32 against 3.06 on z:11:2, 4.53
# against 3.92 on f:5:3 and 4.43 against 4.03 on f:11:2 (medians of 11
# runs), so the build pays only in a process that makes many products.
_TABLE_MAX_SIZE = 125


class RingFamily(enum.Enum):
    ZPR = "zpr"
    FQTR = "fqtr"


def _least_factor(n: int) -> int:
    """The least factor f >= 2 of n >= 2 (n itself iff n is prime), by trial
    division: make_ring checks the size cap (2**16) first, so n is small."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test: n >= 2 is its own least factor."""
    return n >= 2 and _least_factor(n) == n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q as p**s with p prime, or raise NotPrimePower: p is q's least
    factor, and q is a prime power iff some power of p equals it."""
    if q >= 2:
        p, s = _least_factor(q), 1
        while p**s < q:
            s += 1
        if p**s == q:
            return p, s
    raise NotPrimePower(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, ascending degree)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m must be monic
    rem = list(a)
    dm = len(m) - 1
    while len(rem) - 1 >= dm and rem:
        lead = rem[-1]
        shift = len(rem) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                rem[shift + i] = (rem[shift + i] - lead * mi) % p
        while rem and rem[-1] == 0:  # the leading term, now 0, and any zeros below it
            rem.pop()
    return rem


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + [1]
            if not _poly_mod(coeffs, div, p):
                return False
    return True


def _digits(n: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree s over F_p.

    "Smallest" means by the integer whose base-p digits are the
    non-leading coefficients (constant term least significant), scanned
    in ascending order.  Returns ascending coefficients including the
    leading 1.
    """
    for enc in range(p**s):
        coeffs = _digits(enc, p, s) + [1]
        if _poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("irreducibles exist in every degree")


# ---------------------------------------------------------------------------


class _CayleyTables(NamedTuple):
    add: np.ndarray  # (size, size): add[a, b] = a + b
    mul: np.ndarray  # (size, size): mul[a, b] = a * b
    neg: np.ndarray  # (size,): neg[a] = -a


class Ring:
    """One finite valuation ring; construct through :func:`make_ring`.

    Every ring is n digits over Z/m with a structure tensor B, chosen once
    in ``__init__``; the arithmetic methods read only m, n and B's nonzero
    terms, as the module docstring describes, and the elementwise ones
    give int64 results of the broadcast shape of the inputs.

    Attributes
    ----------
    p, s, r : int
        Residue characteristic, field degree, nilpotency degree.
    q : int
        Residue field size p**s.
    size : int
        Ring cardinality q**r.
    family : RingFamily
        A label: names, descriptors and the cache key read it.
    m, n : int
        Digit modulus and digit count: p**r and 1 for ZPR, p and r*s for
        FQTR.  An index is the base-m numeral of its n coordinates.
    modulus_coeffs : tuple[int, ...] | None
        Ascending coefficients of the irreducible defining F_q over
        F_p, or None when s = 1.
    """

    def __init__(self, p: int, s: int, r: int, family: RingFamily):
        self.p = p
        self.s = s
        self.r = r
        self.q = p**s
        self.size = self.q**r
        self.family = family
        self.unit_count = self.size - self.size // self.q
        self.descriptor = (
            f"z:{p}:{r}" if family is RingFamily.ZPR else f"f:{self.q}:{r}"
        )
        if family is RingFamily.ZPR:
            self.math_name = f"Z/{self.size}"
        elif r == 1:
            self.math_name = f"F_{self.q}"
        else:
            self.math_name = f"F_{self.q}[t]/(t^{r})"

        self.modulus_coeffs = smallest_irreducible(p, s) if s > 1 else None
        self._q_pows = self.q ** np.arange(r, dtype=np.int64)
        self.m, self.n = (self.size, 1) if family is RingFamily.ZPR else (p, r * s)
        self._terms = self._structure_terms()
        # the widest dot product whose digit sums _dot keeps in int32
        weight = max(
            sum(coef for *_, targets in self._terms for t, coef in targets if t == c)
            for c in range(self.n)
        )
        self._int32_width = (2**31 - 1) // (weight * (self.m - 1) ** 2)
        self._m_pows = self.m ** np.arange(self.n, dtype=np.int64)
        self._key = (family, p, s, r, self.modulus_coeffs)
        self._inverse_table: Optional[np.ndarray] = None
        self._cayley_tables: Optional[_CayleyTables] = None

    # -- arithmetic: the structure tensor, per-call ops, Cayley tables -------

    def _structure_terms(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """B's nonzero entries by digit pair: (i, j, [(c, B[i, j, c]), ...]) for
        each pair with e_i * e_j nonzero, B[i, j, c] the coefficient of e_c.

        e_(k*s + l) = t**k * x**l, so e_i * e_j is t**(k_i + k_j), zero from
        t**r on, times x**(l_i + l_j), reduced by the monic modulus.  Z/p**r
        has s = 1 and one digit, so its one term is (0, 0, 0, 1).
        """
        p, s, r = self.p, self.s, self.n // self.s
        # x_pow[m] = digits of x**m, reduced by x**s = -(c_0 + ... + c_(s-1) x**(s-1))
        x_pow = np.eye(2 * s - 1, s, dtype=np.int64)
        for m in range(s, 2 * s - 1):
            x_pow[m, 1:] = x_pow[m - 1, :-1]
            x_pow[m] = (x_pow[m] - x_pow[m - 1, -1] * np.array(self.modulus_coeffs[:-1])) % p
        field = x_pow[np.add.outer(np.arange(s), np.arange(s))]
        k = np.arange(r)
        trunc = (np.add.outer(k, k)[..., None] == k).astype(np.int64)
        n = r * s
        tensor = np.einsum("abc,xyz->axbycz", trunc, field).reshape(n, n, n)
        return [
            (i, j, [(int(c), int(tensor[i, j, c])) for c in np.flatnonzero(tensor[i, j])])
            for i, j in itertools.product(range(n), repeat=2)
            if tensor[i, j].any()
        ]

    def _digits(self, v: np.ndarray, dtype) -> list[np.ndarray]:
        """The n base-m digits of the indices v, least significant first, as
        C-ordered arrays, which the products read fastest."""
        v, digits = np.ascontiguousarray(v), []
        for _ in range(self.n - 1):
            v, digit = np.divmod(v, self.m)
            digits.append(digit.astype(dtype, copy=False))
        return digits + [v.astype(dtype, copy=False)]

    def _dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k a[k] * b[k] on indices, in the broadcast shape of the a[k], b[k].

        Digit c is sum_k sum_ij a[k]_i * b[k]_j * B[i, j, c] over B's nonzero
        terms, reduced mod m once; each product a[k]_i * b[k]_j is formed once
        and added into every digit c it feeds.  With S the largest sum of B[:, :, c] over
        the digits c, no sum exceeds K * S * (m-1)**2 for K = len(a).  The
        sums, and the result, are int32 while that is below 2**31 and int64
        otherwise, exact for any K < 2**31: S * (m-1)**2 is (m-1)**2 < 2**32
        on one digit, and at most 1.6e7 (f:63001:1, S = 251) on more.
        """
        dtype = np.int32 if len(a) <= self._int32_width else np.int64
        if not len(a):
            return np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=dtype)
        da, db = self._digits(a, dtype), self._digits(b, dtype)
        sums: list = [None] * self.n  # every digit c takes the term e_0 * e_c
        for k in range(len(a)):
            for i, j, targets in self._terms:
                prod = da[i][k] * db[j][k]
                for c, coef in targets:
                    term = prod if coef == 1 else prod * coef
                    if sums[c] is not None:
                        sums[c] += term
                    else:  # a product that feeds another digit is copied before it sums
                        sums[c] = term.copy() if term is prod and len(targets) > 1 else term
        out = sums.pop()
        out %= self.m
        while sums:
            out = out * self.m + sums.pop() % self.m
        return out

    def _products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a*b on indices, int64: :meth:`_dot` at K = 1, 2**14 cells at a
        time, so the digits and sums of a block stay in cache."""
        shape = np.broadcast_shapes(a.shape, b.shape)
        a, b = (np.broadcast_to(v, shape).reshape(1, -1) for v in (a, b))
        out = np.empty(a.size, dtype=np.int64)
        for lo in range(0, a.size, 2**14):
            block = slice(lo, lo + 2**14)
            out[block] = self._dot(a[:, block], b[:, block])
        return out.reshape(shape)

    def _digitwise(self, op, a, b) -> np.ndarray:
        """op(a, b) mod m on each base-m digit, reassembled one digit at a time.

        Addition never carries between digits, so sums, differences and
        negations (differences from 0) all take this one step.  Walking
        the digits keeps the temporaries to a few arrays of the output's
        size.
        """
        m = self.m
        out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
        for w in self._m_pows:
            out += op(a // w % m, b // w % m) % m * w
        return out

    def _cayley(self) -> Optional[_CayleyTables]:
        """The Cayley tables, built on first use; None above the cap.

        ``add`` and ``mul`` are :meth:`_digitwise` and :meth:`_products` on
        every pair of indices, ``neg`` is the digitwise difference from 0.
        """
        if self._cayley_tables is None and self.size <= _TABLE_MAX_SIZE:
            idx = np.arange(self.size, dtype=np.int64)
            add = self._digitwise(np.add, idx[:, None], idx[None, :])
            mul = self._products(idx[:, None], idx[None, :])
            neg = self._digitwise(np.subtract, np.int64(0), idx)
            for t in (add, mul, neg):
                t.flags.writeable = False
            self._cayley_tables = _CayleyTables(add, mul, neg)
        return self._cayley_tables

    # -- digit views --------------------------------------------------------

    def _qdigits(self, a: np.ndarray) -> np.ndarray:
        return (a[..., None] // self._q_pows) % self.q

    def coeffs(self, index: int) -> tuple[int, ...]:
        """z-adic digits (c_0, ..., c_{r-1}) of an element index."""
        return tuple(int(d) for d in self._qdigits(self.check_indices(index)))

    def from_coeffs(self, digits: Iterable[int]) -> int:
        ds = list(digits)
        if len(ds) > self.r or any(not 0 <= d < self.q for d in ds):
            raise BadIndex(f"bad digit vector {ds} for {self.descriptor}")
        return sum(d * self.q**k for k, d in enumerate(ds))

    def check_indices(self, a) -> np.ndarray:
        """``a``, an index or an array or sequence of them, as int64.

        BadIndex unless every entry is an integer in [0, size); an empty
        input passes.  A float, bool or string entry is refused, not
        truncated or parsed.  One compare covers both ends, since a
        negative entry read as unsigned is at least 2**63.
        """
        a = np.asarray(a)  # an int past int64 makes an object array
        if a.size and a.dtype.kind not in "iu":
            raise BadIndex(f"indices must be integers in [0, {self.size}), got {a.dtype}")
        a = a.astype(np.int64, copy=False)
        bad = a.view(np.uint64) >= self.size
        if bad.any():
            raise BadIndex(f"index {a[bad].flat[0]} outside [0, {self.size})")
        return a

    # -- arithmetic on index arrays ------------------------------------------

    def add_many(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        tables = self._cayley()
        if tables is None:
            return self._digitwise(np.add, a, b)
        return tables.add[a, b]

    def neg_many(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        tables = self._cayley()
        if tables is None:
            return self._digitwise(np.subtract, np.int64(0), a)
        return tables.neg[a]

    def sub_many(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        tables = self._cayley()
        if tables is None:
            return self._digitwise(np.subtract, a, b)
        return tables.add[a, tables.neg[b]]

    def mul_many(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        tables = self._cayley()
        if tables is None:
            return self._products(a, b)
        return tables.mul[a, b]

    @property
    def _dot_gathers(self) -> bool:
        """Whether :meth:`dot_many` gathers from the Cayley tables (built
        here if need be): a multi-digit ring within ``_TABLE_MAX_SIZE``."""
        return self.n > 1 and self._cayley() is not None

    def dot_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Integer matrix of the dot products left_i . right_j of two (N, d)
        index arrays.

        Where :attr:`_dot_gathers` holds (e.g. F_9[t]/(t^2)), per coordinate,
        one int64 gather of the products from the flat mul table at
        left_k*size + right_k and one of the running sums from the flat add
        table at acc*size + prod, below size**2 <= 125**2.  Every other ring
        runs :meth:`_dot` over the coordinate axis; the gather stays out of
        :meth:`_dot`, which builds the mul table.
        """
        if not self._dot_gathers:
            return self._dot(left.T[:, :, None], right.T[:, None, :])
        size, tables = self.size, self._cayley_tables
        add, mul = tables.add.reshape(-1), tables.mul.reshape(-1)
        acc = np.zeros((len(left), len(right)), dtype=np.int64)
        for k in range(left.shape[1]):
            prod = np.take(mul, np.add.outer(left[:, k] * size, right[:, k]))
            if k:
                acc *= size
                acc += prod
                prod = np.take(add, acc)
            acc = prod
        return acc

    def valuation_many(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        digits = self._qdigits(a)
        nz = digits != 0
        return np.where(nz.any(axis=-1), nz.argmax(axis=-1), self.r)

    def is_unit_many(self, a) -> np.ndarray:
        """Which indices are units: i is one iff q does not divide it, i.e. its
        residue mod z is nonzero.  Every reader of the unit rule calls this."""
        return np.asarray(a, dtype=np.int64) % self.q != 0

    # -- scalar arithmetic on indices ----------------------------------------

    # Each checks its arguments first: the _many methods take their indices
    # on trust, and a gather would wrap a negative one.

    def add(self, a: int, b: int) -> int:
        return int(self.add_many(self.check_indices(a), self.check_indices(b)))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_many(self.check_indices(a), self.check_indices(b)))

    def neg(self, a: int) -> int:
        return int(self.neg_many(self.check_indices(a)))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(self.check_indices(a), self.check_indices(b)))

    def valuation(self, a: int) -> int:
        """z-adic valuation: r for zero, else the first nonzero digit."""
        return int(self.valuation_many(self.check_indices(a)))

    def is_unit(self, a: int) -> bool:
        return bool(self.is_unit_many(self.check_indices(a)))

    def inv(self, a: int) -> int:
        """Inverse of a unit, looked up in :meth:`inverse_table`."""
        if not self.is_unit(a):
            raise NotAUnit(f"{a} is not a unit in {self.descriptor}")
        return int(self.inverse_table()[a])

    def inverse_table(self) -> np.ndarray:
        """Index -> inverse index for units, 0 elsewhere.  Cached.

        The constants [0, q) are the residue field; v**(q-2) is the
        inverse of each nonzero v mod z, computed by square-and-multiply.
        Newton lifting y <- y * (2 - a*y) then doubles the z-adic precision
        each round, so ceil(log2(r)) rounds suffice.  The result is checked.
        """
        if self._inverse_table is None:
            units = np.flatnonzero(self.is_unit_many(np.arange(self.size)))
            inv0, power = np.ones(self.q, np.int64), np.arange(self.q, dtype=np.int64)
            e = self.q - 2
            while e:
                if e & 1:
                    inv0 = self.mul_many(inv0, power)
                power, e = self.mul_many(power, power), e >> 1
            y = inv0[units % self.q]
            two = np.int64(self.from_int(2))
            for _ in range((self.r - 1).bit_length()):
                y = self.mul_many(y, self.sub_many(two, self.mul_many(units, y)))
            if not (self.mul_many(units, y) == self.from_int(1)).all():
                raise AssertionError("vectorized inversion failed")
            table = np.zeros(self.size, dtype=np.int64)
            table[units] = y
            self._inverse_table = table
        return self._inverse_table

    def from_int(self, k: int) -> int:
        """Image of the integer k under the unique map Z -> R."""
        return k % self.m

    @property
    def uniformizer(self) -> int:
        """Index of z, whose digits are (0, 1): q, or 0 when r = 1 (a field)."""
        return self.q if self.r > 1 else 0

    def ideal_size(self, k: int) -> int:
        """Cardinality of the ideal generated by z**k."""
        if not 0 <= k <= self.r:
            raise BadIndex(f"power {k} outside [0, {self.r}]")
        return self.q ** (self.r - k)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Ring({self.descriptor})"


def check_ring_size(base: int, exp: int) -> None:
    """Raise TooLarge if base**exp > MAX_RING_SIZE, without forming the power.

    For base >= 2, base**k passes the cap once k reaches the cap's bit
    length, so exp is clipped there; smaller bases are left to NonPrime.
    """
    clipped = min(exp, MAX_RING_SIZE.bit_length())
    if base >= 2 and (base > MAX_RING_SIZE or base**clipped > MAX_RING_SIZE):
        raise TooLarge(f"ring has more than {MAX_RING_SIZE} elements")


_make_ring_cached = lru_cache(maxsize=64)(Ring)  # keyed on the constructor's arguments


def make_ring(
    p: int, s: int, r: int, family: Union[RingFamily, str] = RingFamily.ZPR
) -> Ring:
    """Validate parameters and build (or fetch a cached) ring.

    Raises TooLarge, NonPrime, EvenPrime or BadFamilyCombo on bad
    input; the size cap is checked first, so an oversize ring costs no
    primality test.  Rings are cached by parameters, so repeated calls
    are cheap and equal parameters give the identical object.
    """
    if isinstance(family, str):
        try:
            family = RingFamily(family.lower())
        except ValueError:
            raise BadFamilyCombo(f"unknown family {family!r}") from None
    for name, val in (("p", p), ("s", s), ("r", r)):
        if not isinstance(val, int):
            raise ValringError(f"{name} must be an int, got {type(val).__name__}")
    if s < 1 or r < 1:
        raise ValringError(f"need s >= 1 and r >= 1, got s={s}, r={r}")
    check_ring_size(p, s * r)
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if p == 2:
        raise EvenPrime("characteristic 2 is not supported; 2 must be a unit")
    if family is RingFamily.ZPR and s != 1:
        raise BadFamilyCombo("the Z/p**r family needs s = 1; use FQTR for q = p**s")
    return _make_ring_cached(p, s, r, family)
