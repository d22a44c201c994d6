"""Test oracle: schoolbook Z/p^r and F_q[t]/(t^r), elementwise on int64 index arrays.

It shares no code with the package under test, and CI greps this file for the
package's name, so a fault there cannot hide in the reference.  An index is
ring.py's sum(c_k * q**k) over the z-adic digits c_k: on Z/p**r the residue,
and on F_q[t]/(t**r), q = p**s, the base-p numeral whose digit k*s + l is the
coefficient of t**k * x**l.  A product there is the convolution, truncated at
t**r, modulo the smallest monic irreducible of degree s.
"""

import itertools
from functools import lru_cache

import numpy as np


def _monic(enc, p, s):
    """x**s plus the polynomial whose coefficients are the base-p digits of enc."""
    return [enc // p**i % p for i in range(s)] + [1]


def _remainder(f, g, p):
    """f mod the monic g over F_p, coefficients constant first: ints or arrays."""
    f = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        lead, shift = f[top], top - len(g) + 1
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    return f[: len(g) - 1]


@lru_cache(maxsize=None)
def smallest_irreducible(p, s):
    """The first monic irreducible of degree s over F_p, by trial division, its
    lower coefficients read as a base-p numeral; ascending, the leading 1 included."""
    for enc in range(p**s):
        f = _monic(enc, p, s)
        divisors = (_monic(e, p, d) for d in range(1, s // 2 + 1) for e in range(p**d))
        if all(any(_remainder(f, g, p)) for g in divisors):
            return tuple(f)


class Oracle:
    """One ring, named by its descriptor: ``z:<p>:<r>`` or ``f:<q>:<r>``."""

    def __init__(self, descriptor):
        family, q, r = descriptor.split(":")
        self.q, self.r, self.zpr = int(q), int(r), family == "z"
        self.p = next(f for f in range(2, self.q + 1) if self.q % f == 0)
        self.s = next(s for s in range(1, self.q) if self.p**s == self.q)
        self.size = self.q**self.r
        self.modulus = smallest_irreducible(self.p, self.s)
        # an index is a numeral of n digits in base m, and sums never carry
        self.m, self.n = (self.size, 1) if self.zpr else (self.p, self.r * self.s)

    def _digits(self, a):
        a = np.asarray(a, dtype=np.int64)
        return [a // self.m**i % self.m for i in range(self.n)]

    def _index(self, digits):
        return sum(d % self.m * self.m**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self._index(x + y for x, y in zip(self._digits(a), self._digits(b)))

    def sub(self, a, b):
        return self._index(x - y for x, y in zip(self._digits(a), self._digits(b)))

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self.zpr:
            return np.asarray(a, dtype=np.int64) * b % self.size
        s, da, db, out = self.s, self._digits(a), self._digits(b), []
        for k in range(self.r):
            conv = [0] * (2 * s - 1)  # the coefficients of t**k * x**l
            for i in range(k + 1):
                for la, lb in itertools.product(range(s), repeat=2):
                    conv[la + lb] = conv[la + lb] + da[i * s + la] * db[(k - i) * s + lb]
            out += _remainder(conv, self.modulus, self.p)
        return self._index(out)

    def dot(self, u, v):
        """sum_k u[..., k] * v[..., k], folded one coordinate at a time."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.int64), v)
        total = np.zeros(u.shape[:-1], dtype=np.int64)
        for k in range(u.shape[-1]):
            total = self.add(total, self.mul(u[..., k], v[..., k]))
        return total

    def zero_dots(self, left, right):
        """The number of pairs of a left row and a right row whose dot product is 0."""
        return int((self.dot(np.asarray(left)[:, None], np.asarray(right)[None]) == 0).sum())

    def valuation(self, a):
        """The place of the first nonzero z-adic digit; r for 0."""
        a = np.asarray(a, dtype=np.int64)
        return sum((a % self.q**k == 0).astype(np.int64) for k in range(1, self.r + 1))

    def is_unit(self, a):
        return self.valuation(a) == 0

    def inverse(self, a):
        """The inverse of each unit, by search over the whole ring; 0 elsewhere."""
        return (self.mul(np.asarray(a)[..., None], np.arange(self.size)) == 1).argmax(axis=-1)

    def canonicalize(self, rows):
        """Each row (last axis) scaled by the inverse of its first unit coordinate."""
        rows = np.asarray(rows, dtype=np.int64)
        units = self.is_unit(rows)
        if not units.any(axis=-1).all():
            raise ValueError("a row has no unit coordinate")
        pivot = np.take_along_axis(rows, units.argmax(axis=-1)[..., None], axis=-1)
        return self.mul(self.inverse(pivot), rows)

    def fold_histogram(self, a, n):
        """The multiplicity of each value x + sum_{i<n} (b_i - c_i)**2 with x in
        A^2, the b_i in A+A and the c_i in A, listing every tuple."""
        a = np.unique(a)
        diffs = self.sub(np.unique(self.add(a[:, None], a)), a[:, None]).ravel()
        values = np.unique(self.mul(a, a))
        for _ in range(n - 1):
            values = self.add(values[:, None], self.mul(diffs, diffs)).ravel()
        return np.bincount(values, minlength=self.size)
