"""Subsets of a ring and the counting statistics defined on them.

An :class:`ElementSet` stores a subset of element indices as one
read-only boolean mask of length ``ring.size`` (entry i is true <=> index
i belongs), so membership is one lookup and set algebra one vectorized
operation; the ascending index array is cached lazily for the other paths.

The statistics both count tuples (x, b_1..b_{n-1}, c_1..c_{n-1}) drawn
from A^2 x (A+A)^{n-1} x A^{n-1} and fold them through

    value = x + sum_i (b_i - c_i)**2 .

Every reader of the fold takes one :class:`FoldSets` record, the sets
A, A+A, A^2 and nA^2 with n, which ``fold_sets`` builds once after
checking 2 <= n <= ``caps.max_n``; a replay builds it once and hands the
same record to the fold and to the graph embeddings.  The fold itself
(``_form_values``) checks that A consists of units and that the tuple
count fits ``caps.max_tuple_count``.

``count_form_solutions`` counts tuples whose value lands in nA^2 (a
membership test per tuple), ``form_energy`` is the sum of squared
multiplicities of all values; the pipelines read both from one
``form_value_histogram``, and tests check the routes against each other.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import BadArity, BadIndex, BadSize, NotUnits, RingMismatch, TooLarge
from .ring import Element, ElementFilter, Ring

__all__ = [
    "ElementSet",
    "sumset",
    "productset",
    "square_set",
    "iterated_sumset",
    "restrict_to_units",
    "FoldSets",
    "fold_sets",
    "count_form_solutions",
    "form_energy",
    "form_value_histogram",
    "form_tuple_count",
    "triple_product_sizes",
    "sample_unit_subset",
]


class ElementSet:
    """Immutable subset of one ring's elements."""

    __slots__ = ("ring", "_mask", "_indices")

    def __init__(self, ring: Ring, mask: np.ndarray):
        """Take ownership of ``mask``: it is made read-only, not copied."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (ring.size,):
            raise BadIndex(f"mask of shape {mask.shape}, need ({ring.size},)")
        mask.flags.writeable = False
        self.ring = ring
        self._mask = mask
        self._indices = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_indices(cls, ring: Ring, indices: Iterable[Union[int, Element]]) -> "ElementSet":
        checked = []
        for i in indices:
            if isinstance(i, Element):
                if i.ring != ring:
                    raise RingMismatch("element from a different ring")
                i = i.index
            i = int(i)
            ring._check_index(i)
            checked.append(i)
        mask = np.zeros(ring.size, dtype=bool)
        mask[checked] = True
        return cls(ring, mask)

    @classmethod
    def from_mask(cls, ring: Ring, mask: np.ndarray) -> "ElementSet":
        """Copy of a boolean mask; later writes to ``mask`` do not show."""
        return cls(ring, np.array(mask, dtype=bool))

    @classmethod
    def empty(cls, ring: Ring) -> "ElementSet":
        return cls(ring, np.zeros(ring.size, dtype=bool))

    @classmethod
    def full(cls, ring: Ring) -> "ElementSet":
        return cls(ring, np.ones(ring.size, dtype=bool))

    @classmethod
    def units(cls, ring: Ring) -> "ElementSet":
        # the rule of Ring.indices: index i is a unit iff q does not divide i
        return cls(ring, np.arange(ring.size) % ring.q != 0)

    @classmethod
    def maximal_ideal(cls, ring: Ring) -> "ElementSet":
        return cls(ring, np.arange(ring.size) % ring.q == 0)

    # -- views ---------------------------------------------------------------

    @property
    def card(self) -> int:
        return int(np.count_nonzero(self._mask))

    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.flatnonzero(self._mask).astype(np.int64, copy=False)
            self._indices.flags.writeable = False
        return self._indices

    def mask(self) -> np.ndarray:
        return self._mask

    def __contains__(self, item: Union[int, Element]) -> bool:
        if isinstance(item, Element):
            if item.ring != self.ring:
                return False
            item = item.index
        return 0 <= item < self.ring.size and bool(self._mask[item])

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.indices())

    def __len__(self) -> int:
        return self.card

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.ring == other.ring
            and np.array_equal(self._mask, other._mask)
        )

    def __hash__(self) -> int:
        return hash((self.ring, self._mask.tobytes()))

    def __and__(self, other: "ElementSet") -> "ElementSet":
        _same_ring(self, other)
        return ElementSet(self.ring, self._mask & other._mask)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        _same_ring(self, other)
        return ElementSet(self.ring, self._mask | other._mask)

    def issubset(self, other: "ElementSet") -> bool:
        _same_ring(self, other)
        return not (self._mask & ~other._mask).any()

    def all_units(self) -> bool:
        return self.issubset(ElementSet.units(self.ring))

    def __repr__(self) -> str:
        idx = list(self.indices()[:12])
        tail = ", ..." if self.card > 12 else ""
        return f"ElementSet({self.ring.descriptor}, {{{', '.join(map(str, idx))}{tail}}})"


def _same_ring(a: ElementSet, b: ElementSet) -> None:
    if a.ring != b.ring:
        raise RingMismatch(
            f"sets over {a.ring.descriptor} and {b.ring.descriptor}"
        )


# -- pointwise set algebra ----------------------------------------------------

_CHUNK_CELLS = 4_000_000


def _pairwise_mask(ring: Ring, left: np.ndarray, right: np.ndarray, op) -> np.ndarray:
    """Boolean mask of {op(a, b)} over all pairs, chunked to bound memory."""
    seen = np.zeros(ring.size, dtype=bool)
    if len(left) == 0 or len(right) == 0:
        return seen
    step = max(1, _CHUNK_CELLS // len(right))
    for lo in range(0, len(left), step):
        block = op(left[lo : lo + step, None], right[None, :])
        seen[block.reshape(-1)] = True
    return seen


def sumset(a: ElementSet, b: ElementSet) -> ElementSet:
    _same_ring(a, b)
    return ElementSet(
        a.ring, _pairwise_mask(a.ring, a.indices(), b.indices(), a.ring.add_many)
    )


def productset(a: ElementSet, b: ElementSet) -> ElementSet:
    _same_ring(a, b)
    return ElementSet(
        a.ring, _pairwise_mask(a.ring, a.indices(), b.indices(), a.ring.mul_many)
    )


def square_set(a: ElementSet) -> ElementSet:
    ring = a.ring
    idx = a.indices()
    seen = np.zeros(ring.size, dtype=bool)
    if len(idx):
        seen[ring.mul_many(idx, idx)] = True
    return ElementSet(ring, seen)


def iterated_sumset(a: ElementSet, n: int) -> ElementSet:
    """n-fold sumset a + a + ... + a (n >= 1 copies)."""
    if n < 1:
        raise BadArity(f"need n >= 1, got {n}")
    out = a
    for _ in range(n - 1):
        out = sumset(out, a)
    return out


def restrict_to_units(a: ElementSet) -> ElementSet:
    return a & ElementSet.units(a.ring)


# -- tuple statistics ---------------------------------------------------------


class FoldSets(NamedTuple):
    """The sets the fold reads: A, its arity n, A+A, A^2 and nA^2."""

    a: ElementSet
    n: int
    plus: ElementSet
    sq: ElementSet
    target: ElementSet


def fold_sets(a: ElementSet, n: int, caps: Caps = DEFAULT_CAPS) -> FoldSets:
    """Check 2 <= n <= caps.max_n, then build A^2, A+A and nA^2 once each."""
    if not 2 <= n <= caps.max_n:
        raise BadArity(f"need 2 <= n <= {caps.max_n}, got {n}")
    sq = square_set(a)
    return FoldSets(a, n, sumset(a, a), sq, iterated_sumset(sq, n))


def form_tuple_count(f: FoldSets) -> int:
    """Number of tuples the fold visits: |A^2| * (|A+A|*|A|)**(n-1)."""
    return f.sq.card * (f.plus.card * f.a.card) ** (f.n - 1)


def _form_values(f: FoldSets, caps: Caps) -> np.ndarray:
    """Folded values x + sum (b_i - c_i)^2 for every tuple, flattened."""
    if not f.a.all_units():
        raise NotUnits("the base set must consist of units")
    total = form_tuple_count(f)
    if total > caps.max_tuple_count:
        raise TooLarge(
            f"{total} tuples exceed cap {caps.max_tuple_count}; shrink A or n"
        )
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ring = f.a.ring
    diffs = ring.sub_many(f.plus.indices()[:, None], f.a.indices()[None, :]).reshape(-1)
    sq_diffs = ring.mul_many(diffs, diffs)
    vals = f.sq.indices()
    for _ in range(f.n - 1):
        vals = _combine_add(ring, vals, sq_diffs)
    return vals


def _combine_add(ring: Ring, vals: np.ndarray, terms: np.ndarray) -> np.ndarray:
    out = np.empty(len(vals) * len(terms), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(1, len(terms)))
    pos = 0
    for lo in range(0, len(vals), step):
        block = ring.add_many(vals[lo : lo + step, None], terms[None, :]).reshape(-1)
        out[pos : pos + block.size] = block
        pos += block.size
    return out


def count_form_solutions(f: FoldSets, caps: Caps = DEFAULT_CAPS) -> int:
    """Tuples whose folded value lies in nA^2.

    Implemented as a membership test per tuple; tests cross-check it
    against the histogram route and a scalar brute-force oracle.
    """
    return int(f.target.mask()[_form_values(f, caps)].sum())


def form_value_histogram(f: FoldSets, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Multiplicity of each ring value under the fold (length = ring size)."""
    vals = _form_values(f, caps)
    return np.bincount(vals, minlength=f.a.ring.size).astype(np.int64)


def form_energy(f: FoldSets, caps: Caps = DEFAULT_CAPS) -> int:
    """Sum of squared multiplicities over all values (collision energy)."""
    hist = form_value_histogram(f, caps)
    # exact in int64: E <= T^2 for T tuples, and T <= max_tuple_count = 5*10^7
    # gives E <= 2.5*10^15 < 2^63 (a cap below 3*10^9 keeps it exact)
    return int(hist @ hist)


def triple_product_sizes(
    a: ElementSet, b: ElementSet, c: ElementSet
) -> tuple[int, int, int]:
    """(|A.B|, |B.C|, |B+C|) for unit sets A, B, C."""
    _same_ring(a, b)
    _same_ring(b, c)
    if not (a.all_units() and b.all_units() and c.all_units()):
        raise NotUnits("all three sets must consist of units")
    return (
        productset(a, b).card,
        productset(b, c).card,
        sumset(b, c).card,
    )


def sample_unit_subset(ring: Ring, k: int, seed: Union[int, random.Random]) -> ElementSet:
    """Uniform random k-subset of the units, deterministic in the seed."""
    units = [int(u) for u in ring.indices(ElementFilter.UNITS)]
    if not 1 <= k <= len(units):
        raise BadSize(f"need 1 <= k <= {len(units)} for {ring.descriptor}, got {k}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return ElementSet.from_indices(ring, rng.sample(units, k))
