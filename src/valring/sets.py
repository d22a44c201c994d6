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
checking |A|^2 <= ``MAX_FOLD_CELLS`` and 2 <= n <= ``MAX_N``; a replay
hands the same record to the fold and to the graph embeddings.
``form_value_histogram`` counts the fold as the convolution
1_{A^2} * h^{*(n-1)}, h the histogram of (b - c)^2 over A+A x A, without
listing its T tuples: each convolution pass pairs two supports through
``add_many``, exact in both additive groups; no pass visits more than T
or ``MAX_FOLD_CELLS`` cells.
``count_form_solutions`` (its mass on nA^2) and ``form_energy`` (the sum
of its squares) read it; ``_form_values`` lists the tuples for tests.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .config import CHUNK_CELLS, MAX_FOLD_CELLS, MAX_N
from .errors import BadArity, BadIndex, BadSize, NotUnits, RingMismatch, TooLarge
from .ring import Ring

__all__ = [
    "ElementSet",
    "sumset",
    "productset",
    "square_set",
    "iterated_sumset",
    "restrict_to_units",
    "FoldSets",
    "fold_sets",
    "check_fold_cells",
    "count_form_solutions",
    "form_energy",
    "form_value_histogram",
    "form_tuple_count",
    "histogram_energy",
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
    def from_indices(cls, ring: Ring, indices: Sequence[int]) -> "ElementSet":
        """The set of a sequence or array of indices; BadIndex if one is out of range."""
        mask = np.zeros(ring.size, dtype=bool)
        mask[ring.check_indices(indices)] = True
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
        return cls(ring, ring.is_unit_many(np.arange(ring.size)))

    @classmethod
    def maximal_ideal(cls, ring: Ring) -> "ElementSet":
        return cls(ring, ~ring.is_unit_many(np.arange(ring.size)))

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

    def __contains__(self, item: int) -> bool:
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


def _pair_counts(ring: Ring, x: np.ndarray, y: np.ndarray, op, wx=None, wy=None) -> np.ndarray:
    """counts[z] = sum of wx[i]*wy[j] (1 unweighted) over the pairs with
    op(x[i], y[j]) = z, CHUNK_CELLS cells at a time; exact below 2^53."""
    counts = np.zeros(ring.size, dtype=np.int64)
    step = max(1, CHUNK_CELLS // max(1, len(y)))
    for lo in range(0, len(x), step):
        block = op(x[lo : lo + step, None], y[None, :]).reshape(-1)
        w = None if wx is None else (wx[lo : lo + step, None] * wy[None, :]).reshape(-1)
        counts += np.bincount(block, w, ring.size).astype(np.int64, copy=False)
    return counts


def _pair_support(a: ElementSet, b: ElementSet, op) -> ElementSet:
    """The set of op(x, y) over x in a, y in b, marked CHUNK_CELLS cells at a time."""
    _same_ring(a, b)
    x, y = a.indices(), b.indices()
    seen = np.zeros(a.ring.size, dtype=bool)
    step = max(1, CHUNK_CELLS // max(1, len(y)))
    for lo in range(0, len(x), step):
        seen[op(x[lo : lo + step, None], y[None, :])] = True
    return ElementSet(a.ring, seen)


def sumset(a: ElementSet, b: ElementSet) -> ElementSet:
    return _pair_support(a, b, a.ring.add_many)


def productset(a: ElementSet, b: ElementSet) -> ElementSet:
    return _pair_support(a, b, a.ring.mul_many)


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


def fold_sets(a: ElementSet, n: int) -> FoldSets:
    """Check |A|^2 against MAX_FOLD_CELLS and 2 <= n <= MAX_N, then build A^2,
    A+A and nA^2 once each.  A+A takes |A|^2 support pairs, as does the fold's
    first pass (|A+A|*|A| >= |A|^2), so an oversize A is refused before any
    set is built."""
    check_fold_cells(a.card**2)
    if not 2 <= n <= MAX_N:
        raise BadArity(f"need 2 <= n <= {MAX_N}, got {n}")
    sq = square_set(a)
    return FoldSets(a, n, sumset(a, a), sq, iterated_sumset(sq, n))


def form_tuple_count(f: FoldSets) -> int:
    """Number of tuples the fold visits: |A^2| * (|A+A|*|A|)**(n-1)."""
    return f.sq.card * (f.plus.card * f.a.card) ** (f.n - 1)


def check_fold_cells(cells: int) -> None:
    """Refuse a fold pass over more than MAX_FOLD_CELLS support pairs."""
    if cells > MAX_FOLD_CELLS:
        raise TooLarge(f"{cells} support pairs exceed cap {MAX_FOLD_CELLS}; shrink A or n")


def _form_values(f: FoldSets) -> np.ndarray:
    """Test oracle: the folded value x + sum (b_i - c_i)^2 of every tuple."""
    total = form_tuple_count(f)
    if total > CHUNK_CELLS:
        raise TooLarge(f"{total} tuples exceed {CHUNK_CELLS}, the oracle's one pass")
    ring = f.a.ring
    diffs = ring.sub_many(f.plus.indices()[:, None], f.a.indices()[None, :]).reshape(-1)
    sq_diffs = ring.mul_many(diffs, diffs)
    vals = f.sq.indices()
    for _ in range(f.n - 1):
        vals = ring.add_many(vals[:, None], sq_diffs[None, :]).reshape(-1)
    return vals


def form_value_histogram(f: FoldSets) -> np.ndarray:
    """Multiplicity of each ring value under the fold (length = ring size)."""
    if not f.a.all_units():
        raise NotUnits("the base set must consist of units")
    total = form_tuple_count(f)
    if total >= 2**53:  # every count is at most T: the float64 weights stay exact
        raise TooLarge(f"{total} tuples reach 2^53; counts would round")
    ring = f.a.ring
    check_fold_cells(f.plus.card * f.a.card)
    diff = _pair_counts(ring, f.plus.indices(), f.a.indices(), ring.sub_many)
    d = np.flatnonzero(diff)
    h = np.bincount(ring.mul_many(d, d), diff[d], ring.size).astype(np.int64)
    y = np.flatnonzero(h)
    hist = f.sq.mask().astype(np.int64)
    for _ in range(f.n - 1):
        x = np.flatnonzero(hist)
        check_fold_cells(len(x) * len(y))
        hist = _pair_counts(ring, x, y, ring.add_many, hist[x], h[y])
    return hist


def histogram_energy(hist: np.ndarray) -> int:
    """Sum of squared multiplicities, in Python ints: E <= T^2 outgrows int64."""
    return sum(c * c for c in hist.tolist())


def count_form_solutions(f: FoldSets) -> int:
    """Tuples whose folded value lies in nA^2."""
    return int(form_value_histogram(f)[f.target.mask()].sum())


def form_energy(f: FoldSets) -> int:
    """Sum of squared multiplicities over all values (collision energy)."""
    return histogram_energy(form_value_histogram(f))


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


def sample_unit_subset(ring: Ring, k: int, seed: int) -> ElementSet:
    """Uniform random k-subset of the units, deterministic in the seed."""
    units = ElementSet.units(ring).indices().tolist()  # random.sample refuses an ndarray
    if not 1 <= k <= len(units):
        raise BadSize(f"need 1 <= k <= {len(units)} for {ring.descriptor}, got {k}")
    return ElementSet.from_indices(ring, random.Random(seed).sample(units, k))
