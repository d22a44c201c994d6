"""Bipartite orthogonality graphs on projective classes over a ring.

Vertices (one copy per side) are the unit-scaling classes of vectors in
R^d that have at least one unit coordinate.  Each class has a unique
canonical representative: scale by the inverse of the first unit
coordinate, so that coordinate becomes 1 and everything before it stays
in the maximal ideal.  Left vertex X and right vertex Y are adjacent
when the dot product of their representatives vanishes; the relation is
scaling-invariant, so this is well defined, and the graph is biregular.

Closed forms used throughout (q = residue field size, r = nilpotency
degree, d = dimension):

    classes per side  q**((d-1)(r-1)) * (q**d - 1) / (q - 1)
    degree            q**((d-2)(r-1)) * (q**(d-1) - 1) / (q - 1)
    sigma_2 bound     sqrt(q**((d-2)(2r-1)))

The second singular value bound feeds the bipartite expander mixing
inequality |e(X, Y) - deg*|X|*|Y|/n| <= sigma_2 * sqrt(|X|*|Y|), which
is what the verification pipelines ultimately lean on.

Two embeddings turn counting statistics of the quadratic form fold into
edge counts between vertex subsets, in the style of Vinh (Eur. J.
Combin. 2011): one matches the solution count, the other the collision
energy.  One builder makes both from signed blocks.  A row of U is a
tuple (u_1..u_m, x) and a row of V a tuple (v_1..v_m, t), each u_j and
v_j drawn from a set per block, with a sign s_j per block; U gets the
coordinates (-2 s_j u_j, sum s_j u_j^2 + x, 1) and V gets (v_j, 1,
sum s_j v_j^2 - t), so

    u . v = sum_j s_j (u_j - v_j)^2 + x - t .

The pinned 1 forces distinct tuples onto distinct classes, so the edge
count equals the statistic exactly; the two public embeddings only pick
the blocks and signs.  The builder never lists the N tuples: block j is
axis j of a numpy broadcast, so the columns -2 s_j u_j and v_j and the
squares are ring ops on one block each, and only the sum column and the
canonical rows are N long.  Each side is canonicalised one column at a
time into one (N, d) array and audited by sorting its row keys and
testing neighbours for equality.

Edges between two explicit class lists are counted without the dense
biadjacency, whether or not it fits, by one split kernel: each row is a
prefix of d-s coordinates and a suffix of s.  A left row is scaled by the
inverse of its suffix's first unit coordinate, which keeps its neighbours
and sends the suffixes to few unit-scaling classes; right rows are grouped
by prefix, and each left row looks its count up in int32 tables of suffix
products, one per class and right group.  The split s and which side is
scaled are priced from closed forms on the rows' column counts, and small
or unsplittable calls test the pairs one by one.  The dense graph serves
its spectrum and id-based counts on its own vertices.

Every block of dot products (the dense graph's rows, the tables and
lookups of the split, the pairwise fallback) is one call of the ring's
public ``dot_many``.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .config import (
    CHUNK_CELLS,
    MAX_EMBED_SIZE,
    MAX_GRAPH_CLASSES,
    MAX_PAIR_COUNT,
    SPECTRAL_TOL,
    check_count,
)
from .errors import (
    AllNonUnits,
    BadArity,
    BadIndex,
    TooLarge,
)
from .ring import Ring
from .sets import ElementSet, FoldSets

__all__ = [
    "class_count",
    "class_degree",
    "lambda3_bound",
    "canonicalize",
    "canonicalize_rows",
    "enumerate_classes",
    "OrthGraph",
    "build_graph",
    "spectrum",
    "edge_count",
    "pair_edge_count",
    "edge_route",
    "mixing_random_pairs",
    "EmbeddedSets",
    "embed_solution_sets",
    "embed_energy_sets",
]

# pair_edge_count's prices (see its docstring), in units of one coordinate
# of one pairwise dot product on a one-digit ring
_SPLIT_BASE = 60_000
_CELL_PRICE = 6
_ROW_PRICE = 50
_GATHER_COORD_PRICE = 2
# _zero_dot_count works in row blocks of about this many cells, so its
# temporaries stay in cache and are reused rather than held
_BLOCK_CELLS = 2**16


def _check_dim(d: int) -> None:
    if d < 2:
        raise BadArity(f"need dimension d >= 2, got {d}")


def class_count(ring: Ring, d: int) -> int:
    _check_dim(d)
    q, r = ring.q, ring.r
    return q ** ((d - 1) * (r - 1)) * (q**d - 1) // (q - 1)


def class_degree(ring: Ring, d: int) -> int:
    _check_dim(d)
    q, r = ring.q, ring.r
    return q ** ((d - 2) * (r - 1)) * (q ** (d - 1) - 1) // (q - 1)


def lambda3_bound(ring: Ring, d: int) -> float:
    """Provable ceiling for the second singular value of the biadjacency."""
    _check_dim(d)
    return math.sqrt(ring.q ** ((d - 2) * (2 * ring.r - 1)))


# -- canonical representatives ------------------------------------------------


def canonicalize(ring: Ring, coords: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of the unit-scaling class of one vector."""
    row = canonicalize_rows(ring, ring.check_indices(coords).reshape(1, -1))
    return tuple(int(c) for c in row[0])


def canonicalize_rows(
    ring: Ring, rows: Union[np.ndarray, list[np.ndarray]]
) -> np.ndarray:
    """Canonical representatives of many vectors, as an (N, d) int64 array.

    ``rows`` is an (N, d) index array, or a list of d index arrays that
    broadcast to one shape: the columns of a grid of N vectors, taken in
    C order, so the grid itself is never listed.  The lead of a vector is
    its first unit coordinate (AllNonUnits if it has none); one inverse
    gather and one multiply per column fill the result.
    """
    if isinstance(rows, list):
        cols = [np.asarray(col, dtype=np.int64) for col in rows]
        shape = np.broadcast_shapes(*(col.shape for col in cols))
    else:
        rows = np.asarray(rows, dtype=np.int64)
        cols, shape = list(rows.T), rows.shape[:1]
    lead = np.zeros(shape, dtype=np.int64)
    for col in reversed(cols):
        np.copyto(lead, col, where=ring.is_unit_many(col))
    inv = ring.inverse_table()[lead]  # 0 exactly where no coordinate is a unit
    del lead  # N fewer int64 cells held while the columns are scaled
    if not inv.all():
        raise AllNonUnits("some vector has no unit coordinate")
    out = np.empty((inv.size, len(cols)), dtype=np.int64)
    for c, col in enumerate(cols):
        out[:, c] = ring.mul_many(col, inv).reshape(-1)
    return out


def _graph_classes(ring: Ring, d: int) -> Optional[int]:
    """class_count(ring, d) where it fits MAX_GRAPH_CLASSES, else None.  It
    is at least q**((d-1)r) with q >= 3, so (d-1)r is clipped at the cap's
    bit length and the closed form runs only on small exponents."""
    _check_dim(d)
    clipped = min((d - 1) * ring.r, MAX_GRAPH_CLASSES.bit_length())
    if ring.q**clipped <= MAX_GRAPH_CLASSES:
        count = class_count(ring, d)
        if count <= MAX_GRAPH_CLASSES:
            return count
    return None


def edge_route(ring: Ring, d: int, u_count: int, v_count: int) -> str:
    """The replay's route for e(U, V), from closed forms alone: "bound-only"
    past MAX_EMBED_SIZE on a side (no rows are built) or past MAX_PAIR_COUNT
    on |U|*|V| (pair_edge_count refuses), else "graph" where the classes fit
    MAX_GRAPH_CLASSES, else "direct".  U and V are distinct classes, so a
    graph that fits has |U|*|V| <= MAX_GRAPH_CLASSES**2 <= MAX_PAIR_COUNT:
    the count never refuses where the graph fits."""
    if max(u_count, v_count) > MAX_EMBED_SIZE or u_count * v_count > MAX_PAIR_COUNT:
        return "bound-only"
    return "direct" if _graph_classes(ring, d) is None else "graph"


def enumerate_classes(ring: Ring, d: int) -> np.ndarray:
    """All canonical representatives, rows sorted lexicographically."""
    expected = _graph_classes(ring, d)
    if expected is None:
        raise TooLarge(
            f"more than {MAX_GRAPH_CLASSES} classes per side for {ring.descriptor}, d={d}"
        )
    ideal = ElementSet.maximal_ideal(ring).indices()
    everything = np.arange(ring.size, dtype=np.int64)
    one = np.array([1], dtype=np.int64)
    blocks = []
    for pivot in range(d):
        parts = [ideal] * pivot + [one] + [everything] * (d - 1 - pivot)
        blocks.append(_grid(parts))
    rows = np.vstack(blocks)
    if len(rows) != expected:
        raise AssertionError("class enumeration disagrees with the closed form")
    order = np.lexsort(rows[:, ::-1].T)
    rows = rows[order]
    rows.flags.writeable = False
    return rows


def _grid(cols: Sequence[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*cols, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)


# -- dense graph ---------------------------------------------------------------


def _row_keys(ring: Ring, rows: np.ndarray) -> np.ndarray:
    """One int64 key per row, ordered as the rows are lexicographically.

    The key reads the row as base-``size`` digits, first column most
    significant.  Should the next column carry the keys past int64, the
    keys so far are first replaced by their ranks, which keeps the order.
    Keys therefore compare only within one call.
    """
    rows = np.asarray(rows, dtype=np.int64)
    keys = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every key so far is below bound
    for col in rows.T:
        if bound * ring.size > 2**63:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = int(keys.max()) + 1
        keys = keys * ring.size + col
        bound *= ring.size
    return keys


def _zero_dot_count(
    ring: Ring, left: np.ndarray, right: np.ndarray, out: Optional[np.ndarray] = None
) -> int:
    """Number of pairs with dot(left_i, right_j) == 0, _BLOCK_CELLS cells at a time.

    With ``out``, a (len(left), len(right)) array, each row block of
    [dot(left_i, right_j) == 0] is also written into it: the dense graph.
    """
    total = 0
    step = max(1, _BLOCK_CELLS // max(1, len(right)))
    for lo in range(0, len(left), step):
        zero = ring.dot_many(left[lo : lo + step], right) == 0
        if out is not None:
            out[lo : lo + step] = zero
        total += int(np.count_nonzero(zero))
        del zero  # one block held at a time: freed before the next is made
    return total


class OrthGraph:
    """Dense bipartite orthogonality graph (both sides share one class list)."""

    def __init__(self, ring: Ring, d: int, classes: np.ndarray, biadjacency: np.ndarray):
        self.ring = ring
        self.d = d
        self.classes = classes
        self.biadjacency = biadjacency
        self.n_classes = len(classes)
        self.degree = class_degree(ring, d)
        self._singular: Optional[np.ndarray] = None

    def __repr__(self) -> str:
        return (
            f"OrthGraph({self.ring.descriptor}, d={self.d}, "
            f"classes={self.n_classes}, degree={self.degree})"
        )


@lru_cache(maxsize=32)
def build_graph(ring: Ring, d: int) -> OrthGraph:
    """Build (and cache) the dense graph, auditing biregularity; TooLarge over the cap."""
    classes = enumerate_classes(ring, d)
    m = np.empty((len(classes), len(classes)), dtype=np.uint8)
    _zero_dot_count(ring, classes, classes, out=m)
    deg = class_degree(ring, d)
    rows_ok = (m.sum(axis=1, dtype=np.int64) == deg).all()
    cols_ok = (m.sum(axis=0, dtype=np.int64) == deg).all()
    if not (rows_ok and cols_ok):
        raise AssertionError("graph is not biregular with the predicted degree")
    m.flags.writeable = False
    return OrthGraph(ring, d, classes, m)


def spectrum(graph: OrthGraph) -> np.ndarray:
    """All singular values of the biadjacency, descending; cached on the graph.

    A dense SVD with no cap of its own: build_graph already refused any
    graph of more than MAX_GRAPH_CLASSES classes per side.
    """
    if graph._singular is None:
        sv = np.linalg.svd(graph.biadjacency.astype(np.float64), compute_uv=False)
        sv.flags.writeable = False
        graph._singular = sv
    return graph._singular


def _as_vertex_array(graph: OrthGraph, ids: Sequence[int]) -> np.ndarray:
    arr = np.unique(np.asarray(list(ids), dtype=np.int64))
    if arr.size and (arr.min() < 0 or arr.max() >= graph.n_classes):
        raise BadIndex(f"vertex ids outside [0, {graph.n_classes})")
    return arr


def edge_count(graph: OrthGraph, left_ids: Sequence[int], right_ids: Sequence[int]) -> int:
    """Edges between two vertex subsets (given as vertex id iterables)."""
    li = _as_vertex_array(graph, left_ids)
    ri = _as_vertex_array(graph, right_ids)
    if li.size == 0 or ri.size == 0:
        return 0
    return int(graph.biadjacency[np.ix_(li, ri)].sum(dtype=np.int64))


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal keys: (order, the group of each row in that order, the
    first row of each group followed by len(keys)); groups ascend by key."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    return order, np.cumsum(first) - 1, np.append(np.flatnonzero(first), len(keys))


def _split_count(ring: Ring, left: np.ndarray, right: np.ndarray, s: int) -> int:
    """pair_edge_count with rows split into a prefix of d-s coordinates and a
    suffix of the last s, for any s in [1, d-1].

    A left row u = (alpha, x) is scaled by lam, the inverse of the first unit
    coordinate of x (lam = 1 when x has none): lam*u is orthogonal to the
    same rows as u, and the scaled suffixes lam*x fall in few classes xbar.
    Right rows v = (beta, y) are grouped by prefix.  For each class xbar and
    right group g, T[xbar, g, c] = #{y in g : xbar . y = c} comes from one
    bincount, and a left row adds T[its class, g, -lam*alpha . beta_g] over
    the groups g.  Right rows go in chunks of whole groups (a group too large
    for one chunk is split, which the sum over chunks undoes); within a
    chunk, classes go in runs whose tables, table products and gathered
    cells each stay within CHUNK_CELLS.
    """
    nl, d = left.shape
    nr, p, size = len(right), d - s, ring.size
    suffix = left[:, p:]
    lead = np.ones(nl, dtype=np.int64)  # a suffix with no unit coordinate keeps scale 1
    for col in suffix.T[::-1]:
        np.copyto(lead, col, where=ring.is_unit_many(col))
    lam = ring.inverse_table()[lead][:, None]
    scaled = ring.mul_many(suffix, lam)
    l_order, l_class, l_start = _groups(_row_keys(ring, scaled))
    classes = scaled[l_order[l_start[:-1]]]
    alpha = ring.mul_many(left[l_order, :p], ring.neg_many(lam[l_order]))
    r_order, r_group, r_start = _groups(_row_keys(ring, right[:, :p]))
    beta, ys = right[r_order[r_start[:-1]], :p], right[r_order, p:]
    n_cls, n_gr = len(classes), len(beta)
    group_step = max(1, CHUNK_CELLS // size)
    total = lo = 0
    while lo < nr:
        # right rows lo..hi-1 span groups g0..g0+span-1; one class's table is cells long
        g0 = int(r_group[lo])
        hi = min(lo + CHUNK_CELLS, int(r_start[min(g0 + group_step, n_gr)]))
        span = int(r_group[hi - 1]) - g0 + 1
        cells = span * size
        slot_offset = (r_group[lo:hi] - g0) * size
        need_offset = np.arange(span) * size
        class_step = max(1, CHUNK_CELLS // max(cells, hi - lo))
        row_step = max(1, CHUNK_CELLS // span)
        for k0 in range(0, n_cls, class_step):
            k1 = min(k0 + class_step, n_cls)
            slot = ring.dot_many(classes[k0:k1], ys[lo:hi])
            slot += slot_offset
            slot += (np.arange(k1 - k0) * cells)[:, None]
            table = np.bincount(slot.reshape(-1), minlength=(k1 - k0) * cells).astype(np.int32)
            del slot
            end = int(l_start[k1])
            for i in range(int(l_start[k0]), end, row_step):
                j = min(i + row_step, end)
                at = ring.dot_many(alpha[i:j], beta[g0 : g0 + span])
                at += need_offset
                at += ((l_class[i:j] - k0) * cells)[:, None]
                total += int(np.take(table, at).sum(dtype=np.int64))
        lo = hi
    return total


def _distinct(keys: np.ndarray, bins: int) -> np.ndarray:
    """The distinct values of ``keys``, all in [0, bins), ascending: a
    bincount when the keys are many against the bins, else a sort and a scan."""
    if 8 * keys.size >= bins:
        return np.flatnonzero(np.bincount(keys, minlength=bins))
    ordered = np.sort(keys)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _column_counts(ring: Ring, sides: Sequence[np.ndarray]) -> list[tuple[list, list, list]]:
    """For each (N, d) side, per column its distinct values and its distinct
    non-units, and per pair of adjacent columns its distinct value pairs.
    Each column (or pair) of each side keys its values into a range of its
    own, so one distinct-value pass covers all columns and one all pairs."""
    size, d = ring.size, sides[0].shape[1]
    n = len(sides) * d
    cols = [np.ascontiguousarray(rows.T) for rows in sides]
    block = np.arange(n).reshape(len(sides), d, 1)
    keys = np.concatenate([(c + block[i] * size).reshape(-1) for i, c in enumerate(cols)])
    seen = _distinct(keys, n * size)
    values = np.bincount(seen // size, minlength=n).tolist()
    nonunits = np.bincount(seen[~ring.is_unit_many(seen % size)] // size, minlength=n).tolist()
    keys = np.concatenate(
        [((block[i, :-1] * size + c[:-1]) * size + c[1:]).reshape(-1) for i, c in enumerate(cols)]
    )
    pairs = np.bincount(_distinct(keys, n * size**2) // size**2, minlength=n).tolist()
    return [(values[i : i + d], nonunits[i : i + d], pairs[i : i + d - 1]) for i in range(0, n, d)]


def _distinct_bound(values: list, pairs: list, lo: int, hi: int) -> int:
    """A bound on the distinct rows of columns lo..hi-1 (hi > lo): the least
    product of single-column and adjacent-pair counts that covers them."""
    best = [1, values[lo]]
    for c in range(lo + 1, hi):
        best.append(min(best[-1] * values[c], best[-2] * pairs[c - 1]))
    return best[-1]


def _split_choice(ring: Ring, left: np.ndarray, right: np.ndarray) -> Optional[tuple[int, bool]]:
    """The split (s, swapped) that pair_edge_count prices lowest, or None when
    none undercuts the pairwise count; swapped means the right rows are scaled
    and the left rows tabulated.  See pair_edge_count for the prices."""
    nl, d = left.shape
    nr, size = len(right), ring.size
    coord = _GATHER_COORD_PRICE if ring.dot_gathers else 1
    best, choice = nl * nr * (coord * d + 1), None
    if best <= _SPLIT_BASE:
        return None
    counts = dict(zip((False, True), _column_counts(ring, (left, right))))
    for s, swapped in itertools.product(range(1, d), (False, True)):
        (na, nb), p = ((nr, nl) if swapped else (nl, nr)), d - s
        values, nonunits, pairs = counts[swapped]
        suffixes = _distinct_bound(values, pairs, p, d)
        plain = math.prod(nonunits[p:])  # suffixes with no unit coordinate stay unscaled
        unit_classes = class_count(ring, s) if s > 1 else 1
        n_cls = min(na, min(unit_classes, suffixes - plain) + plain)
        r_values, _, r_pairs = counts[not swapped]
        n_gr = min(nb, _distinct_bound(r_values, r_pairs, 0, p))
        cost = (
            _SPLIT_BASE
            + n_cls * nb * (coord * s + _CELL_PRICE)
            + na * n_gr * (coord * p + _CELL_PRICE)
            + n_cls * n_gr * size
            + _ROW_PRICE * (na + nb)
        )
        if cost < best:
            best, choice = cost, (s, swapped)
    return choice


def pair_edge_count(ring: Ring, left_rows: np.ndarray, right_rows: np.ndarray) -> int:
    """Count orthogonal pairs between two explicit class lists.

    Exact, with no dense graph, so it serves every route that has rows.
    BadIndex unless both sides are 2-D arrays of one width whose entries
    are ring indices; TooLarge when |U|*|V| exceeds MAX_PAIR_COUNT.  An
    empty side counts 0.

    One split kernel, :func:`_split_count`, counts over the unit-scaling
    classes of row suffixes; the split s in [1, d-1] and which side is
    scaled are priced from closed forms on the rows' column counts before
    any row is grouped.  Prices are in units of one coordinate of one
    pairwise dot product on a one-digit ring (about 1 ns on a 2-core x86_64
    host); a coordinate costs _GATHER_COORD_PRICE where ``ring.dot_gathers``
    holds, since ``dot_many`` then gathers twice per coordinate, and 1 on
    every other ring (untimed above the table cap, where no workload calls).
    Pairwise, |U|*|V| cells cost coord*d + 1 each.  A split scaling n_a
    rows against n_b costs _SPLIT_BASE, plus coord*s + _CELL_PRICE per table
    product (n_cls*n_b of them), coord*(d-s) + _CELL_PRICE per gathered cell
    (n_a*n_gr), 1 per table cell (n_cls*n_gr*size) and _ROW_PRICE per row.
    n_gr is bounded by the distinct right prefixes and n_cls by the distinct
    left suffixes, by the unit classes of R^s (class_count, 1 at s = 1) plus
    the suffixes with no unit; distinct rows are bounded by products of
    column and adjacent-pair counts.  A call whose pairwise price is within
    _SPLIT_BASE, or that no split undercuts, is tested pair by pair, a row
    block of _BLOCK_CELLS cells at a time.  The prices were fitted to
    in-process timings of the calls that the verify workloads make at seeds 1
    and 2; on each of those calls they pick the fastest branch, or one within
    the timing noise of it.

    Tables are int32 and hold counts of at most |V| <= MAX_PAIR_COUNT <
    2**31.  A table position is below one chunk's table, at most
    max(CHUNK_CELLS, size) <= 2**22 cells, so the positions fit int32 too;
    sums are int64.  Every temporary is within CHUNK_CELLS cells, or within
    one class's table of one right group (size cells) when that is larger.
    """
    left, right = ring.check_indices(left_rows), ring.check_indices(right_rows)
    if left.ndim != 2 or right.ndim != 2 or not 0 < left.shape[1] == right.shape[1]:
        raise BadIndex("rows must be two (N, d) arrays of one width d >= 1")
    nl, nr = len(left), len(right)
    if nl == 0 or nr == 0:
        return 0
    if nl * nr > MAX_PAIR_COUNT:
        raise TooLarge(f"{nl * nr} pairs exceed cap {MAX_PAIR_COUNT}")
    choice = _split_choice(ring, left, right)
    if choice is None:
        return _zero_dot_count(ring, left, right)
    s, swapped = choice
    return _split_count(ring, *((right, left) if swapped else (left, right)), s)


# -- mixing --------------------------------------------------------------------


def mixing_random_pairs(graph: OrthGraph, trials: int, seed: int) -> dict:
    """Mixing inequality on seeded random subset pairs, batched.

    Trials are drawn in order and evaluated in chunks of at most
    CHUNK_CELLS indicator cells per side, so memory stays bounded
    whatever the trial count.  Returns a summary with the number of
    violations (which the theorem says must be zero) and the worst
    residual/bound ratio observed, against the computed sigma_2.
    """
    check_count("trials", trials, 0)
    n = graph.n_classes
    rng = random.Random(seed)
    lam = float(spectrum(graph)[1])
    adjacency = graph.biadjacency.astype(np.float64)
    sizes_l = np.empty(trials, dtype=np.int64)
    sizes_r = np.empty(trials, dtype=np.int64)
    edges = np.empty(trials, dtype=np.float64)
    verts = range(n)
    step = max(1, CHUNK_CELLS // n)
    for lo in range(0, trials, step):
        width = min(step, trials - lo)
        xmat = np.zeros((n, width), dtype=np.float64)
        ymat = np.zeros((n, width), dtype=np.float64)
        for t in range(width):
            kx = rng.randint(1, n)
            ky = rng.randint(1, n)
            xmat[rng.sample(verts, kx), t] = 1.0
            ymat[rng.sample(verts, ky), t] = 1.0
            sizes_l[lo + t] = kx
            sizes_r[lo + t] = ky
        edges[lo : lo + width] = (xmat * (adjacency @ ymat)).sum(axis=0)
    main = graph.degree * sizes_l * sizes_r / n
    residual = np.abs(edges - main)
    bounds = lam * np.sqrt((sizes_l * sizes_r).astype(np.float64))
    ratios = residual / np.where(bounds > 0, bounds, 1.0)
    violations = int((residual > bounds + SPECTRAL_TOL).sum())
    return {
        "trials": trials,
        "seed": seed,
        "lambda3": lam,
        "lambda3_kind": "computed",
        "violations": violations,
        "max_ratio": float(ratios.max()) if trials else 0.0,
        "mean_ratio": float(ratios.mean()) if trials else 0.0,
    }


# -- statistic-preserving vertex embeddings -------------------------------------


class EmbeddedSets(NamedTuple):
    """Two vertex-class lists whose edge count equals a set statistic;
    the rows are None when the size cap left them out."""

    d: int
    u_rows: Optional[np.ndarray]
    v_rows: Optional[np.ndarray]
    u_count: int
    v_count: int

    @property
    def audit(self) -> str:
        """Return "ok" when both sides were built (building checks
        injectivity), "skipped" when the size cap left them out."""
        return "ok" if self.u_rows is not None else "skipped"


def _finish_side(ring: Ring, cols: list[np.ndarray]) -> np.ndarray:
    """Canonical rows of the tuple grid whose coordinate c broadcasts from cols[c].

    :func:`canonicalize_rows` scales the grid column by column.  Injectivity
    is audited on the sorted row keys: two equal neighbours are two tuples
    in one class.  Rows come in grid order; no caller reads their order.
    """
    rows = canonicalize_rows(ring, cols)
    keys = _row_keys(ring, rows)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError(
            "embedding lost injectivity: distinct tuples collided in one class"
        )
    return rows


def _embed_blocks(
    f: FoldSets,
    u_blocks: Sequence[np.ndarray],
    v_blocks: Sequence[np.ndarray],
    signs: Sequence[int],
) -> EmbeddedSets:
    """Rows of U over the product of ``u_blocks`` and of V over ``v_blocks``.

    Each block is the index array of one set.  The last block of a side
    holds x (for U) or t (for V); block j before it carries the sign
    ``signs[j]``.  The module docstring gives the coordinates.  Block j
    lies on axis j of a broadcast over the blocks, so the columns
    -2 s_j u_j and v_j and the squares are ring ops on one block each;
    only the sum column and the canonical rows are N = prod |block| long.
    Each side is canonicalised and audited by :func:`_finish_side`.
    """
    ring = f.a.ring
    d = len(signs) + 2
    u_count = math.prod(len(b) for b in u_blocks)
    v_count = math.prod(len(b) for b in v_blocks)
    if max(u_count, v_count) > MAX_EMBED_SIZE:
        return EmbeddedSets(d, None, None, u_count, v_count)

    k = len(signs) + 1
    u, v = (
        [b.reshape((1,) * j + (-1,) + (1,) * (k - 1 - j)) for j, b in enumerate(blocks)]
        for blocks in (u_blocks, v_blocks)
    )
    one = np.ones((1,) * k, dtype=np.int64)
    u_cols = [ring.mul_many(np.int64(ring.from_int(-2 * s)), u[j]) for j, s in enumerate(signs)]
    u_rows = _finish_side(ring, u_cols + [_signed_sum(ring, u, signs, u[-1]), one])
    v_sum = _signed_sum(ring, v, signs, ring.neg_many(v[-1]))
    v_rows = _finish_side(ring, v[:-1] + [one, v_sum])
    return EmbeddedSets(d, u_rows, v_rows, u_count, v_count)


def _signed_sum(
    ring: Ring, blocks: Sequence[np.ndarray], signs: Sequence[int], total: np.ndarray
) -> np.ndarray:
    """total + sum_j signs[j] * blocks[j]**2, broadcast over the blocks.

    Called once per side, so U's N-long sum column is freed before V's is
    made.
    """
    for block, s in zip(blocks, signs):
        square = ring.mul_many(block, block)
        total = ring.add_many(total, square) if s > 0 else ring.sub_many(total, square)
    return total


def embed_solution_sets(f: FoldSets) -> EmbeddedSets:
    """Vertex sets in dimension n+1 whose edge count is the solution count.

    U = (A+A)^{n-1} x A^2 and V = A^{n-1} x nA^2, all signs +1: a row
    pair is an edge exactly when x + sum (b_i - c_i)^2 = t lies in nA^2.
    """
    m = f.n - 1
    a, plus = f.a.indices(), f.plus.indices()
    return _embed_blocks(
        f, [plus] * m + [f.sq.indices()], [a] * m + [f.target.indices()], [1] * m
    )


def embed_energy_sets(f: FoldSets) -> EmbeddedSets:
    """Vertex sets in dimension 2n whose edge count is the collision energy.

    U = (A+A)^{n-1} x A^{n-1} x A^2 and V = A^{n-1} x (A+A)^{n-1} x A^2,
    signs +1 on the first n-1 blocks and -1 on the next n-1: a row pair
    is an edge exactly when the folded values x + sum (b_i - c_i)^2 and
    y + sum (e_i - d_i)^2 of two tuples agree, so e(U, V) is the energy.
    """
    m = f.n - 1
    a, plus, sq = f.a.indices(), f.plus.indices(), f.sq.indices()
    return _embed_blocks(
        f, [plus] * m + [a] * m + [sq], [a] * m + [plus] * m + [sq], [1] * m + [-1] * m
    )
