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
the blocks and signs.  When the dense biadjacency is out of reach, edges
between two explicit class lists are counted without it: rows that share
their first d-1 coordinates are grouped, and each pair of groups is priced
once against a table of last-coordinate products.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .config import (
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
from .ring import Element, ElementFilter, Ring
from .sets import FoldSets

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
    "mixing_random_pairs",
    "EmbeddedSets",
    "embed_solution_sets",
    "embed_energy_sets",
]

_CHUNK_CELLS = 4_000_000


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


def canonicalize(ring: Ring, coords: Sequence[Union[int, Element]]) -> tuple[int, ...]:
    """Canonical representative of the unit-scaling class of one vector."""
    idx = []
    for c in coords:
        if isinstance(c, Element):
            c = c.index
        ring._check_index(int(c))
        idx.append(int(c))
    row = canonicalize_rows(ring, np.array([idx], dtype=np.int64))
    return tuple(int(c) for c in row[0])


def canonicalize_rows(ring: Ring, rows: np.ndarray) -> np.ndarray:
    """Vectorized canonicalization of an (N, d) index array."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    unit = rows % ring.q != 0
    if not unit.any(axis=1).all():
        raise AllNonUnits("some vector has no unit coordinate")
    pivot = unit.argmax(axis=1)
    lead = rows[np.arange(len(rows)), pivot]
    inv = ring.inverse_table()[lead]
    return ring.mul_many(rows, inv[:, None])


def _capped_class_count(ring: Ring, d: int) -> int:
    """class_count(ring, d), or TooLarge when it exceeds MAX_GRAPH_CLASSES.

    class_count >= q**((d-1)r) and q >= 3, so (d-1)r is clipped at the
    cap's bit length; the closed form runs only on small exponents.
    """
    _check_dim(d)
    clipped = min((d - 1) * ring.r, MAX_GRAPH_CLASSES.bit_length())
    if ring.q**clipped <= MAX_GRAPH_CLASSES:
        count = class_count(ring, d)
        if count <= MAX_GRAPH_CLASSES:
            return count
    raise TooLarge(
        f"more than {MAX_GRAPH_CLASSES} classes per side for {ring.descriptor}, d={d}"
    )


def enumerate_classes(ring: Ring, d: int) -> np.ndarray:
    """All canonical representatives, rows sorted lexicographically."""
    expected = _capped_class_count(ring, d)
    ideal = ring.indices(ElementFilter.MAXIMAL_IDEAL)
    everything = ring.indices(ElementFilter.ALL)
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
    Graph classes never need that (size**d <= size * class_count < 2**63),
    so the keys of a graph and of the rows looked up in it are both the
    plain reading and compare across calls.
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


def _dot_block(ring: Ring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """int64 matrix of the ring's dot products dot(left_i, right_j)."""
    if ring.family.value == "zpr":
        # exact in int64: |dot| <= d * (size - 1)**2 < d * 2**32, since
        # size <= MAX_RING_SIZE = 2**16; integer matmul does not go through BLAS
        left, right = np.asarray(left, np.int64), np.asarray(right, np.int64)
        return (left @ right.T) % ring.size
    acc = np.zeros((len(left), len(right)), dtype=np.int64)
    for k in range(left.shape[1]):
        prod = ring.mul_many(left[:, k : k + 1], right[:, k][None, :])
        acc = ring.add_many(acc, prod)
    return acc


def _dot_zero_block(ring: Ring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """uint8 matrix of [dot(left_i, right_j) == 0], chunk-friendly sizes only."""
    return (_dot_block(ring, left, right) == 0).astype(np.uint8)


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
        self._keys = _row_keys(ring, classes)  # ascending, since rows are lex sorted

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Vertex indices of canonical rows; raises BadIndex on misses."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        shape_ok = rows.ndim == 2 and rows.shape[1] == self.d
        if not shape_ok or rows.min() < 0 or rows.max() >= self.ring.size:
            raise BadIndex(f"rows must be (N, {self.d}) ring indices")
        enc = _row_keys(self.ring, rows)
        pos = np.searchsorted(self._keys, enc)
        bad = (pos >= self.n_classes) | (self._keys[np.minimum(pos, self.n_classes - 1)] != enc)
        if bad.any():
            raise BadIndex("row is not a canonical class representative")
        return pos

    def __repr__(self) -> str:
        return (
            f"OrthGraph({self.ring.descriptor}, d={self.d}, "
            f"classes={self.n_classes}, degree={self.degree})"
        )


@lru_cache(maxsize=32)
def build_graph(ring: Ring, d: int) -> OrthGraph:
    """Build (and cache) the dense graph, auditing biregularity; TooLarge over the cap."""
    classes = enumerate_classes(ring, d)
    n = len(classes)
    m = np.zeros((n, n), dtype=np.uint8)
    step = max(1, _CHUNK_CELLS // max(1, n))
    for lo in range(0, n, step):
        m[lo : lo + step] = _dot_zero_block(ring, classes[lo : lo + step], classes)
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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty 1-D array, ascending.

    A sort and a scan: np.unique without its return_* arrays takes a
    hash-table path that measured several times slower on these keys.
    """
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def pair_edge_count(ring: Ring, left_rows: np.ndarray, right_rows: np.ndarray) -> int:
    """Count orthogonal pairs between two explicit class lists.

    Dense-graph-free route for rings whose class count exceeds the
    biadjacency cap; exact, and TooLarge when |U|*|V| exceeds
    MAX_PAIR_COUNT.  A row is a prefix (its first d-1 coordinates) and a
    last coordinate, so u . v = alpha . beta + x * y.
    Rows are grouped by prefix, alpha . beta is taken once per pair of
    groups, and T[g, i, c] = #{y in right group g : x_i * y = c} is
    tabled for the distinct left values x_i; a left row then adds
    T[g, i, -alpha . beta] over the right groups.  When that table and
    the group pairs would outnumber the |U|*|V| pairs themselves, the
    pairs are tested one by one instead.  Temporaries are chunked to
    _CHUNK_CELLS cells, or to one right group's table when that is larger.
    """
    nl, nr = len(left_rows), len(right_rows)
    if nl == 0 or nr == 0:
        return 0
    if nl * nr > MAX_PAIR_COUNT:
        raise TooLarge(f"{nl * nr} pairs exceed cap {MAX_PAIR_COUNT}")
    left = np.asarray(left_rows, dtype=np.int64)
    right = np.asarray(right_rows, dtype=np.int64)
    size = ring.size
    l_keys, r_keys = _row_keys(ring, left[:, :-1]), _row_keys(ring, right[:, :-1])
    # the group counts alone decide, so a call that falls back builds no grouping
    l_uniq, r_uniq, xs = (_sorted_distinct(k) for k in (l_keys, r_keys, left[:, -1]))
    n_gl, n_gr, nx = len(l_uniq), len(r_uniq), len(xs)
    if n_gr * (nx * size + n_gl) >= nl * nr:
        total = 0
        step = max(1, _CHUNK_CELLS // nr)
        for lo in range(0, nl, step):
            block = _dot_zero_block(ring, left[lo : lo + step], right)
            total += int(block.sum(dtype=np.int64))
        return total

    l_group, r_group = np.searchsorted(l_uniq, l_keys), np.searchsorted(r_uniq, r_keys)
    x_idx = np.searchsorted(xs, left[:, -1])
    # left rows with the same (prefix group, x) add the same count
    combo, mult = np.unique(l_group * nx + x_idx, return_counts=True)
    c_group, c_x = combo // nx, combo % nx
    # one row per group: any will do, since the rows of a group share their prefix
    l_rep, r_rep = np.empty(n_gl, dtype=np.int64), np.empty(n_gr, dtype=np.int64)
    l_rep[l_group], r_rep[r_group] = np.arange(nl), np.arange(nr)
    l_prefix, r_prefix = left[l_rep, :-1], right[r_rep, :-1]
    order = np.argsort(r_group, kind="stable")
    rg, ry = r_group[order], right[order, -1]
    group_start = np.searchsorted(rg, np.arange(n_gr + 1))
    row_step = max(1, _CHUNK_CELLS // nx)
    group_step = max(1, _CHUNK_CELLS // (nx * size + n_gl))
    x_col = np.arange(nx)[:, None]
    total = 0
    lo = 0
    while lo < nr:
        # right rows lo..hi, sorted by group, span groups g0..g0+span-1
        g0 = int(rg[lo])
        hi = min(lo + row_step, int(group_start[min(g0 + group_step, n_gr)]))
        span = int(rg[hi - 1]) - g0 + 1
        cells = ((rg[lo:hi] - g0) * nx + x_col) * size + ring.mul_many(xs[:, None], ry[lo:hi])
        table = np.bincount(cells.reshape(-1), minlength=span * nx * size)
        # flat table positions of (g, 0, -alpha . beta) per left group
        need = ring.neg_many(_dot_block(ring, l_prefix, r_prefix[g0 : g0 + span]))
        need += np.arange(span) * (nx * size)
        k_step = max(1, _CHUNK_CELLS // span)
        for k in range(0, len(combo), k_step):
            at = need[c_group[k : k + k_step]]
            at += (c_x[k : k + k_step] * size)[:, None]
            hits = np.take(table, at).sum(axis=1, dtype=np.int64)
            total += int(hits @ mult[k : k + k_step])
        lo = hi
    return total


# -- mixing --------------------------------------------------------------------


def mixing_random_pairs(graph: OrthGraph, trials: int, seed: int) -> dict:
    """Mixing inequality on seeded random subset pairs, batched.

    Trials are drawn in order and evaluated in chunks of at most
    _CHUNK_CELLS indicator cells per side, so memory stays bounded
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
    step = max(1, _CHUNK_CELLS // n)
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


class EmbeddedSets:
    """Two vertex-class lists whose edge count equals a set statistic."""

    def __init__(
        self,
        ring: Ring,
        n: int,
        d: int,
        u_rows: Optional[np.ndarray],
        v_rows: Optional[np.ndarray],
        u_count: int,
        v_count: int,
    ):
        self.ring = ring
        self.n = n
        self.d = d
        self.u_rows = u_rows
        self.v_rows = v_rows
        self.u_count = u_count
        self.v_count = v_count

    @property
    def audit(self) -> str:
        """Return "ok" when both sides were built (building checks
        injectivity), "skipped" when the size cap left them out."""
        return "ok" if self.u_rows is not None else "skipped"

    def __repr__(self) -> str:
        return (
            f"EmbeddedSets(d={self.d}, |U|={self.u_count}, |V|={self.v_count}, "
            f"audit={self.audit})"
        )


def _finish_side(ring: Ring, raw: np.ndarray, expect: int) -> np.ndarray:
    rows = canonicalize_rows(ring, raw)
    _, first = np.unique(_row_keys(ring, rows), return_index=True)
    rows = rows[first]
    if len(rows) != expect:
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
    ``signs[j]``.  The module docstring gives the coordinates.
    """
    ring = f.a.ring
    d = len(signs) + 2
    u_count = math.prod(len(b) for b in u_blocks)
    v_count = math.prod(len(b) for b in v_blocks)
    if max(u_count, v_count) > MAX_EMBED_SIZE:
        return EmbeddedSets(ring, f.n, d, None, None, u_count, v_count)

    u, v = _grid(u_blocks), _grid(v_blocks)
    u_cols = [
        ring.mul_many(np.int64(ring.from_int(-2 * s)), u[:, j]) for j, s in enumerate(signs)
    ]
    u_cols.append(ring.add_many(_signed_squares(ring, u, signs), u[:, -1]))
    u_cols.append(np.ones(len(u), dtype=np.int64))
    v_cols = [v[:, j] for j in range(len(signs))]
    v_cols.append(np.ones(len(v), dtype=np.int64))
    v_cols.append(ring.sub_many(_signed_squares(ring, v, signs), v[:, -1]))
    u_rows = _finish_side(ring, np.stack(u_cols, axis=1), u_count)
    v_rows = _finish_side(ring, np.stack(v_cols, axis=1), v_count)
    return EmbeddedSets(ring, f.n, d, u_rows, v_rows, u_count, v_count)


def _signed_squares(ring: Ring, cols: np.ndarray, signs: Sequence[int]) -> np.ndarray:
    """sum_j signs[j] * cols[:, j]**2 over the first len(signs) columns."""
    acc = np.zeros(len(cols), dtype=np.int64)
    for j, s in enumerate(signs):
        square = ring.mul_many(cols[:, j], cols[:, j])
        acc = ring.add_many(acc, square) if s > 0 else ring.sub_many(acc, square)
    return acc


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
