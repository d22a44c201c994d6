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
between two explicit class lists can still be counted directly in chunks.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .config import Caps, DEFAULT_CAPS, SPECTRAL_TOL
from .errors import (
    AllNonUnits,
    BadArity,
    BadIndex,
    BadSize,
    TooLarge,
    TooLargeForSpectrum,
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


def enumerate_classes(
    ring: Ring, d: int, max_classes: int = DEFAULT_CAPS.max_graph_classes
) -> np.ndarray:
    """All canonical representatives, rows sorted lexicographically."""
    expected = class_count(ring, d)
    if expected > max_classes:
        raise TooLarge(
            f"{expected} classes exceed cap {max_classes} for {ring.descriptor}, d={d}"
        )
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


def _dot_zero_block(ring: Ring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """uint8 matrix of [dot(left_i, right_j) == 0], chunk-friendly sizes only."""
    if ring.family.value == "zpr":
        # exact in int64: |dot| <= d * (size - 1)**2 < d * 2**32, since
        # size <= max_ring_size = 2**16; integer matmul does not go through BLAS
        left, right = np.asarray(left, np.int64), np.asarray(right, np.int64)
        return ((left @ right.T) % ring.size == 0).astype(np.uint8)
    acc = np.zeros((len(left), len(right)), dtype=np.int64)
    for k in range(left.shape[1]):
        prod = ring.mul_many(left[:, k : k + 1], right[:, k][None, :])
        acc = ring.add_many(acc, prod)
    return (acc == 0).astype(np.uint8)


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
        pows = (ring.size ** np.arange(d - 1, -1, -1, dtype=np.int64))
        self._enc_pows = pows
        self._enc_classes = classes @ pows  # ascending, since rows are lex sorted

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Vertex indices of canonical rows; raises BadIndex on misses."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        enc = rows @ self._enc_pows
        pos = np.searchsorted(self._enc_classes, enc)
        bad = (pos >= self.n_classes) | (self._enc_classes[np.minimum(pos, self.n_classes - 1)] != enc)
        if bad.any():
            raise BadIndex("row is not a canonical class representative")
        return pos

    def __repr__(self) -> str:
        return (
            f"OrthGraph({self.ring.descriptor}, d={self.d}, "
            f"classes={self.n_classes}, degree={self.degree})"
        )


@lru_cache(maxsize=32)
def build_graph(
    ring: Ring, d: int, max_classes: int = DEFAULT_CAPS.max_graph_classes
) -> OrthGraph:
    """Build (and cache) the dense graph, auditing biregularity."""
    classes = enumerate_classes(ring, d, max_classes)
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


def spectrum(
    graph: OrthGraph, spectral_cap: int = DEFAULT_CAPS.spectral_cap
) -> np.ndarray:
    """All singular values of the biadjacency, descending.  Cached."""
    if graph.n_classes > spectral_cap:
        raise TooLargeForSpectrum(
            f"{graph.n_classes} classes exceed spectral cap {spectral_cap}"
        )
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


def pair_edge_count(
    ring: Ring, left_rows: np.ndarray, right_rows: np.ndarray, caps: Caps = DEFAULT_CAPS
) -> int:
    """Count orthogonal pairs between two explicit class lists.

    Dense-graph-free route for rings whose class count exceeds the
    biadjacency cap; exact, chunked over the left rows.
    """
    nl, nr = len(left_rows), len(right_rows)
    if nl == 0 or nr == 0:
        return 0
    if nl * nr > caps.max_pair_count:
        raise TooLarge(f"{nl * nr} pairs exceed cap {caps.max_pair_count}")
    total = 0
    step = max(1, _CHUNK_CELLS // nr)
    for lo in range(0, nl, step):
        block = _dot_zero_block(ring, left_rows[lo : lo + step], right_rows)
        total += int(block.sum(dtype=np.int64))
    return total


# -- mixing --------------------------------------------------------------------


def resolve_lambda3(
    graph: OrthGraph,
    given: Optional[float] = None,
    spectral_cap: int = DEFAULT_CAPS.spectral_cap,
) -> tuple[float, str]:
    """Pick the tightest available sigma_2: given > computed > theoretical."""
    if given is not None:
        return float(given), "given"
    try:
        return float(spectrum(graph, spectral_cap)[1]), "computed"
    except TooLargeForSpectrum:
        return lambda3_bound(graph.ring, graph.d), "theoretical"


def mixing_random_pairs(
    graph: OrthGraph,
    trials: int,
    seed: int,
    lambda3: Optional[float] = None,
    spectral_cap: int = DEFAULT_CAPS.spectral_cap,
) -> dict:
    """Mixing inequality on seeded random subset pairs, batched.

    Trials are drawn in order and evaluated in chunks of at most
    _CHUNK_CELLS indicator cells per side, so memory stays bounded
    whatever the trial count.  Returns a summary with the number of
    violations (which the theorem says must be zero) and the worst
    residual/bound ratio observed.
    """
    if trials < 0:
        raise BadSize(f"need trials >= 0, got {trials}")
    n = graph.n_classes
    rng = random.Random(seed)
    lam, kind = resolve_lambda3(graph, lambda3, spectral_cap)
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
        "lambda3_kind": kind,
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
    rows = np.unique(rows, axis=0)
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
    caps: Caps,
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
    if max(u_count, v_count) > caps.max_embed_size:
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


def embed_solution_sets(f: FoldSets, caps: Caps = DEFAULT_CAPS) -> EmbeddedSets:
    """Vertex sets in dimension n+1 whose edge count is the solution count.

    U = (A+A)^{n-1} x A^2 and V = A^{n-1} x nA^2, all signs +1: a row
    pair is an edge exactly when x + sum (b_i - c_i)^2 = t lies in nA^2.
    """
    m = f.n - 1
    a, plus = f.a.indices(), f.plus.indices()
    return _embed_blocks(
        f, [plus] * m + [f.sq.indices()], [a] * m + [f.target.indices()], [1] * m, caps
    )


def embed_energy_sets(f: FoldSets, caps: Caps = DEFAULT_CAPS) -> EmbeddedSets:
    """Vertex sets in dimension 2n whose edge count is the collision energy.

    U = (A+A)^{n-1} x A^{n-1} x A^2 and V = A^{n-1} x (A+A)^{n-1} x A^2,
    signs +1 on the first n-1 blocks and -1 on the next n-1: a row pair
    is an edge exactly when the folded values x + sum (b_i - c_i)^2 and
    y + sum (e_i - d_i)^2 of two tuples agree, so e(U, V) is the energy.
    """
    m = f.n - 1
    a, plus, sq = f.a.indices(), f.plus.indices(), f.sq.indices()
    return _embed_blocks(
        f, [plus] * m + [a] * m + [sq], [a] * m + [plus] * m + [sq], [1] * m + [-1] * m, caps
    )
