"""Size caps and shared tolerances."""

from __future__ import annotations

from dataclasses import dataclass, replace

# tolerance for all floating-point spectral comparisons
SPECTRAL_TOL = 1e-6

# Caps on the two cached objects: make_ring and build_graph key their caches on
# what they build, so these cannot vary per call; each is checked first.
MAX_RING_SIZE = 1 << 16  # largest ring cardinality q**r
MAX_GRAPH_CLASSES = 5000  # largest per-side class count of a dense biadjacency


@dataclass(frozen=True)
class Caps:
    """Per-call limits that keep dense computations inside memory/time budgets.

    spectral_cap        largest matrix side for dense SVD
    max_n               largest tuple-length parameter for counting
    max_tuple_count     largest number of tuples a counting fold may visit
    max_pair_count      largest |U|*|V| the direct edge count takes on (a route
                        cap: the grouped kernel visits far fewer cells)
    max_embed_size      largest embedded vertex-list length per side
    """

    spectral_cap: int = 5000
    max_n: int = 4
    max_tuple_count: int = 50_000_000
    max_pair_count: int = 30_000_000
    max_embed_size: int = 200_000

    def with_(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with task coordinates into a child seed.

    splitmix64-style finalizer; pure integer ops, so identical on every
    platform and independent of the order in which tasks run.
    """
    h = master & 0xFFFFFFFFFFFFFFFF
    for part in parts:
        h = (h + 0x9E3779B97F4A7C15 + (part & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = h ^ (h >> 31)
    return h
