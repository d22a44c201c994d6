"""Size caps and shared tolerances."""

from __future__ import annotations

from .errors import BadSize

# tolerance for all floating-point spectral comparisons
SPECTRAL_TOL = 1e-6

# most cells one chunk of a chunked pass holds (sets.py, graph.py): it bounds
# their temporaries and changes no result
CHUNK_CELLS = 4_000_000

# Size caps, each compared in the module named beside it; none is set per call.
# make_ring and build_graph key their caches on what they build.
MAX_RING_SIZE = 1 << 16  # largest ring cardinality q**r (ring.py)
MAX_GRAPH_CLASSES = 5000  # largest per-side class count of a dense graph and its SVD (graph.py)
MAX_N = 4  # largest tuple-length parameter n of the fold (sets.py)
# most support pairs one pass of the fold visits (sets.py), and most subset
# element visits of check_square_halving (verify.py)
MAX_FOLD_CELLS = 50_000_000
# largest |U|*|V| the direct edge count takes on, a route cap: the split
# kernel visits far fewer cells (graph.py)
MAX_PAIR_COUNT = 30_000_000
MAX_EMBED_SIZE = 200_000  # largest embedded vertex-list length per side (graph.py)
# largest trial or iteration count of mixing, scan and search, and largest
# exhaustive_limit and samples of check_square_halving (verify.py)
MAX_TRIALS = 100_000


def check_count(name: str, value: int, low: int) -> None:
    """Raise BadSize unless low <= value <= MAX_TRIALS; call before allocating."""
    if not low <= value <= MAX_TRIALS:
        raise BadSize(f"need {low} <= {name} <= {MAX_TRIALS}, got {value}")


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
