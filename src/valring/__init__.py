"""Exact arithmetic, orthogonality graphs, and sum-product growth
checks over finite valuation rings of odd residue characteristic."""

from .config import MAX_GRAPH_CLASSES, MAX_RING_SIZE, SPECTRAL_TOL, derive_seed
from .errors import (
    AllNonUnits,
    BadArity,
    BadFamilyCombo,
    BadIndex,
    BadSize,
    EvenPrime,
    NonPrime,
    NotAUnit,
    NotPrimePower,
    NotUnits,
    ParseError,
    RingMismatch,
    TooLarge,
    ValringError,
)
from .graph import (
    EmbeddedSets,
    OrthGraph,
    build_graph,
    canonicalize,
    canonicalize_rows,
    class_count,
    class_degree,
    edge_count,
    embed_energy_sets,
    embed_solution_sets,
    enumerate_classes,
    lambda3_bound,
    mixing_random_pairs,
    pair_edge_count,
    spectrum,
)
from .ring import Ring, RingFamily, make_ring
from .sets import (
    ElementSet,
    FoldSets,
    count_form_solutions,
    fold_sets,
    form_energy,
    form_tuple_count,
    form_value_histogram,
    iterated_sumset,
    productset,
    restrict_to_units,
    sample_unit_subset,
    square_set,
    sumset,
    triple_product_sizes,
)
from .verify import (
    PipelineReport,
    RegimeVerdict,
    bound_ratio_scan,
    check_square_halving,
    classify_regime,
    extremal_search,
    verify_hpv,
    verify_thm1_pipeline,
    verify_thm2_pipeline,
)

__version__ = "0.1.0"
