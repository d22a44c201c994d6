"""Proof-chain replays, regime classification, ratio scans, and search.

The pipeline functions re-run the counting argument behind each growth
theorem on a concrete ring and set, asserting every exact step (lower
bound on the solution count, Cauchy-Schwarz, edge-count identities,
mixing inequality) and reporting the constant-bearing conclusions only
as ratios, since implied constants carry no testable content at desk
scale.  Asymptotically flavored steps degrade gracefully: when a dense
graph or a direct edge count is out of reach, the pipeline keeps whatever
inequality is still provable from the theoretical second singular value
and marks the rest skipped.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from statistics import median
from typing import Optional, Sequence

from .config import SPECTRAL_TOL, check_count, derive_seed
from .errors import BadSize, NotUnits, TooLarge
from .graph import (
    build_graph,
    class_count,
    class_degree,
    edge_count,
    embed_energy_sets,
    embed_solution_sets,
    lambda3_bound,
    pair_edge_count,
    spectrum,
)
from .ring import ElementFilter, Ring
from .sets import (
    ElementSet,
    fold_sets,
    form_value_histogram,
    restrict_to_units,
    sample_unit_subset,
    triple_product_sizes,
)

__all__ = [
    "PipelineReport",
    "RegimeVerdict",
    "verify_thm1_pipeline",
    "verify_thm2_pipeline",
    "check_square_halving",
    "classify_regime",
    "bound_ratio_scan",
    "extremal_search",
    "verify_hpv",
]


@dataclass
class PipelineReport:
    kind: str
    ring: str
    n: int
    d: int
    sizes: dict
    counts: dict
    embed: dict
    mixing: dict
    steps: dict
    ratio: dict
    hypothesis: Optional[dict]
    warnings: list
    hard_pass: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RegimeVerdict:
    regime: Optional[int]
    constants: dict
    thresholds: dict
    sizes: dict
    lhs: int
    rhs: Optional[float]
    ratio: Optional[float]
    hypothesis_met: bool
    empty_regimes: list

    def to_dict(self) -> dict:
        return asdict(self)


def _recommended_floor(ring: Ring) -> int:
    return 2 * ring.size // ring.q


def _prepare(a: ElementSet, warnings: list) -> ElementSet:
    floor = _recommended_floor(a.ring)
    if a.card < floor:
        warnings.append(
            f"|A| = {a.card} is below the recommended floor 2*q^(r-1) = {floor}"
        )
    restricted = restrict_to_units(a)
    if not restricted.card:
        raise NotUnits(f"A has no unit of {a.ring.descriptor} left to count")
    if restricted.card < a.card:
        warnings.append(
            f"dropped {a.card - restricted.card} non-unit elements before counting"
        )
    return restricted


def _edge_route(ring: Ring, d: int, emb) -> dict:
    """Resolve e(U, V) by the best available route and price the mixing bound.

    The routes are tried in order, each refusing with TooLarge past its
    own cap: the dense graph, then the direct pair count, else bound-only.
    A skipped embedding has no rows and goes straight to bound-only.
    The graph route reads sigma_2 from the graph's spectrum; the others
    take the closed-form bound.
    """
    n_cls = class_count(ring, d)
    deg = class_degree(ring, d)
    edges = None
    mode = "bound-only"
    lam, kind = lambda3_bound(ring, d), "theoretical"
    if emb.u_rows is not None:
        try:
            g = build_graph(ring, d)
        except TooLarge:
            try:
                edges = pair_edge_count(ring, emb.u_rows, emb.v_rows)
                mode = "direct"
            except TooLarge:
                pass
        else:
            edges = edge_count(g, g.index_of(emb.u_rows), g.index_of(emb.v_rows))
            lam, kind = float(spectrum(g)[1]), "computed"
            mode = "graph"
    pair_geom = math.sqrt(emb.u_count * emb.v_count)
    main = deg * emb.u_count * emb.v_count / n_cls
    return {
        "classes_per_side": n_cls,
        "degree": deg,
        "edges": edges,
        "mode": mode,
        "lambda3": lam,
        "lambda3_kind": kind,
        "main_term": main,
        "edge_bound": main + lam * pair_geom,
    }


def _step(passed: Optional[bool], mode: str, detail: str) -> dict:
    return {"passed": passed, "mode": mode, "detail": detail}


def _replay(kind: str, a_in: ElementSet, n: int) -> PipelineReport:
    """The counting argument both theorems share, for one statistic.

    thm1 bounds the solution count N in dimension n + 1; thm2 bounds the
    collision energy E in dimension 2n and adds Cauchy-Schwarz.  Either
    statistic is embedded as e(U, V) in the orthogonality graph, which
    is priced by the best available route and held against the mixing
    bound.  The sets A+A, A^2 and nA^2 are built once, after n is
    checked, and shared by the fold and the embedding.  The embedding
    and counting functions are looked up when the replay runs, not bound
    when the module loads, so a wrapper installed on the module
    attribute sees every call.
    """
    ring = a_in.ring
    q, r = ring.q, ring.r
    warnings: list = []
    a = _prepare(a_in, warnings)
    f = fold_sets(a, n)
    k, s, sq, tgt = a.card, f.plus, f.sq, f.target
    sizes = {
        "a": a_in.card,
        "a_units": k,
        "a_plus_a": s.card,
        "a_sq": sq.card,
        "n_a_sq": tgt.card,
    }

    # one fold gives N (tuples valued in nA^2) and E (int64-exact, see form_energy)
    hist = form_value_histogram(f)
    sol = int(hist[tgt.mask()].sum())
    lower = sq.card * k ** (2 * n - 2)
    steps = {
        "solution_lower_bound": _step(
            sol >= lower, "exact", f"N = {sol} >= |A^2|*|A|^(2n-2) = {lower}"
        )
    }
    if kind == "thm1":
        d, name, sym = n + 1, "solutions", "N"
        stat, energy, hypothesis = sol, None, None
        embed = embed_solution_sets
        rhs = min(
            q ** (r / n) * k ** ((n - 1) / n),
            k ** ((3 * n - 2) / n) / q ** ((n - 1) * (2 * r - 1) / n),
        )
    else:
        d, name, sym = 2 * n, "energy", "E"
        stat = energy = int(hist @ hist)
        steps["cauchy_schwarz"] = _step(
            sol * sol <= tgt.card * energy,
            "exact",
            f"N^2 = {sol * sol} vs |nA^2|*E = {tgt.card * energy}",
        )
        embed = embed_energy_sets
        rhs = q ** (r / (2 * n - 1)) * k ** ((2 * n - 2) / (2 * n - 1))
        hyp_lhs = s.card ** (n - 1) * k**n
        hyp_rhs = q ** (r + (n - 1) * (2 * r - 1))
        hypothesis = {"lhs": hyp_lhs, "rhs": hyp_rhs, "met": hyp_lhs >= hyp_rhs}
    counts = {
        "solutions": sol,
        "energy": energy,
        "solution_density": sol / k ** (2 * n - 1),
    }

    emb = embed(f)
    route = _edge_route(ring, d, emb)
    edges, bound = route["edges"], route["edge_bound"]
    if edges is not None:
        steps[f"{name}_le_edges"] = _step(
            stat <= edges, "exact", f"{sym} = {stat} vs e(U,V) = {edges}"
        )
        steps["edges_le_mixing_bound"] = _step(
            edges <= bound + SPECTRAL_TOL,
            "exact",
            f"e(U,V) = {edges} vs bound = {bound:.6f}",
        )
    else:
        steps[f"{name}_le_edges"] = _step(None, "skipped", "no edge count available")
        steps[f"{name}_le_mixing_bound"] = _step(
            stat <= bound + SPECTRAL_TOL,
            "bound-only",
            f"{sym} = {stat} vs bound = {bound:.6f}",
        )

    lhs = max(tgt.card, s.card)
    hard = all(st["passed"] for st in steps.values() if st["passed"] is not None)
    return PipelineReport(
        kind=kind,
        ring=ring.descriptor,
        n=n,
        d=d,
        sizes=sizes,
        counts=counts,
        embed={
            "u_size": emb.u_count,
            "v_size": emb.v_count,
            "audit": emb.audit,
            **route,
        },
        mixing={
            key: route[key] for key in ("main_term", "lambda3", "lambda3_kind", "edge_bound")
        },
        steps=steps,
        ratio={"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs},
        hypothesis=hypothesis,
        warnings=warnings,
        hard_pass=hard,
    )


def verify_thm1_pipeline(a_in: ElementSet, n: int) -> PipelineReport:
    """Replay the solution-count argument in dimension n + 1."""
    return _replay("thm1", a_in, n)


def verify_thm2_pipeline(a_in: ElementSet, n: int) -> PipelineReport:
    """Replay the energy argument in dimension 2n."""
    return _replay("thm2", a_in, n)


# -- square halving -------------------------------------------------------------


def check_square_halving(
    ring: Ring, exhaustive_limit: int, samples: int = 200, seed: int = 0
) -> dict:
    """Check |A|/2 <= |A^2| <= |A| over unit subsets, plus the fiber audit.

    Subsets of size up to ``exhaustive_limit`` are enumerated, larger
    sizes are sampled.  The two-to-one structure is verified first: the
    preimage of each unit square is exactly a pair {y, -y}.
    """
    units = [int(u) for u in ring.indices(ElementFilter.UNITS)]
    sq_of = {u: ring.mul(u, u) for u in units}
    fibers: dict = {}
    for u in units:
        fibers.setdefault(sq_of[u], set()).add(u)
    fiber_ok = all(
        fib == {y, ring.neg(y)} and len(fib) == 2
        for v, fib in fibers.items()
        for y in [next(iter(fib))]
    )

    violations = []
    checked_exhaustive = 0
    checked_sampled = 0

    def check(subset) -> None:
        card = len(subset)
        sq_card = len({sq_of[u] for u in subset})
        if not (2 * sq_card >= card and sq_card <= card):
            violations.append({"set": sorted(subset), "sq_card": sq_card})

    top = min(exhaustive_limit, len(units))
    for size in range(1, top + 1):
        for combo in combinations(units, size):
            check(combo)
            checked_exhaustive += 1
    rng = random.Random(seed)
    for size in range(top + 1, len(units) + 1):
        for _ in range(samples):
            check(rng.sample(units, size))
            checked_sampled += 1

    return {
        "ring": ring.descriptor,
        "exhaustive_limit": exhaustive_limit,
        "checked_exhaustive": checked_exhaustive,
        "checked_sampled": checked_sampled,
        "fiber_ok": fiber_ok,
        "violations": violations,
        "passed": fiber_ok and not violations,
    }


# -- regime classification --------------------------------------------------------


def _exact_thresholds(q: int, r: int, constants: Sequence[float]) -> tuple:
    """x * |x|**23 for the thresholds x = c1*q^(r-1/3), c2*q^(r-3/8), 2q^(r-1).

    These are rationals and increase with x, so they compare exactly with
    each other and with |A|**24, where the float thresholds can miss by an ulp.
    """
    c1, c2 = Fraction(constants[0]), Fraction(constants[1])
    pairs = ((c1, 24 * r - 8), (c2, 24 * r - 9), (Fraction(2), 24 * r - 24))
    return tuple(c**23 * abs(c) * q**e for c, e in pairs)


def _regime_core(
    q: int, r: int, size: int, aa_card: int, constants: Sequence[float]
) -> tuple[Optional[int], dict, bool, Optional[float]]:
    """The cascade, compared exactly; the float thresholds are for display."""
    c1, c2, c3 = constants
    floor = 2 * q ** (r - 1)
    thresholds = {
        "regime1_min_size": c1 * q ** (r - 1 / 3),
        "regime2_min_size": c2 * q ** (r - 3 / 8),
        "regime3_min_size": float(floor),
        "hypothesis_rhs": c3 * q ** (3 * r - 1),
    }
    for name, value in thresholds.items():
        if not math.isfinite(value):
            raise TooLarge(f"{name} is {value}: the constants overflow a float")
    hyp = aa_card * size**2 >= Fraction(c3) * q ** (3 * r - 1)
    t1, t2, _ = _exact_thresholds(q, r, constants)
    if size**24 >= t1:
        return 1, thresholds, hyp, q ** (r / 2) * math.sqrt(size)
    if size**24 >= t2:
        return 2, thresholds, hyp, size**2 / q ** ((2 * r - 1) / 2)
    if size >= floor and hyp:
        return 3, thresholds, hyp, q ** (r / 3) * size ** (2 / 3)
    return None, thresholds, hyp, None


def classify_regime(
    a: ElementSet, constants: Sequence[float] = (1.0, 1.0, 1.0)
) -> RegimeVerdict:
    """Assign the growth regime by applying the threshold cascade literally.

    Regime 1 requires |A| >= c1*q^(r-1/3); regime 2 requires
    |A| >= c2*q^(r-3/8); regime 3 requires |A| >= 2q^(r-1) together with
    |A+A|*|A|^2 >= c3*q^(3r-1).  The first band that matches (top down)
    wins.  Bands that are empty for this ring's parameters are reported
    rather than adjusted.
    """
    q, r = a.ring.q, a.ring.r
    f = fold_sets(a, 2)
    aa, sq2 = f.plus, f.target
    lhs = max(aa.card, sq2.card)
    regime, thresholds, hyp, rhs = _regime_core(q, r, a.card, aa.card, constants)
    t1, t2, t3 = _exact_thresholds(q, r, constants)
    empty = []
    if t2 >= t1:
        empty.append(2)
    if t3 >= t2:
        empty.append(3)
    return RegimeVerdict(
        regime=regime,
        constants={"c1": constants[0], "c2": constants[1], "c3": constants[2]},
        thresholds=thresholds,
        sizes={"a": a.card, "a_plus_a": aa.card, "sq_plus_sq": sq2.card},
        lhs=lhs,
        rhs=rhs,
        ratio=(lhs / rhs) if rhs else None,
        hypothesis_met=hyp,
        empty_regimes=empty,
    )


# -- scans and search --------------------------------------------------------------


def _scan_trial(ring: Ring, k: int, child_seed: int, constants: Sequence[float]) -> dict:
    f = fold_sets(sample_unit_subset(ring, k, child_seed), 2)
    aa, sq2 = f.plus, f.target
    lhs = max(aa.card, sq2.card)
    q, r = ring.q, ring.r
    rhs1 = min(q ** (r / 2) * math.sqrt(k), k**2 / q ** ((2 * r - 1) / 2))
    rhs2 = q ** (r / 3) * k ** (2 / 3)
    regime, _, hyp, _ = _regime_core(q, r, k, aa.card, constants)
    return {
        "k": k,
        "lhs": lhs,
        "aa": aa.card,
        "sq2": sq2.card,
        "thm1": lhs / rhs1,
        "thm2": lhs / rhs2,
        "regime": regime,
        "hyp": hyp,
    }


def bound_ratio_scan(
    ring: Ring,
    sizes: Sequence[int],
    trials: int,
    seed: int,
    constants: Sequence[float] = (1.0, 1.0, 1.0),
) -> dict:
    """Sample unit subsets at each size; tabulate LHS/RHS ratios per theorem.

    Deterministic in (ring, sizes, trials, seed, constants): each trial
    draws its set from its own child seed, derived from the master seed
    and the trial's (size, trial) coordinates.
    """
    check_count("trials", trials, 1)
    unit_total = ring.unit_count
    for k in sizes:
        if not 1 <= k <= unit_total:
            raise BadSize(f"size {k} outside [1, {unit_total}] for {ring.descriptor}")

    rows = []
    for si, k in enumerate(sizes):
        per = [
            _scan_trial(ring, k, derive_seed(seed, si, t), constants)
            for t in range(trials)
        ]
        regimes = {"1": 0, "2": 0, "3": 0, "none": 0}
        for rec in per:
            regimes[str(rec["regime"]) if rec["regime"] else "none"] += 1
        base = {
            "size": k,
            "trials": trials,
            "lhs_min": min(r_["lhs"] for r_ in per),
            "lhs_max": max(r_["lhs"] for r_ in per),
            "regime_counts": regimes,
            "hypothesis_met": sum(1 for r_ in per if r_["hyp"]),
        }
        for theorem in ("thm1", "thm2"):
            ratios = sorted(r_[theorem] for r_ in per)
            rows.append(
                {
                    **base,
                    "theorem": theorem,
                    "ratio_min": ratios[0],
                    "ratio_median": median(ratios),
                    "ratio_max": ratios[-1],
                }
            )
    return {
        "kind": "ratio_scan",
        "ring": ring.descriptor,
        "sizes": list(sizes),
        "trials": trials,
        "seed": seed,
        "constants": list(constants),
        "rows": rows,
    }


def _objective(ring: Ring, members: Sequence[int]) -> int:
    f = fold_sets(ElementSet.from_indices(ring, members), 2)
    return max(f.plus.card, f.target.card)


# each restart chain gets at most this many swaps of the iteration budget
_CHAIN_LEN = 250
# a chain ends early after this many swaps in a row without a strict gain
_STALL_CAP = 60


def _search_chain(
    ring: Ring, units: Sequence[int], k: int, budget: int, chain_seed: int
) -> tuple[int, list, list]:
    rng = random.Random(chain_seed)
    cur = sorted(rng.sample(list(units), k))
    cur_obj = _objective(ring, cur)
    best, best_obj = list(cur), cur_obj
    trace = [best_obj]
    stall = 0
    pool = set(units)
    for _ in range(budget):
        outs = sorted(pool - set(cur))
        if not outs:
            break
        swap_out = rng.choice(cur)
        swap_in = rng.choice(outs)
        cand = sorted([x for x in cur if x != swap_out] + [swap_in])
        cand_obj = _objective(ring, cand)
        if cand_obj <= cur_obj:
            stall = stall + 1 if cand_obj == cur_obj else 0
            cur, cur_obj = cand, cand_obj
            if cand_obj < best_obj:
                best, best_obj = list(cand), cand_obj
        else:
            stall += 1
        trace.append(best_obj)
        if stall >= _STALL_CAP:
            break
    return best_obj, best, trace


def extremal_search(ring: Ring, k: int, iters: int, seed: int) -> dict:
    """Hill-climb for unit k-subsets minimizing max{|A+A|, |A^2+A^2|}.

    The iteration budget is split into independent restart chains, run
    one after another, each from a fresh random start drawn from its own
    child seed; a chain also ends early once it plateaus.  Swaps that do
    not increase the objective are accepted.  The reported trace is the
    best objective so far in chain order, hence non-increasing.
    """
    check_count("iters", iters, 0)
    units = [int(u) for u in ring.indices(ElementFilter.UNITS)]
    if not 1 <= k <= len(units):
        raise BadSize(f"size {k} outside [1, {len(units)}] for {ring.descriptor}")
    if k == len(units):
        obj = _objective(ring, units)
        return {
            "kind": "extremal_search",
            "ring": ring.descriptor,
            "k": k,
            "iters": 0,
            "seed": seed,
            "chains": 0,
            "best_set": units,
            "best_objective": obj,
            "start_objective": obj,
            "trace": [obj],
        }
    n_chains = max(1, math.ceil(iters / _CHAIN_LEN))
    budgets = [min(_CHAIN_LEN, iters - i * _CHAIN_LEN) for i in range(n_chains)]
    chains = [
        _search_chain(ring, units, k, budgets[i], derive_seed(seed, i))
        for i in range(n_chains)
    ]

    trace: list = []
    best_obj, best_set = None, None
    for obj, members, chain_trace in chains:
        for v in chain_trace:
            trace.append(v if not trace else min(trace[-1], v))
        if best_obj is None or obj < best_obj:
            best_obj, best_set = obj, members
    return {
        "kind": "extremal_search",
        "ring": ring.descriptor,
        "k": k,
        "iters": iters,
        "seed": seed,
        "chains": n_chains,
        "best_set": best_set,
        "best_objective": best_obj,
        "start_objective": chains[0][2][0],
        "trace": trace,
    }


def verify_hpv(a: ElementSet, b: ElementSet, c: ElementSet) -> dict:
    """Ratio report for the two product-growth inequalities (m = 1 case).

    Both variants share the right-hand side min{q^r*|B|,
    |A|*|B|^2*|C|/q^(2r-1)}; the additive one pairs |A.B| with |B+C|,
    the multiplicative one with |B.C|.  Nothing is asserted: implied
    constants are unknown, so only the ratios carry information.
    """
    ab, bc, b_plus_c = triple_product_sizes(a, b, c)
    ring = a.ring
    q, r = ring.q, ring.r
    rhs = min(q**r * b.card, a.card * b.card**2 * c.card / q ** (2 * r - 1))
    additive = ab * b_plus_c
    multiplicative = ab * bc
    return {
        "kind": "hpv",
        "ring": ring.descriptor,
        "m": 1,
        "sizes": {
            "a": a.card,
            "b": b.card,
            "c": c.card,
            "ab": ab,
            "bc": bc,
            "b_plus_c": b_plus_c,
        },
        "rhs": rhs,
        "additive": {
            "lhs": additive,
            "ratio": (additive / rhs) if rhs > 0 else None,
        },
        "multiplicative": {
            "lhs": multiplicative,
            "ratio": (multiplicative / rhs) if rhs > 0 else None,
        },
    }
