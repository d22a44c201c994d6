"""Proof-chain replays, regime classification, ratio scans, and search.

The pipeline functions re-run the counting argument behind each growth
theorem on a concrete ring and set, asserting every exact step (lower
bound on the solution count, Cauchy-Schwarz, edge-count identities,
mixing inequality) and reporting the constant-bearing conclusions only
as ratios, since implied constants carry no testable content at desk
scale.  Asymptotically flavored steps degrade gracefully: when a dense
graph or a direct edge count is out of reach, the pipeline keeps whatever
inequality is still provable from the theoretical second singular value
and marks the rest skipped.  Each of the paper's bounds is written once:
the right-hand sides and thm2's hypothesis bound in ``_growth_bounds``,
the hypothesis test in ``_hypothesis`` and the floor 2q^(r-1) in
``_floor``.  The replays, ``classify_regime`` and ``bound_ratio_scan`` all
read them, so they report the same float for the same bound.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from statistics import median
from typing import NamedTuple, Optional, Sequence

from .config import MAX_FOLD_CELLS, SPECTRAL_TOL, check_count, derive_seed
from .errors import BadSize, NotUnits, TooLarge, ValringError
from .graph import (
    build_graph,
    class_count,
    class_degree,
    edge_route,
    embed_energy_sets,
    embed_solution_sets,
    lambda3_bound,
    pair_edge_count,
    spectrum,
)
from .ring import Ring
from .sets import (
    ElementSet,
    check_fold_cells,
    fold_sets,
    form_value_histogram,
    histogram_energy,
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
    "check_sizes",
    "extremal_search",
    "verify_hpv",
]


class PipelineReport(NamedTuple):
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


class RegimeVerdict(NamedTuple):
    regime: Optional[int]
    constants: dict
    thresholds: dict
    sizes: dict
    lhs: int
    rhs: Optional[float]
    ratio: Optional[float]
    hypothesis_met: bool
    empty_regimes: list


def _growth_bounds(q: int, r: int, k: int, n: int) -> tuple:
    """thm1's two terms, thm2's right-hand side and thm2's hypothesis bound
    q^(r+(n-1)(2r-1)) on |A+A|^(n-1)*|A|^n, for |A| = k in dimension n."""
    return (
        q ** (r / n) * k ** ((n - 1) / n),
        k ** ((3 * n - 2) / n) / q ** ((n - 1) * (2 * r - 1) / n),
        q ** (r / (2 * n - 1)) * k ** ((2 * n - 2) / (2 * n - 1)),
        q ** (r + (n - 1) * (2 * r - 1)),
    )


def _hypothesis(aa_card: int, k: int, n: int, rhs: int, c3: float = 1.0) -> dict:
    lhs = aa_card ** (n - 1) * k**n
    return {"lhs": lhs, "rhs": rhs, "met": lhs >= Fraction(c3) * rhs}


def _floor(ring: Ring) -> int:
    """2q^(r-1): regime 3's least |A|, and the size below which a replay warns."""
    return 2 * ring.q ** (ring.r - 1)


def _prepare(a: ElementSet, warnings: list) -> ElementSet:
    floor = _floor(a.ring)
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
    """Count e(U, V) off bound-only and price the mixing bound on ``edge_route``'s route."""
    n_cls = class_count(ring, d)
    deg = class_degree(ring, d)
    mode = edge_route(ring, d, emb.u_count, emb.v_count)
    edges = None if mode == "bound-only" else pair_edge_count(ring, emb.u_rows, emb.v_rows)
    lam, kind = lambda3_bound(ring, d), "theoretical"
    if mode == "graph":
        lam, kind = float(spectrum(build_graph(ring, d))[1]), "computed"
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
    t1, t2, t3, hyp_rhs = _growth_bounds(q, r, k, n)
    sizes = {
        "a": a_in.card,
        "a_units": k,
        "a_plus_a": s.card,
        "a_sq": sq.card,
        "n_a_sq": tgt.card,
    }

    # one fold gives N (tuples valued in nA^2) and E
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
        embed, rhs = embed_solution_sets, min(t1, t2)
    else:
        d, name, sym = 2 * n, "energy", "E"
        stat = energy = histogram_energy(hist)
        steps["cauchy_schwarz"] = _step(
            sol * sol <= tgt.card * energy,
            "exact",
            f"N^2 = {sol * sol} vs |nA^2|*E = {tgt.card * energy}",
        )
        embed, rhs = embed_energy_sets, t3
        hypothesis = _hypothesis(s.card, k, n, hyp_rhs)
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


def _check_halving_visits(u: int, top: int, samples: int) -> None:
    """Refuse past MAX_FOLD_CELLS element visits: sum k*C(u, k) over the
    enumerated sizes k <= top, plus ``samples`` draws of each larger size."""
    visits = samples * (u * (u + 1) - top * (top + 1)) // 2
    for k in range(1, top + 1):
        if visits > MAX_FOLD_CELLS:
            break
        visits += k * math.comb(u, k)
    if visits > MAX_FOLD_CELLS:
        raise TooLarge(f"at least {visits} element visits exceed cap {MAX_FOLD_CELLS}")


def check_square_halving(
    ring: Ring, exhaustive_limit: int, samples: int = 200, seed: int = 0
) -> dict:
    """Check |A|/2 <= |A^2| <= |A| over unit subsets, plus the fiber audit.

    Subsets of size up to ``exhaustive_limit`` are enumerated, larger
    sizes are sampled.  BadSize when either count is outside
    [0, MAX_TRIALS]; TooLarge, before any subset, when their element
    visits pass MAX_FOLD_CELLS.  The two-to-one structure is verified
    first: the preimage of each unit square is exactly a pair {y, -y}.
    """
    check_count("exhaustive_limit", exhaustive_limit, 0)
    check_count("samples", samples, 0)
    unit_idx = ElementSet.units(ring).indices()
    top = min(exhaustive_limit, len(unit_idx))
    _check_halving_visits(len(unit_idx), top, samples)
    units = unit_idx.tolist()
    sq_of = dict(zip(units, ring.mul_many(unit_idx, unit_idx).tolist()))
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


def classify_regime(
    a: ElementSet, constants: Sequence[float] = (1.0, 1.0, 1.0)
) -> RegimeVerdict:
    """Assign the growth regime by applying the threshold cascade literally.

    Regime 1 requires |A| >= c1*q^(r-1/3); regime 2 requires
    |A| >= c2*q^(r-3/8); regime 3 requires |A| >= 2q^(r-1) together with
    |A+A|*|A|^2 >= c3*q^(3r-1).  The first band that matches (top down)
    wins.  Bands that are empty for this ring's parameters are reported
    rather than adjusted.  The bands compare exactly; the float thresholds
    are for display.  Constants <= 0, which make bands vacuous, and ones
    that overflow a threshold are refused before A+A is built.  ``rhs`` is
    the n = 2 replay's term for the regime (thm1's first or second, or
    thm2's), so with the default constants it equals that replay's ``ratio.rhs``.
    """
    q, r, k = a.ring.q, a.ring.r, a.card
    if not all(c > 0 for c in constants):
        raise ValringError(f"constants must be positive, got {list(constants)}")
    c1, c2, c3 = constants
    floor = _floor(a.ring)
    t1, t2, t3, hyp_rhs = _growth_bounds(q, r, k, 2)
    thresholds = {
        "regime1_min_size": c1 * q ** (r - 1 / 3),
        "regime2_min_size": c2 * q ** (r - 3 / 8),
        "regime3_min_size": float(floor),
        "hypothesis_rhs": c3 * hyp_rhs,
    }
    for name, value in thresholds.items():
        if not math.isfinite(value):
            raise TooLarge(f"{name} is {value}: the constants overflow a float")
    # x**24 for each size threshold x > 0: rationals increasing with x, so
    # they compare exactly with each other and with |A|**24
    e1, e2, e3 = (
        c**24 * q**e
        for c, e in ((Fraction(c1), 24 * r - 8), (Fraction(c2), 24 * r - 9), (floor, 0))
    )
    f = fold_sets(a, 2)
    aa, sq2 = f.plus, f.target
    hyp = _hypothesis(aa.card, k, 2, hyp_rhs, c3)["met"]
    if k**24 >= e1:
        regime, rhs = 1, t1
    elif k**24 >= e2:
        regime, rhs = 2, t2
    elif k**24 >= e3 and hyp:
        regime, rhs = 3, t3
    else:
        regime, rhs = None, None
    lhs = max(aa.card, sq2.card)
    return RegimeVerdict(
        regime=regime,
        constants={"c1": c1, "c2": c2, "c3": c3},
        thresholds=thresholds,
        sizes={"a": k, "a_plus_a": aa.card, "sq_plus_sq": sq2.card},
        lhs=lhs,
        rhs=rhs,
        ratio=(lhs / rhs) if rhs else None,
        hypothesis_met=hyp,
        empty_regimes=[band for band, lo, hi in ((2, e2, e1), (3, e3, e2)) if lo >= hi],
    )


# -- scans and search --------------------------------------------------------------


def check_sizes(ring: Ring, sizes: Sequence[int], name: str, per_size: int) -> None:
    """Before any work: BadSize when len(sizes) * per_size (the ``name``
    count of each size) passes MAX_TRIALS or for a k outside [1, |units|],
    TooLarge if fold_sets refuses k*k."""
    check_count(f"len(sizes) * {name}", len(sizes) * per_size, 0)
    for k in sizes:
        if not 1 <= k <= ring.unit_count:
            raise BadSize(f"size {k} outside [1, {ring.unit_count}] for {ring.descriptor}")
        check_fold_cells(k * k)


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
    and the trial's (size, trial) coordinates.  Each set is classified by
    ``classify_regime``; its thm1 and thm2 ratios divide the verdict's
    ``lhs`` by the n = 2 replays' right-hand sides, so trial t of size
    index si has the ratios of those replays on
    ``sample_unit_subset(ring, k, derive_seed(seed, si, t))``.
    """
    check_count("trials", trials, 1)
    check_sizes(ring, sizes, "trials", trials)

    rows = []
    for si, k in enumerate(sizes):
        per = [
            classify_regime(sample_unit_subset(ring, k, derive_seed(seed, si, t)), constants)
            for t in range(trials)
        ]
        regimes = {"1": 0, "2": 0, "3": 0, "none": 0}
        for v in per:
            regimes[str(v.regime) if v.regime else "none"] += 1
        base = {
            "size": k,
            "trials": trials,
            "lhs_min": min(v.lhs for v in per),
            "lhs_max": max(v.lhs for v in per),
            "regime_counts": regimes,
            "hypothesis_met": sum(1 for v in per if v.hypothesis_met),
        }
        t1, t2, t3, _ = _growth_bounds(ring.q, ring.r, k, 2)
        for theorem, rhs in (("thm1", min(t1, t2)), ("thm2", t3)):
            ratios = sorted(v.lhs / rhs for v in per)
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
    check_sizes(ring, [k], "iters", iters)
    units = ElementSet.units(ring).indices().tolist()
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
