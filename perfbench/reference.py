"""Reference checker: plain-Python integer arithmetic, apart from valring.

Rings are rebuilt from the index encoding documented in
`valring/ring.py`: an element of a ring of size q**r has z-adic digits
c_0 .. c_{r-1} in [0, q) and index sum(c_k * q**k).  For Z/p**r the
index is the residue itself.  For F_q[t]/(t**r) each digit is a field
element of F_p[x]/(m), written as the base-p numeral of its coefficient
vector (constant term least significant), where m is the smallest
monic irreducible of degree s: the first found when the non-leading
coefficients, read as a base-p numeral, are scanned upwards.

`check_op` recomputes what a payload claims and tests the properties
the method must have; it returns a list of error strings, empty when
the payload is right.  Nothing here imports numpy or valring.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

# valring's default caps (valring.config.Caps); the routes follow from them.
MAX_GRAPH_CLASSES = 5000
SPECTRAL_CAP = 5000
MAX_PAIR_COUNT = 30_000_000
MAX_EMBED_SIZE = 200_000
SPECTRAL_TOL = 1e-6

_MASK64 = (1 << 64) - 1


def _digits(n: int, base: int, width: int) -> list:
    return [(n // base**i) % base for i in range(width)]


def _poly_rem(a: list, m: list, p: int) -> list:
    """Remainder of a by the monic m over F_p, ascending coefficients."""
    rem = list(a)
    dm = len(m) - 1
    for top in range(len(rem) - 1, dm - 1, -1):
        lead = rem[top]
        if lead:
            for i, mi in enumerate(m):
                rem[top - dm + i] = (rem[top - dm + i] - lead * mi) % p
    rem = rem[:dm]
    return rem + [0] * (dm - len(rem))


def smallest_monic_irreducible(p: int, s: int) -> list:
    for enc in range(p**s):
        cand = _digits(enc, p, s) + [1]
        if all(
            any(_poly_rem(cand, _digits(e, p, deg) + [1], p))
            for deg in range(1, s // 2 + 1)
            for e in range(p**deg)
        ):
            return cand
    raise ValueError(f"no irreducible of degree {s} over F_{p}")


def _prime_power(q: int) -> tuple:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    s = 0
    while q % p == 0:
        q //= p
        s += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, s


def _params(spec: str) -> tuple:
    """(is Z/p**r, p, s, r) of a ring spec."""
    family, base, r = spec.split(":")
    zpr = family == "z"
    p, s = (int(base), 1) if zpr else _prime_power(int(base))
    return zpr, p, s, int(r)


class RefRing:
    """Z/p**r (`z:p:r`) or F_q[t]/(t**r) (`f:q:r`), on element indices."""

    def __init__(self, spec: str):
        self.zpr, self.p, self.s, self.r = _params(spec)
        self.q = self.p**self.s
        self.size = self.q**self.r
        if not self.zpr:
            self._build_tables()

    def _build_tables(self) -> None:
        p, s, q, r = self.p, self.s, self.q, self.r
        m = smallest_monic_irreducible(p, s) if s > 1 else [0, 1]
        vec = [_digits(x, p, s) for x in range(q)]
        enc = lambda v: sum(c * p**i for i, c in enumerate(v))  # noqa: E731
        fadd = [[enc([(a + b) % p for a, b in zip(vec[x], vec[y])]) for y in range(q)]
                for x in range(q)]
        fmul = [[0] * q for _ in range(q)]
        for x in range(q):
            for y in range(q):
                prod = [0] * (2 * s - 1)
                for i, a in enumerate(vec[x]):
                    for j, b in enumerate(vec[y]):
                        prod[i + j] = (prod[i + j] + a * b) % p
                fmul[x][y] = enc(_poly_rem(prod, m, p) if s > 1 else prod)
        fneg = [enc([(-c) % p for c in vec[x]]) for x in range(q)]
        dig = [_digits(a, q, r) for a in range(self.size)]
        join = lambda ds: sum(c * q**k for k, c in enumerate(ds))  # noqa: E731
        self._add = [[join([fadd[u][v] for u, v in zip(dig[a], dig[b])])
                      for b in range(self.size)] for a in range(self.size)]
        self._neg = [join([fneg[u] for u in dig[a]]) for a in range(self.size)]
        self._mul = []
        for a in range(self.size):
            row = []
            for b in range(self.size):
                out = [0] * r
                for i in range(r):
                    for j in range(r - i):
                        out[i + j] = fadd[out[i + j]][fmul[dig[a][i]][dig[b][j]]]
                row.append(join(out))
            self._mul.append(row)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.size if self.zpr else self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.size if self.zpr else self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.size if self.zpr else self._mul[a][b]

    def units(self) -> list:
        return [i for i in range(self.size) if i % self.q]

    def sumset(self, a, b) -> set:
        return {self.add(x, y) for x in a for y in b}

    def squares(self, a) -> set:
        return {self.mul(x, x) for x in a}


_RINGS: dict = {}


def ring(spec: str) -> RefRing:
    if spec not in _RINGS:
        _RINGS[spec] = RefRing(spec)
    return _RINGS[spec]


# -- closed forms --------------------------------------------------------------


def class_count(q: int, r: int, d: int) -> int:
    return q ** ((d - 1) * (r - 1)) * (q**d - 1) // (q - 1)


def class_degree(q: int, r: int, d: int) -> int:
    return q ** ((d - 2) * (r - 1)) * (q ** (d - 1) - 1) // (q - 1)


def lambda3_bound(q: int, r: int, d: int) -> float:
    return math.sqrt(q ** ((d - 2) * (2 * r - 1)))


def derive_seed(master: int, *parts: int) -> int:
    """The splitmix64 child-seed mixer documented in valring.config."""
    h = master & _MASK64
    for part in parts:
        h = (h + 0x9E3779B97F4A7C15 + (part & _MASK64)) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


# -- statistics ------------------------------------------------------------------


def form_stats(R: RefRing, a: list, n: int) -> dict:
    """Sizes, solution count N and energy E of the fold x + sum (b_i - c_i)^2."""
    s = R.sumset(a, a)
    sq = R.squares(a)
    target = set(sq)
    for _ in range(n - 1):
        target = R.sumset(target, sq)
    terms = Counter(R.mul(R.sub(b, c), R.sub(b, c)) for b in s for c in a)
    values = Counter(sq)
    for _ in range(n - 1):
        nxt: Counter = Counter()
        for v, mv in values.items():
            for t, mt in terms.items():
                nxt[R.add(v, t)] += mv * mt
        values = nxt
    return {
        "a_plus_a": len(s),
        "a_sq": len(sq),
        "n_a_sq": len(target),
        "solutions": sum(m for v, m in values.items() if v in target),
        "energy": sum(m * m for m in values.values()),
    }


def objective(R: RefRing, a) -> int:
    sq = R.squares(a)
    return max(len(R.sumset(a, a)), len(R.sumset(sq, sq)))


# -- checks ------------------------------------------------------------------------


def _opt(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1.0)


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: payload {got!r}, reference {want!r}")


def check_verify(argv: list, pl: dict) -> list:
    errors: list = []
    theorem = argv[1]
    R = ring(_opt(argv, "--ring"))
    n = int(_opt(argv, "--n"))
    a = sorted({int(t) for t in _opt(argv, "--set").split(",")})
    units = [x for x in a if x % R.q]
    st = form_stats(R, units, n)
    q, r = R.q, R.r
    _expect(errors, "kind", pl["kind"], theorem)
    d = n + 1 if theorem == "thm1" else 2 * n
    _expect(errors, "d", pl["d"], d)
    want_sizes = {"a": len(a), "a_units": len(units), "a_plus_a": st["a_plus_a"],
                  "a_sq": st["a_sq"], "n_a_sq": st["n_a_sq"]}
    _expect(errors, "sizes", pl["sizes"], want_sizes)
    _expect(errors, "solutions", pl["counts"]["solutions"], st["solutions"])
    _expect(errors, "energy", pl["counts"]["energy"],
            st["energy"] if theorem == "thm2" else None)

    emb = pl["embed"]
    k = len(units)
    if theorem == "thm1":
        u = st["a_plus_a"] ** (n - 1) * st["a_sq"]
        v = k ** (n - 1) * st["n_a_sq"]
    else:
        u = v = st["a_plus_a"] ** (n - 1) * k ** (n - 1) * st["a_sq"]
    classes = class_count(q, r, d)
    if max(u, v) > MAX_EMBED_SIZE:
        route = "bound-only"
    elif classes <= MAX_GRAPH_CLASSES:
        route = "graph"
    elif u * v <= MAX_PAIR_COUNT:
        route = "direct"
    else:
        route = "bound-only"
    _expect(errors, "route", emb["mode"], route)
    _expect(errors, "u_size", emb["u_size"], u)
    _expect(errors, "v_size", emb["v_size"], v)
    _expect(errors, "classes_per_side", emb["classes_per_side"], classes)
    _expect(errors, "degree", emb["degree"], class_degree(q, r, d))
    stat = st["solutions"] if theorem == "thm1" else st["energy"]
    _expect(errors, "edges", emb["edges"], stat if route != "bound-only" else None)
    bound = lambda3_bound(q, r, d)
    _expect(errors, "lambda3_kind", emb["lambda3_kind"],
            "computed" if route == "graph" else "theoretical")
    if emb["lambda3"] > bound + SPECTRAL_TOL:
        errors.append(f"lambda3 {emb['lambda3']} exceeds bound {bound}")
    if any(step["passed"] is False for step in pl["steps"].values()):
        errors.append("a step failed")
    _expect(errors, "hard_pass", pl["hard_pass"], True)
    return errors


def _check_graph_common(errors: list, argv: list, pl: dict):
    _, p, s, r = _params(_opt(argv, "--ring"))
    d = int(_opt(argv, "--d"))
    classes = class_count(p**s, r, d)
    _expect(errors, "classes_per_side", pl["classes_per_side"], classes)
    return p**s, r, d, classes


def check_spectrum(argv: list, pl: dict, extras: dict) -> list:
    errors: list = []
    q, r, d, classes = _check_graph_common(errors, argv, pl)
    degree = class_degree(q, r, d)
    bound = lambda3_bound(q, r, d)
    _expect(errors, "degree", pl["degree"], degree)
    if not _close(pl["lambda3_bound"], bound, 1e-12):
        errors.append(f"lambda3_bound {pl['lambda3_bound']} vs {bound}")
    if abs(pl["sigma1"] - degree) > SPECTRAL_TOL * degree:
        errors.append(f"sigma1 {pl['sigma1']} differs from degree {degree}")
    if pl["sigma2"] > bound + SPECTRAL_TOL:
        errors.append(f"sigma2 {pl['sigma2']} exceeds bound {bound}")
    if not (pl["sigma1_matches_degree"] and pl["sigma2_within_bound"]):
        errors.append("spectrum flags are not both true")
    sum_sq = extras.get("sum_sigma_sq")
    if sum_sq is None or not _close(sum_sq, classes * degree, 1e-9):
        errors.append(f"sum of sigma^2 {sum_sq} differs from classes*degree {classes * degree}")
    return errors


def check_mixing(argv: list, pl: dict) -> list:
    errors: list = []
    q, r, d, classes = _check_graph_common(errors, argv, pl)
    _expect(errors, "trials", pl["trials"], int(_opt(argv, "--trials")))
    _expect(errors, "seed", pl["seed"], int(_opt(argv, "--seed")))
    _expect(errors, "violations", pl["violations"], 0)
    _expect(errors, "lambda3_kind", pl["lambda3_kind"],
            "computed" if classes <= SPECTRAL_CAP else "theoretical")
    if pl["lambda3"] > lambda3_bound(q, r, d) + SPECTRAL_TOL:
        errors.append(f"lambda3 {pl['lambda3']} exceeds the closed-form bound")
    return errors


def check_search(argv: list, pl: dict) -> list:
    errors: list = []
    R = ring(_opt(argv, "--ring"))
    sizes = [int(t) for t in _opt(argv, "--sizes").split(",")]
    units = set(R.units())
    _expect(errors, "iters", pl["iters"], int(_opt(argv, "--iters")))
    _expect(errors, "run sizes", [run["k"] for run in pl["runs"]], sizes)
    for run in pl["runs"]:
        best = run["best_set"]
        if len(set(best)) != run["k"] or not set(best) <= units:
            errors.append(f"k={run['k']}: best_set is not {run['k']} distinct units")
            continue
        _expect(errors, f"k={run['k']} best_objective", run["best_objective"],
                objective(R, best))
        trace = run["trace"]
        if any(later > earlier for earlier, later in zip(trace, trace[1:])):
            errors.append(f"k={run['k']}: trace increases")
        _expect(errors, f"k={run['k']} trace start", trace[0], run["start_objective"])
        _expect(errors, f"k={run['k']} trace end", trace[-1], run["best_objective"])
        if run["best_objective"] > run["start_objective"]:
            errors.append(f"k={run['k']}: best objective above the start")
    return errors


def check_scan(argv: list, pl: dict) -> list:
    errors: list = []
    R = ring(_opt(argv, "--ring"))
    sizes = [int(t) for t in _opt(argv, "--sizes").split(",")]
    trials = int(_opt(argv, "--trials"))
    seed = int(_opt(argv, "--seed"))
    _expect(errors, "sanity_ok", pl["sanity_ok"], True)
    rows = pl["rows"]
    _expect(errors, "rows", [(row["size"], row["theorem"]) for row in rows],
            [(k, th) for k in sizes for th in ("thm1", "thm2")])
    if errors:
        return errors
    units = R.units()
    q, r = R.q, R.r
    for si, k in enumerate(sizes):
        # trial 0 of this size, drawn the way valring documents it
        a = random.Random(derive_seed(seed, si, 0)).sample(units, k)
        lhs = objective(R, a)
        ratios = {
            "thm1": lhs / min(q ** (r / 2) * math.sqrt(k), k**2 / q ** ((2 * r - 1) / 2)),
            "thm2": lhs / (q ** (r / 3) * k ** (2 / 3)),
        }
        for row in rows[2 * si: 2 * si + 2]:
            if not row["lhs_min"] <= lhs <= row["lhs_max"]:
                errors.append(f"size {k}: trial 0 lhs {lhs} outside the row's range")
            x = ratios[row["theorem"]]
            if not row["ratio_min"] * (1 - 1e-12) <= x <= row["ratio_max"] * (1 + 1e-12):
                errors.append(f"size {k} {row['theorem']}: trial 0 ratio outside the row's range")
            _expect(errors, f"size {k} trials", row["trials"], trials)
            _expect(errors, f"size {k} regime total", sum(row["regime_counts"].values()), trials)
    return errors


def check_op(argv: list, payload_text: str, extras: dict) -> list:
    """Errors found in one op's JSON payload (empty when it is right)."""
    try:
        pl = json.loads(payload_text)
    except ValueError as exc:
        return [f"payload is not JSON: {exc}"]
    if "error" in pl:
        return [f"program error: {pl['error']}"]
    command = " ".join(argv[:2])
    try:
        if command in ("verify thm1", "verify thm2"):
            return check_verify(argv, pl)
        if command == "graph spectrum":
            return check_spectrum(argv, pl, extras)
        if command == "graph mixing":
            return check_mixing(argv, pl)
        if command == "search extremal":
            return check_search(argv, pl)
        if command == "scan ratios":
            return check_scan(argv, pl)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"payload lacks a field: {exc!r}"]
    return [f"no reference check for {command!r}"]
