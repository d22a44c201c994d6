"""Command-line front end emitting deterministic JSON/CSV reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CAPS
from .errors import EvenCharacteristic, ParseError, ValringError
from .graph import build_graph, lambda3_bound, mixing_random_pairs, spectrum
from .ring import Ring, RingFamily, factor_prime_power, make_ring
from .sets import ElementSet, sample_unit_subset
from .verify import (
    bound_ratio_scan,
    classify_regime,
    extremal_search,
    verify_hpv,
    verify_thm1_pipeline,
    verify_thm2_pipeline,
)

__all__ = ["RunConfig", "parse_ring", "parse_set", "build_parser", "run", "main"]

SCHEMA_VERSION = 1


def parse_ring(text: str, max_size: Optional[int] = None) -> Ring:
    """Parse `z:<p>:<r>` or `f:<q>:<r>` into a validated ring."""
    parts = text.strip().lower().split(":")
    if len(parts) != 3 or parts[0] not in ("z", "f"):
        raise ParseError(f"ring spec {text!r} is not z:<p>:<r> or f:<q>:<r>")
    try:
        base, r = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"ring spec {text!r} has non-integer fields") from None
    if r < 1:
        raise ParseError(f"ring spec {text!r} needs r >= 1")
    if parts[0] == "z":
        return make_ring(base, 1, r, RingFamily.ZPR, max_size)
    p, s = factor_prime_power(base)
    if p == 2:
        raise EvenCharacteristic(f"residue field size {base} is even")
    return make_ring(p, s, r, RingFamily.FQTR, max_size)


def parse_set(ring: Ring, text: str) -> ElementSet:
    """Parse a set literal: `units`, `all`, `random:<size>:<seed>`, or indices."""
    text = text.strip().lower()
    if text == "units":
        return ElementSet.units(ring)
    if text == "all":
        return ElementSet.full(ring)
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"set literal {text!r} is not random:<size>:<seed>")
        try:
            size, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"set literal {text!r} has non-integer fields") from None
        return sample_unit_subset(ring, size, seed)
    try:
        indices = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ParseError(f"set literal {text!r} is not a comma-separated index list") from None
    if not indices:
        raise ParseError("empty set literal")
    return ElementSet.from_indices(ring, indices)


@dataclass(frozen=True)
class RunConfig:
    """One fully-parsed invocation; round-trips through `to_argv`."""

    command: str
    ring: str
    sets: tuple = ()
    n: int = 2
    d: int = 3
    k_sizes: tuple = ()
    seed: int = 0
    trials: int = 100
    iters: int = 200
    constants: tuple = (1.0, 1.0, 1.0)
    spectral_cap: int = DEFAULT_CAPS.spectral_cap
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if self.spectral_cap < 1:
            raise ParseError("caps must be positive")
        if not 0 <= self.seed < 2**64:
            raise ParseError("seed must fit in 64 bits")
        if not all(math.isfinite(c) for c in self.constants):
            raise ParseError("--constants must be finite numbers")

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        try:
            sizes = tuple(int(t) for t in ns.sizes.split(",")) if getattr(ns, "sizes", None) else ()
            constants = (
                tuple(float(t) for t in ns.constants.split(","))
                if getattr(ns, "constants", None)
                else (1.0, 1.0, 1.0)
            )
        except ValueError:
            raise ParseError("--sizes and --constants take comma-separated numbers") from None
        if len(constants) != 3:
            raise ParseError("--constants needs exactly c1,c2,c3")
        action = getattr(ns, "action", None)
        return cls(
            command=f"{ns.group} {action}" if action else ns.group,
            ring=ns.ring,
            sets=tuple(getattr(ns, "set", None) or ()),
            n=getattr(ns, "n", 2),
            d=getattr(ns, "d", 3),
            k_sizes=sizes,
            seed=getattr(ns, "seed", 0),
            trials=getattr(ns, "trials", 100),
            iters=getattr(ns, "iters", 200),
            constants=constants,
            spectral_cap=getattr(ns, "spectral_cap", DEFAULT_CAPS.spectral_cap),
            out=getattr(ns, "out", None),
            format=getattr(ns, "format", "json"),
        )

    def to_argv(self) -> list:
        argv = self.command.split()
        argv += ["--ring", self.ring]
        for s in self.sets:
            argv += ["--set", s]
        parts = self.command.split()
        group = parts[0]
        action = parts[1] if len(parts) > 1 else None
        if group == "verify" and action in ("thm1", "thm2"):
            argv += ["--n", str(self.n)]
        if group == "graph":
            argv += ["--d", str(self.d)]
        if self.k_sizes:
            argv += ["--sizes", ",".join(str(k) for k in self.k_sizes)]
        if self.command in ("graph mixing", "scan ratios", "search extremal"):
            argv += ["--seed", str(self.seed)]
        if self.command in ("graph mixing", "scan ratios"):
            argv += ["--trials", str(self.trials)]
        if self.command == "search extremal":
            argv += ["--iters", str(self.iters)]
        if self.command in ("scan ratios", "classify"):
            argv += ["--constants", ",".join(repr(c) for c in self.constants)]
        if group in ("graph", "verify") and action != "hpv":
            argv += ["--spectral-cap", str(self.spectral_cap)]
        if self.out:
            argv += ["--out", self.out]
        argv += ["--format", self.format]
        return argv

    def canonical(self) -> str:
        return " ".join(self.to_argv())


def _add_common(p: argparse.ArgumentParser, *, sets=False, n=False, d=False,
                seed=False, trials=None, sizes=False, iters=False,
                constants=False, spectral=False) -> None:
    p.add_argument("--ring", required=True, help="ring spec: z:<p>:<r> or f:<q>:<r>")
    if sets:
        p.add_argument("--set", action="append",
                       help="set literal: indices, units, all, random:<size>:<seed>")
    if n:
        p.add_argument("--n", type=int, default=2)
    if d:
        p.add_argument("--d", type=int, default=3)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials)
    if sizes:
        p.add_argument("--sizes", required=True, help="comma-separated subset sizes")
    if iters:
        p.add_argument("--iters", type=int, default=200)
    if constants:
        p.add_argument("--constants", default=None, help="c1,c2,c3 (default 1,1,1)")
    if spectral:
        p.add_argument("--spectral-cap", dest="spectral_cap", type=int,
                       default=DEFAULT_CAPS.spectral_cap)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="valring")
    groups = root.add_subparsers(dest="group", required=True)

    ring_g = groups.add_parser("ring").add_subparsers(dest="action", required=True)
    _add_common(ring_g.add_parser("info"))

    graph_g = groups.add_parser("graph").add_subparsers(dest="action", required=True)
    _add_common(graph_g.add_parser("build"), d=True, spectral=True)
    _add_common(graph_g.add_parser("spectrum"), d=True, spectral=True)
    _add_common(graph_g.add_parser("mixing"), d=True, seed=True, trials=100, spectral=True)

    verify_g = groups.add_parser("verify").add_subparsers(dest="action", required=True)
    _add_common(verify_g.add_parser("thm1"), sets=True, n=True, spectral=True)
    _add_common(verify_g.add_parser("thm2"), sets=True, n=True, spectral=True)
    _add_common(verify_g.add_parser("hpv"), sets=True)

    scan_g = groups.add_parser("scan").add_subparsers(dest="action", required=True)
    _add_common(scan_g.add_parser("ratios"), seed=True, trials=20, sizes=True, constants=True)

    classify_p = groups.add_parser("classify")
    _add_common(classify_p, sets=True, constants=True)

    search_g = groups.add_parser("search").add_subparsers(dest="action", required=True)
    _add_common(search_g.add_parser("extremal"), seed=True, sizes=True, iters=True)

    return root


# -- handlers (each returns (payload, hard_ok)) ---------------------------------


def _one_set(cfg: RunConfig, ring: Ring) -> ElementSet:
    if len(cfg.sets) != 1:
        raise ParseError(f"{cfg.command} needs exactly one --set")
    return parse_set(ring, cfg.sets[0])


def _handle_ring_info(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    payload = {
        "kind": "ring_info",
        "ring": ring.descriptor,
        "name": ring.math_name,
        "family": ring.family.value,
        "p": ring.p,
        "s": ring.s,
        "r": ring.r,
        "q": ring.q,
        "size": ring.size,
        "units": ring.unit_count,
        "ideal": ring.size // ring.q,
        "ideal_sizes": [ring.ideal_size(k) for k in range(ring.r + 1)],
        "modulus_coeffs": list(ring.modulus_coeffs) if ring.modulus_coeffs else None,
    }
    return payload, True


def _handle_graph_build(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    g = build_graph(ring, cfg.d)
    payload = {
        "kind": "graph",
        "ring": ring.descriptor,
        "d": cfg.d,
        "classes_per_side": g.n_classes,
        "degree": g.degree,
        "edges_total": g.n_classes * g.degree,
        "lambda3_bound": lambda3_bound(ring, cfg.d),
        "biregular": True,
    }
    if cfg.format == "csv":
        edges = np.argwhere(g.biadjacency)
        payload["edges"] = [[int(i), int(j)] for i, j in edges]
    return payload, True


def _handle_graph_spectrum(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    g = build_graph(ring, cfg.d)
    sv = spectrum(g, cfg.spectral_cap)
    bound = lambda3_bound(ring, cfg.d)
    sigma1, sigma2 = float(sv[0]), float(sv[1]) if len(sv) > 1 else 0.0
    s1_ok = abs(sigma1 - g.degree) <= 1e-6 * g.degree
    s2_ok = sigma2 <= bound + 1e-6
    payload = {
        "kind": "spectrum",
        "ring": ring.descriptor,
        "d": cfg.d,
        "classes_per_side": g.n_classes,
        "degree": g.degree,
        "sigma1": sigma1,
        "sigma2": sigma2,
        "lambda3_bound": bound,
        "sigma1_matches_degree": bool(s1_ok),
        "sigma2_within_bound": bool(s2_ok),
    }
    return payload, bool(s1_ok and s2_ok)


def _handle_graph_mixing(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    g = build_graph(ring, cfg.d)
    rep = mixing_random_pairs(g, cfg.trials, cfg.seed, spectral_cap=cfg.spectral_cap)
    payload = {"kind": "mixing", "ring": ring.descriptor, "d": cfg.d,
               "classes_per_side": g.n_classes, **rep}
    return payload, rep["violations"] == 0


def _handle_verify_thm(cfg: RunConfig, which: str):
    ring = parse_ring(cfg.ring)
    a = _one_set(cfg, ring)
    caps = DEFAULT_CAPS.with_(spectral_cap=cfg.spectral_cap)
    fn = verify_thm1_pipeline if which == "thm1" else verify_thm2_pipeline
    report = fn(a, cfg.n, caps)
    return report.to_dict(), report.hard_pass


def _handle_verify_hpv(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    if len(cfg.sets) != 3:
        raise ParseError("verify hpv needs exactly three --set literals (A, B, C)")
    a, b, c = (parse_set(ring, s) for s in cfg.sets)
    return verify_hpv(a, b, c), True


def _handle_scan(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    table = bound_ratio_scan(ring, list(cfg.k_sizes), cfg.trials, cfg.seed, cfg.constants)
    ok = True
    for row in table["rows"]:
        sane = (
            row["size"] <= row["lhs_min"]
            and row["lhs_max"] <= ring.size
            and row["ratio_min"] > 0
            and math.isfinite(row["ratio_max"])
        )
        ok = ok and sane
    table["sanity_ok"] = ok
    return table, ok


def _handle_classify(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    a = _one_set(cfg, ring)
    verdict = classify_regime(a, cfg.constants)
    payload = {"kind": "regime", "ring": ring.descriptor, **verdict.to_dict()}
    return payload, True


def _handle_search(cfg: RunConfig):
    ring = parse_ring(cfg.ring)
    if not cfg.k_sizes:
        raise ParseError("search extremal needs --sizes with at least one size")
    runs = [extremal_search(ring, k, cfg.iters, cfg.seed) for k in cfg.k_sizes]
    payload = {
        "kind": "extremal_search_batch",
        "ring": ring.descriptor,
        "iters": cfg.iters,
        "seed": cfg.seed,
        "runs": runs,
    }
    return payload, True


_HANDLERS = {
    "ring info": _handle_ring_info,
    "graph build": _handle_graph_build,
    "graph spectrum": _handle_graph_spectrum,
    "graph mixing": _handle_graph_mixing,
    "verify thm1": lambda cfg: _handle_verify_thm(cfg, "thm1"),
    "verify thm2": lambda cfg: _handle_verify_thm(cfg, "thm2"),
    "verify hpv": _handle_verify_hpv,
    "scan ratios": _handle_scan,
    "classify": _handle_classify,
    "search extremal": _handle_search,
}


# -- output ----------------------------------------------------------------------


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, ";".join(str(v) for v in obj)))
    else:
        rows.append((prefix, obj))


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload.get("kind") == "graph" and "edges" in payload:
        writer.writerow(["left", "right"])
        for i, j in payload["edges"]:
            writer.writerow([i, j])
        return buf.getvalue()
    if payload.get("kind") == "ratio_scan":
        cols = ["size", "theorem", "trials", "lhs_min", "lhs_max",
                "ratio_min", "ratio_median", "ratio_max",
                "regime_1", "regime_2", "regime_3", "regime_none", "hypothesis_met"]
        writer.writerow(cols)
        for row in payload["rows"]:
            writer.writerow([
                row["size"], row["theorem"], row["trials"], row["lhs_min"],
                row["lhs_max"], row["ratio_min"], row["ratio_median"],
                row["ratio_max"], row["regime_counts"]["1"],
                row["regime_counts"]["2"], row["regime_counts"]["3"],
                row["regime_counts"]["none"], row["hypothesis_met"],
            ])
        return buf.getvalue()
    rows: list = []
    _flatten("", payload, rows)
    writer.writerow(["key", "value"])
    for key, val in rows:
        writer.writerow([key, val])
    return buf.getvalue()


def _emit(payload: dict, cfg_out: Optional[str], fmt: str) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        text = _to_csv(payload)
    if cfg_out:
        with open(cfg_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_args(ns)
    except ValringError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    handler = _HANDLERS[cfg.command]
    try:
        payload, ok = handler(cfg)
    except ValringError as exc:
        _emit(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            cfg.out,
            cfg.format,
        )
        return 1
    _emit(payload, cfg.out, cfg.format)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
