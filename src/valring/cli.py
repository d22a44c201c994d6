"""Command-line front end emitting deterministic JSON/CSV reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .config import SPECTRAL_TOL
from .errors import ParseError, ValringError
from .graph import build_graph, lambda3_bound, mixing_random_pairs, spectrum
from .ring import Ring, RingFamily, check_ring_size, factor_prime_power, make_ring
from .sets import ElementSet, sample_unit_subset
from .verify import (
    bound_ratio_scan,
    check_sizes,
    classify_regime,
    extremal_search,
    verify_hpv,
    verify_thm1_pipeline,
    verify_thm2_pipeline,
)

__all__ = ["parse_ring", "parse_set", "build_parser", "run", "main"]

SCHEMA_VERSION = 1


def parse_ring(text: str) -> Ring:
    """Parse `z:<p>:<r>` or `f:<q>:<r>` into a ring, checking the size cap before factoring q."""
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
        return make_ring(base, 1, r, RingFamily.ZPR)
    check_ring_size(base, r)
    p, s = factor_prime_power(base)
    return make_ring(p, s, r, RingFamily.FQTR)


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
        if not 0 <= seed < 2**64:  # random.Random would seed a negative one with |seed|
            raise ParseError(f"set literal {text!r} has a seed outside 64 bits")
        return sample_unit_subset(ring, size, seed)
    try:
        indices = [int(tok) for tok in text.split(",")]
    except ValueError:  # an empty entry too: "", "1,,2" and "1,2," are refused
        raise ParseError(f"set literal {text!r} is not a comma-separated index list") from None
    return ElementSet.from_indices(ring, indices)


# -- handlers: each takes the parsed namespace and ring, returns (payload, hard_ok)


def _one_set(ns: argparse.Namespace, ring: Ring) -> ElementSet:
    if len(ns.set or ()) != 1:
        raise ParseError(f"{ns.command} needs exactly one --set")
    return parse_set(ring, ns.set[0])


def _handle_ring_info(ns: argparse.Namespace, ring: Ring):
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


def _handle_graph_build(ns: argparse.Namespace, ring: Ring):
    g = build_graph(ring, ns.d)
    payload = {
        "kind": "graph",
        "ring": ring.descriptor,
        "d": ns.d,
        "classes_per_side": g.n_classes,
        "degree": g.degree,
        "edges_total": g.n_classes * g.degree,
        "lambda3_bound": lambda3_bound(ring, ns.d),
        "biregular": True,
    }
    if ns.format == "csv":
        payload["edges"] = g.biadjacency
    return payload, True


def _handle_graph_spectrum(ns: argparse.Namespace, ring: Ring):
    g = build_graph(ring, ns.d)
    sv = spectrum(g)
    bound = lambda3_bound(ring, ns.d)
    sigma1, sigma2 = float(sv[0]), float(sv[1]) if len(sv) > 1 else 0.0
    s1_ok = abs(sigma1 - g.degree) <= SPECTRAL_TOL * g.degree
    s2_ok = sigma2 <= bound + SPECTRAL_TOL
    payload = {
        "kind": "spectrum",
        "ring": ring.descriptor,
        "d": ns.d,
        "classes_per_side": g.n_classes,
        "degree": g.degree,
        "sigma1": sigma1,
        "sigma2": sigma2,
        "lambda3_bound": bound,
        "sigma1_matches_degree": bool(s1_ok),
        "sigma2_within_bound": bool(s2_ok),
    }
    return payload, bool(s1_ok and s2_ok)


def _handle_graph_mixing(ns: argparse.Namespace, ring: Ring):
    g = build_graph(ring, ns.d)
    rep = mixing_random_pairs(g, ns.trials, ns.seed)
    payload = {"kind": "mixing", "ring": ring.descriptor, "d": ns.d,
               "classes_per_side": g.n_classes, **rep}
    return payload, rep["violations"] == 0


def _handle_verify_thm(ns: argparse.Namespace, ring: Ring):
    a = _one_set(ns, ring)
    fn = verify_thm1_pipeline if ns.command == "verify thm1" else verify_thm2_pipeline
    report = fn(a, ns.n)
    return report._asdict(), report.hard_pass


def _handle_verify_hpv(ns: argparse.Namespace, ring: Ring):
    if len(ns.set or ()) != 3:
        raise ParseError("verify hpv needs exactly three --set literals (A, B, C)")
    a, b, c = (parse_set(ring, s) for s in ns.set)
    return verify_hpv(a, b, c), True


def _handle_scan(ns: argparse.Namespace, ring: Ring):
    table = bound_ratio_scan(ring, list(ns.sizes), ns.trials, ns.seed, ns.constants)
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


def _handle_classify(ns: argparse.Namespace, ring: Ring):
    a = _one_set(ns, ring)
    verdict = classify_regime(a, ns.constants)
    payload = {"kind": "regime", "ring": ring.descriptor, **verdict._asdict()}
    return payload, True


def _handle_search(ns: argparse.Namespace, ring: Ring):
    check_sizes(ring, ns.sizes, "iters", ns.iters)
    runs = [extremal_search(ring, k, ns.iters, ns.seed) for k in ns.sizes]
    payload = {
        "kind": "extremal_search_batch",
        "ring": ring.descriptor,
        "iters": ns.iters,
        "seed": ns.seed,
        "runs": runs,
    }
    return payload, True


# -- the command table -----------------------------------------------------------

# Every option a command may take, in --help order.
_OPTIONS = {
    "--set": dict(action="append",
                  help="set literal: indices, units, all, random:<size>:<seed>"),
    "--n": dict(type=int, default=2),
    "--d": dict(type=int, default=3),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int),
    "--sizes": dict(required=True, help="comma-separated subset sizes"),
    "--iters": dict(type=int, default=200),
    "--constants": dict(default="1,1,1", help="c1,c2,c3 (default 1,1,1)"),
}

# command -> (handler, options beyond --ring/--out/--format, per-command defaults)
_COMMANDS = {
    "ring info": (_handle_ring_info, (), {}),
    "graph build": (_handle_graph_build, ("--d",), {}),
    "graph spectrum": (_handle_graph_spectrum, ("--d",), {}),
    "graph mixing": (_handle_graph_mixing, ("--d", "--seed", "--trials"), {"trials": 100}),
    "verify thm1": (_handle_verify_thm, ("--set", "--n"), {}),
    "verify thm2": (_handle_verify_thm, ("--set", "--n"), {}),
    "verify hpv": (_handle_verify_hpv, ("--set",), {}),
    "scan ratios": (_handle_scan,
                    ("--seed", "--trials", "--sizes", "--constants"), {"trials": 20}),
    "classify": (_handle_classify, ("--set", "--constants"), {}),
    "search extremal": (_handle_search, ("--seed", "--sizes", "--iters"), {}),
}


def build_parser() -> argparse.ArgumentParser:
    """The `valring` parser, built from `_COMMANDS`; `ns.command` names the command."""
    root = argparse.ArgumentParser(prog="valring")
    groups = root.add_subparsers(dest="group", required=True)
    subcommands = {}
    for command, (_, options, defaults) in _COMMANDS.items():
        group, _, action = command.partition(" ")
        if not action:
            p = groups.add_parser(group)
        else:
            if group not in subcommands:
                subcommands[group] = groups.add_parser(group).add_subparsers(
                    dest="action", required=True)
            p = subcommands[group].add_parser(action)
        p.add_argument("--ring", required=True, help="ring spec: z:<p>:<r> or f:<q>:<r>")
        for flag, kwargs in _OPTIONS.items():
            if flag in options:
                p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(command=command, **defaults)
    return root


def _check(ns: argparse.Namespace) -> None:
    """Parse --sizes/--constants into numbers and range-check the numeric options."""
    try:
        if "sizes" in ns:
            ns.sizes = tuple(int(t) for t in ns.sizes.split(",")) if ns.sizes else ()
        if "constants" in ns:
            ns.constants = tuple(float(t) for t in ns.constants.split(","))
    except ValueError:
        raise ParseError("--sizes and --constants take comma-separated numbers") from None
    if getattr(ns, "sizes", None) == ():
        raise ParseError("--sizes needs at least one size")
    constants = getattr(ns, "constants", (1.0, 1.0, 1.0))
    if len(constants) != 3:
        raise ParseError("--constants needs exactly c1,c2,c3")
    if not 0 <= getattr(ns, "seed", 0) < 2**64:
        raise ParseError("seed must fit in 64 bits")
    if not all(0 < c < math.inf for c in constants):
        raise ParseError("--constants must be finite positive numbers")


# -- output ----------------------------------------------------------------------


def _flatten(prefix: str, obj, rows: list) -> None:
    """Append (dotted key, value) rows for the leaves of ``obj``: a list of
    scalars is one row of ;-joined values, and entry i of any other list
    sits under key i, as in ``runs.0.best_objective``."""
    if isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        obj = dict(enumerate(obj))
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
        # csv.writer's rows from the biadjacency, one join per left vertex (each
        # has degree >= 1, audited by build_graph), with no object per edge
        labels = np.array([str(j) for j in range(payload["edges"].shape[1])], dtype=object)
        return "left,right\n" + "".join(
            f"{i}," + f"\n{i},".join(labels[np.flatnonzero(row)]) + "\n"
            for i, row in enumerate(payload["edges"])
        )
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


def _emit(payload: dict, out: Optional[str], fmt: str) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        text = _to_csv(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PARSER = build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check(ns)
    except ParseError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    handler = _COMMANDS[ns.command][0]
    try:
        payload, ok = handler(ns, parse_ring(ns.ring))
    except ValringError as exc:
        payload, ok = {"error": {"type": type(exc).__name__, "message": str(exc)}}, False
    try:
        _emit(payload, ns.out, ns.format)
    except OSError as exc:
        sys.stderr.write(f"valring: cannot write --out {ns.out}: {exc.strerror or exc}\n")
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
