"""One benchmark process: set-up, then whole rounds of the op list.

Run by `run.py`, which writes the workload (`setup`, `ops`, `cold_graphs`)
to its stdin as JSON.  It puts `<checkout>/src` first on the import
path, runs the set-up ops, prints `ready`, and (unless `--setup-only`)
repeats the op list in a closed loop: each op is one
call of `valring.cli.run` with stdout captured, started when the
previous one returned.  A round is one pass over the list; rounds repeat
while the next one is expected to end within `--seconds`.  With
`--trace 1` untraced and traced rounds alternate.  The last stdout line
is a JSON document with the timings and the payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import valring.cli
    import valring.graph

    if Path(valring.__file__).resolve().parent != src / "valring":
        raise ImportError(f"valring was imported from {valring.__file__}, not {src}")
    return valring


def _call(cli, argv):
    """Run one op; return (exit code or None on a crash, stdout text, error)."""
    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    try:
        rc, err = cli.run(argv), None
    except Exception:  # an op that crashes is counted as failed, the run goes on
        rc, err = None, traceback.format_exc()
    finally:
        sys.stdout = saved
    return rc, buf.getvalue(), err


def _spectrum_extras(valring, argv):
    """Sum of squared singular values of the graph a `graph spectrum` op just cached."""
    ring = valring.cli.parse_ring(argv[argv.index("--ring") + 1])
    g = valring.graph.build_graph(ring, int(argv[argv.index("--d") + 1]))
    return {"sum_sigma_sq": float((valring.graph.spectrum(g) ** 2).sum())}


def _round(valring, wl, clear_graphs, keep_payloads, tracer=None):
    cli = valring.cli
    wall, cpu, rcs, digests, payloads, extras, errors = [], [], [], [], [], [], []
    for argv in wl["ops"]:
        if wl["cold_graphs"]:
            clear_graphs()
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc, out, err = _call(cli, argv)
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        rcs.append(rc)
        errors.append(err)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
        if tracer is not None:
            tracer.add_count("cli.payload_bytes", len(out.encode()))
        if keep_payloads:
            payloads.append(out)
            extra = {}
            if rc == 0 and argv[:2] == ["graph", "spectrum"]:
                extra = _spectrum_extras(valring, argv)
            extras.append(extra)
    return {"wall": wall, "cpu": cpu, "rc": rcs, "digests": digests,
            "payloads": payloads, "extras": extras, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    args = ap.parse_args(argv)

    wl = json.load(sys.stdin)
    valring = _import_program()
    clear_graphs = valring.graph.build_graph.cache_clear  # taken before any wrapping
    for step in wl["setup"]:
        rc, out, err = _call(valring.cli, step)
        if rc != 0:
            sys.stderr.write(f"set-up op {step} failed (exit {rc})\n{err or out}\n")
            return 1
    if wl["cold_graphs"]:
        clear_graphs()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rec = _round(valring, wl, clear_graphs, keep_payloads=not rounds,
                         tracer=tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        if traced:
            rec["self_s"], rec["counts"] = tracer.take()
        rounds.append(rec)
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
            continue
        elapsed = time.perf_counter() - start
        needed = 2 if tracer is not None else 1
        longest = max(sum(r["wall"]) for r in rounds)
        if len(rounds) >= needed and elapsed + longest > args.seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"rounds": rounds, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
