"""valring benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload zpr-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With `--trace 0` the last stdout line
holds the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a traced run.  Every op's payload is checked against the
plain-Python reference in `reference.py`, outside the timed region.
The per-op timings, payload sha256 digests and any check errors go to
`perfbench/out/<workload>-seed<seed>-trace<t>.json`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}


def _spec(wl: workloads.Workload, with_ops: bool = True) -> str:
    return json.dumps({"setup": wl.setup, "ops": wl.ops if with_ops else [],
                       "cold_graphs": wl.cold_graphs})


def run_worker(wl: workloads.Workload, *flags: str) -> dict:
    """Run one worker process over the whole op list; return its result document."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *flags], input=_spec(wl),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"benchmark worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def measure_setup(wl: workloads.Workload) -> float:
    """Median time from launching a fresh interpreter until the first op could start."""
    spec = _spec(wl, with_ops=False)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--setup-only"],
                                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
        try:
            proc.stdin.write(spec)
            proc.stdin.close()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError("set-up failed")
        if i:  # the first launch only warms the file cache
            samples.append(elapsed)
    return statistics.median(samples)


def check_rounds(ops: list, res: dict) -> tuple:
    """(failed ops per round, check errors by op) for the worker's rounds."""
    first = res["rounds"][0]
    failed_per_round = [sum(rc != 0 for rc in rnd["rc"]) for rnd in res["rounds"]]
    errors = {}
    for i, argv in enumerate(ops):
        if first["rc"][i] != 0:
            continue  # a failed op is counted in `failed`, not checked
        errs = reference.check_op(argv, first["payloads"][i], first["extras"][i])
        if any(rnd["digests"][i] != first["digests"][i] for rnd in res["rounds"][1:]):
            errs.append("payload bytes differ between rounds")
        if errs:
            errors[i] = errs
    return failed_per_round, errors


def _quantiles(values):
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


def end_to_end(res: dict, setup_s: float) -> dict:
    rounds = res["rounds"]
    op_times = [t for rnd in rounds for t in rnd["wall"]]
    p50, p90 = _quantiles(op_times)
    return {
        "wall_s": statistics.median(sum(rnd["wall"]) for rnd in rounds),
        "op_s.p50": p50,
        "op_s.p90": p90,
        "cpu_s": statistics.median(sum(rnd["cpu"]) for rnd in rounds),
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> tuple:
    """(metrics, whether every traced round gave the same counts).

    A per-layer name ending in `.s` is the self time of the layer named
    before it; any other name is a count.
    """
    traced = [rnd for rnd in res["rounds"] if rnd["traced"]]
    plain = [rnd for rnd in res["rounds"] if not rnd["traced"]]
    counts = traced[0]["counts"]
    metrics = {}
    for m in MANIFEST["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(sum(rnd["wall"]) for rnd in traced)
                             - statistics.median(sum(rnd["wall"]) for rnd in plain))
        elif name.endswith(".s"):
            metrics[name] = statistics.median(rnd["self_s"].get(name[:-2], 0.0) for rnd in traced)
        else:
            metrics[name] = counts.get(name, 0)
    repeat = all(rnd["counts"] == counts for rnd in traced[1:])
    return metrics, repeat


def _digest_match(workload: str, seed: int, digests: list):
    if not REFERENCE_DIGESTS.exists():
        return None
    ref = json.loads(REFERENCE_DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        return None
    return ref == combined_digest(digests)


def combined_digest(digests: list) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "valring" / "__init__.py").is_file():
        sys.stderr.write(f"no valring sources under {ROOT / 'src'}\n")
        return 2

    wl = workloads.build(args.workload, args.seed)
    try:
        setup_s = None if args.trace else measure_setup(wl)
        res = run_worker(wl, "--seconds", str(args.seconds), "--trace", str(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    failed_per_round, errors = check_rounds(wl.ops, res)
    if args.trace:
        metrics, counts_repeat = per_layer(res)
    else:
        metrics, counts_repeat = end_to_end(res, setup_s), None

    first = res["rounds"][0]
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(res["rounds"]),
        "metrics": metrics,
        "counts_repeat": counts_repeat,
        "payload_sha256": first["digests"],
        "payloads_sha256": combined_digest(first["digests"]),
        "matches_reference_digests": _digest_match(args.workload, args.seed, first["digests"]),
        "check_errors": {str(i): errs for i, errs in errors.items()},
        "op_errors": {str(i): e for i, e in enumerate(first["errors"]) if e},
        "ops": [{"argv": argv, "rc": first["rc"][i], "wall_s": [r["wall"][i] for r in res["rounds"]]}
                for i, argv in enumerate(wl.ops)],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(side, indent=1) + "\n")

    result = {
        "correct": not errors,
        "attempted": len(wl.ops) * len(res["rounds"]),
        "failed": sum(failed_per_round),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
