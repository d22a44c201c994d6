"""Steadiness study: run each workload on several seeds and report the spread.

    python3 perfbench/steadiness.py --seeds 11-20 --label set-a

By default it runs the workloads of BENCHMARK.json for its run length.
For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), the figure the bounds in
BENCHMARK.json are set against.  Runs go one after another; the raw
results are written to `perfbench/out/steadiness-<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gated = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in gated["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=gated["run_seconds"])
    ap.add_argument("--label", default="study")
    args = ap.parse_args()

    runs: dict = {}
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
            )
            res = json.loads(proc.stdout.splitlines()[-1])
            runs[name].append({"seed": seed, **res})
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  "correct" if res["correct"] else "INCORRECT", f"{res['failed']}/{res['attempted']}",
                  flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")

    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'IQR/median':>10}")
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            med, rel = spread([r["metrics"][metric]["value"] for r in results])
            print(f"{name:16} {metric:12} {med:10.4f} {rel:10.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
