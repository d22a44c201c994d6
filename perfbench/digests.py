"""Regenerate the reference payload digests in `reference_digests.json`.

    python3 perfbench/digests.py            # every workload, seeds 1 and 2
    python3 perfbench/digests.py --check    # compare without writing

Runs one round of each workload's op list per seed and records the
sha256 over the per-op payload digests.  `run.py` compares each run's
digests with this file when its (workload, seed) is listed, and writes
the outcome to its side output as `matches_reference_digests`.  A
change meant to keep output bytes identical should leave the file
unchanged; the digests say nothing about whether the payloads are
right, which is the reference checker's job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def digest(name: str, seed: int) -> str:
    res = run.run_worker(workloads.build(name, seed), "--rounds", "1")
    return run.combined_digest(res["rounds"][0]["digests"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare, do not write")
    args = ap.parse_args()
    table = {name: {str(seed): digest(name, seed) for seed in SEEDS} for name in workloads.NAMES}
    if not args.check:
        run.REFERENCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    stored = json.loads(run.REFERENCE_DIGESTS.read_text())
    for name, by_seed in table.items():
        for seed, value in by_seed.items():
            same = stored.get(name, {}).get(seed) == value
            print(f"{name:16} seed {seed}: {'same' if same else 'DIFFERENT'}")
    return 0 if table == stored else 1


if __name__ == "__main__":
    sys.exit(main())
