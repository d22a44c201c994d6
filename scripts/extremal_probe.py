#!/usr/bin/env python3
"""Hunt for unit subsets with unusually small max{|A+A|, |A^2+A^2|}.

Runs `valring search extremal` with this script's options, classifies each
size's best set with `valring classify`, and prints one row per size.  The
exit code and any JSON error document are the command's own.  The probe
reads each command's JSON from stdout, so it fixes `--out` and `--format`.
"""

import contextlib
import io
import json
import sys

from valring.cli import run

_FIXED = "\n--out and --format are fixed to JSON on stdout, which the probe reads.\n"


def _run(*argv: str) -> dict:
    """One valring command's JSON payload (an empty --out is stdout); on an
    error document or --help, print it and exit with the command's code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([*argv, "--format", "json", "--out", ""])
    if code or not out.getvalue().startswith("{"):
        sys.stdout.write(out.getvalue() + ("" if code else _FIXED))  # code 0: the help
        sys.exit(code)
    return json.loads(out.getvalue())


def main(argv: list[str]) -> int:
    batch = _run("search", "extremal", *argv)
    print(f"ring {batch['ring']}, {batch['iters']} iterations, seed {batch['seed']}")
    print(f"{'k':>4} {'best':>6} {'start':>6} {'regime':>7}  best set")
    for res in batch["runs"]:
        members = ",".join(map(str, res["best_set"]))
        regime = _run("classify", "--ring", batch["ring"], "--set", members)["regime"]
        print(f"{res['k']:>4} {res['best_objective']:>6} {res['start_objective']:>6} "
              f"{regime or '-':>7}  {{{members}}}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
