"""Tests of the benchmark's reference checker.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from valring import cli  # noqa: E402


def _payload(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("ring, members", [
    ("z:3:2", "1,2,4"),      # graph route
    ("z:5:2", "1,2,3,7"),    # direct route
    ("f:9:2", "1,2,10"),     # FQTR, direct route
])
def test_checker_accepts_then_rejects_energy_off_by_one(ring, members):
    argv = ["verify", "thm2", "--ring", ring, "--set", members, "--n", "2"]
    text = _payload(argv)
    assert reference.check_op(argv, text, {}) == []
    doc = json.loads(text)
    doc["counts"]["energy"] += 1
    errors = reference.check_op(argv, json.dumps(doc), {})
    assert any(e.startswith("energy") for e in errors)


def test_checker_rejects_wrong_route_and_edges():
    argv = ["verify", "thm1", "--ring", "z:3:2", "--set", "1,2", "--n", "2"]
    doc = json.loads(_payload(argv))
    doc["embed"]["mode"] = "direct"
    doc["embed"]["edges"] -= 1
    errors = reference.check_op(argv, json.dumps(doc), {})
    assert any(e.startswith("route") for e in errors)
    assert any(e.startswith("edges") for e in errors)


def test_reference_arithmetic_matches_the_encoding():
    # F_9 = F_3[x]/(x^2 + 1); index 3 is x, and x * x = -1 = 2.
    f9 = reference.ring("f:9:1")
    assert reference.smallest_monic_irreducible(3, 2) == [1, 0, 1]
    assert f9.mul(3, 3) == 2
    # In F_9[t]/(t^2), index 9 is t and t * t = 0.
    assert reference.ring("f:9:2").mul(9, 9) == 0
    assert reference.ring("z:5:2").mul(7, 18) == 126 % 25


def test_fold_statistics_match_hand_counts():
    # README example: A = {1, 2} in Z/9 has N = 8 and E = 32 at n = 2.
    st = reference.form_stats(reference.ring("z:3:2"), [1, 2], 2)
    assert (st["solutions"], st["energy"]) == (8, 32)
