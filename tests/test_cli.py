import contextlib
import csv
import importlib.util
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valring.cli
import valring.graph
import valring.ring
import valring.sets
import valring.verify
from valring import (
    BadIndex,
    EvenPrime,
    NonPrime,
    NotPrimePower,
    ParseError,
    build_graph,
    make_ring,
)
from valring.cli import build_parser, parse_ring, parse_set, run


# ---------------------------------------------------------------------------
# ring and set literals


def test_parse_ring_families():
    r = parse_ring("z:5:2")
    assert (r.p, r.s, r.r, r.size) == (5, 1, 2, 25)
    f = parse_ring("f:9:2")
    assert (f.p, f.s, f.r, f.size) == (3, 2, 2, 81)
    f25 = parse_ring("f:25:1")
    assert (f25.p, f25.s, f25.q) == (5, 2, 25)


@pytest.mark.parametrize(
    "text,err",
    [
        ("f:12:1", NotPrimePower),
        ("f:4:1", EvenPrime),  # make_ring refuses p = 2 for both families
        ("z:6:1", NonPrime),
        ("z:2:3", EvenPrime),
        ("z:5", ParseError),
        ("w:5:2", ParseError),
        ("z:a:2", ParseError),
        ("z:5:0", ParseError),
    ],
)
def test_parse_ring_rejects(text, err):
    with pytest.raises(err):
        parse_ring(text)


def test_parse_set_literals(z9):
    assert parse_set(z9, "units").card == 6
    assert parse_set(z9, "all").card == 9
    assert sorted(parse_set(z9, "1, 2,4")) == [1, 2, 4]
    rnd = parse_set(z9, "random:3:7")
    assert rnd.card == 3 and rnd.all_units()
    assert rnd == parse_set(z9, "random:3:7")


@pytest.mark.parametrize(
    "text",
    ["random:3", "random:x:1", "1,a", "", "1,,2", "1,2,", "random:3:-7", "random:3:18446744073709551616"],
)
def test_parse_set_rejects(text, z9):
    with pytest.raises(ParseError):
        parse_set(z9, text)


def test_parse_set_bad_index(z9):
    with pytest.raises(BadIndex):
        parse_set(z9, "9")


# ---------------------------------------------------------------------------
# the command table: argv -> namespace, defaults, validation

# options each command takes besides --ring, --out and --format
_COMMAND_OPTIONS = {
    "ring info": set(),
    "graph build": {"d"},
    "graph spectrum": {"d"},
    "graph mixing": {"d", "seed", "trials"},
    "verify thm1": {"set", "n"},
    "verify thm2": {"set", "n"},
    "verify hpv": {"set"},
    "scan ratios": {"seed", "trials", "sizes", "constants"},
    "classify": {"set", "constants"},
    "search extremal": {"seed", "sizes", "iters"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "info", "--ring", "z:3:2"],
        ["graph", "build", "--ring", "z:3:2", "--d", "3"],
        ["graph", "spectrum", "--ring", "f:9:1", "--d", "2"],
        ["graph", "mixing", "--ring", "z:3:2", "--d", "3", "--seed", "9", "--trials", "40"],
        ["verify", "thm1", "--ring", "z:5:2", "--set", "random:6:1", "--n", "2"],
        ["verify", "thm2", "--ring", "z:3:2", "--set", "1,2", "--n", "3"],
        ["verify", "hpv", "--ring", "z:3:2", "--set", "units", "--set", "units", "--set", "units"],
        ["scan", "ratios", "--ring", "z:5:2", "--sizes", "4,8", "--trials", "5", "--seed", "3"],
        ["classify", "--ring", "z:3:2", "--set", "units", "--constants", "1.5,1,1"],
        ["search", "extremal", "--ring", "z:5:2", "--sizes", "4", "--iters", "50", "--seed", "2"],
    ],
)
def test_config_roundtrip(argv):
    """Each command parses into its own options, holding the values given."""
    ns = build_parser().parse_args(argv)
    assert ns.command == " ".join(argv[: argv.index("--ring")])
    pairs = list(zip(argv[argv.index("--ring") :: 2], argv[argv.index("--ring") + 1 :: 2]))
    for flag, value in pairs:
        if flag != "--set":
            assert str(getattr(ns, flag[2:].replace("-", "_"))) == value
    assert getattr(ns, "set", None) == ([v for f, v in pairs if f == "--set"] or None)
    options = set(vars(ns)) - {"group", "action", "command", "ring", "out", "format"}
    assert options == _COMMAND_OPTIONS[ns.command]


def test_config_validation(capsys):
    for argv in (
        ["scan", "ratios", "--ring", "z:5:2", "--sizes", "4", "--seed", str(2**64)],
        ["classify", "--ring", "z:3:2", "--set", "units", "--constants", "1,2"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ParseError: ")


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["scan", "ratios", "--ring", "z:5:2", "--sizes", "4"], "trials", 20),
        (["graph", "mixing", "--ring", "z:3:1", "--d", "2"], "trials", 100),
        (["search", "extremal", "--ring", "z:5:2", "--sizes", "4"], "iters", 200),
    ],
)
def test_run_per_command_defaults(argv, key, value, capsys):
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)[key] == value


def test_run_reuses_parser_without_carry_over(capsys):
    hpv = ["verify", "hpv", "--ring", "z:3:2", "--set", "units", "--set", "1,2",
           "--set", "units"]
    thm1 = ["verify", "thm1", "--ring", "z:3:2", "--set", "1,2", "--n", "2"]
    for argv in (hpv, thm1):
        outputs = []
        for _ in range(2):
            # a --set left over from the first call would make hpv see six sets
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# end-to-end runs and exit codes


def test_run_ring_info(capsys):
    assert run(["ring", "info", "--ring", "f:9:2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["size"] == 81
    assert payload["units"] == 72
    assert payload["ideal_sizes"] == [81, 9, 1]
    assert payload["modulus_coeffs"] == [1, 0, 1]


def test_run_verify_passes(capsys):
    code = run(["verify", "thm1", "--ring", "z:3:2", "--set", "1,2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["hard_pass"] is True
    assert payload["counts"]["solutions"] == 8


def test_run_reports_typed_errors(capsys):
    code = run(["ring", "info", "--ring", "f:12:1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "NotPrimePower"


def test_run_usage_errors(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["graph", "paint", "--ring", "z:3:2"]) == 2
    capsys.readouterr()
    # config-level validation also exits 2, before any handler work
    assert run(["scan", "ratios", "--ring", "z:5:2", "--sizes", "4",
                "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err


# no command takes a spectral cap: MAX_GRAPH_CLASSES bounds every SVD
@pytest.mark.parametrize("command", [
    ["graph", "build"], ["graph", "spectrum"], ["graph", "mixing"],
    ["verify", "thm1", "--set", "1,2"], ["verify", "thm2", "--set", "1,2"],
])
def test_run_takes_no_svd_cap_option(command, capsys):
    assert run(command + ["--ring", "z:3:2", "--spectral-cap", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_run_spectrum_checks(capsys):
    code = run(["graph", "spectrum", "--ring", "z:3:2", "--d", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["sigma1_matches_degree"] and payload["sigma2_within_bound"]
    assert payload["sigma1"] == pytest.approx(12.0)
    assert payload["sigma2"] == pytest.approx(27**0.5)


def test_run_mixing(capsys):
    code = run(["graph", "mixing", "--ring", "f:9:1", "--d", "2",
                "--trials", "60", "--seed", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["violations"] == 0


def test_run_json_is_deterministic(capsys):
    argv = ["scan", "ratios", "--ring", "z:5:2", "--sizes", "4,8",
            "--trials", "4", "--seed", "11"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["sanity_ok"] is True


def test_run_csv_projections(capsys):
    run(["scan", "ratios", "--ring", "z:5:2", "--sizes", "4", "--trials", "3",
         "--seed", "0", "--format", "csv"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("size,theorem,trials,lhs_min")
    assert len(lines) == 3  # header + one row per theorem

    run(["graph", "build", "--ring", "z:3:1", "--d", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "left,right"
    assert len(out.splitlines()) == 1 + 4  # 4 classes, degree 1

    run(["ring", "info", "--ring", "z:3:2", "--format", "csv"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,value"


@pytest.mark.parametrize("spec,d", [("z:3:1", 2), ("z:3:2", 3)])
def test_run_csv_edges_match_csv_writer_rows(spec, d, capsys):
    run(["graph", "build", "--ring", spec, "--d", str(d), "--format", "csv"])
    out = capsys.readouterr().out
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["left", "right"])
    for i, j in np.argwhere(build_graph(parse_ring(spec), d).biadjacency):
        writer.writerow([int(i), int(j)])
    assert out == buf.getvalue()


def _leaves(prefix, obj):
    """(dotted key, str value) of every leaf of a JSON document; a list of
    numbers is one leaf of ;-joined values."""
    if isinstance(obj, list) and not all(isinstance(v, (int, float)) for v in obj):
        obj = {str(i): v for i, v in enumerate(obj)}
    if isinstance(obj, dict):
        return [leaf for key in obj for leaf in _leaves(f"{prefix}.{key}".lstrip("."), obj[key])]
    if isinstance(obj, list):
        return [(prefix, ";".join(str(v) for v in obj))]
    return [(prefix, "" if obj is None else str(obj))]


def test_run_csv_rows_are_the_json_leaves(capsys):
    # a list of records flattens to runs.0.best_objective rows, not reprs
    argv = ["search", "extremal", "--ring", "z:5:2", "--sizes", "4,6", "--iters", "5"]
    run(argv)
    payload = json.loads(capsys.readouterr().out)
    run(argv + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["key", "value"]
    assert sorted(map(tuple, rows[1:])) == sorted(_leaves("", payload))
    assert ["runs.1.best_objective", str(payload["runs"][1]["best_objective"])] in rows
    assert "{" not in "".join(cell for row in rows for cell in row)


def test_run_writes_out_file(tmp_path, capsys):
    target = tmp_path / "info.json"
    assert run(["ring", "info", "--ring", "z:3:2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["size"] == 9


def test_run_out_path_that_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run(["ring", "info", "--ring", "z:3:2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(target) in captured.err
    assert not target.exists()


def test_run_classify(capsys):
    code = run(["classify", "--ring", "z:3:2", "--set", "units"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["regime"] == 2
    assert payload["empty_regimes"] == [3]


def test_run_search(capsys):
    code = run(["search", "extremal", "--ring", "z:5:2", "--sizes", "3,4",
                "--iters", "40", "--seed", "5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["runs"]) == 2
    for rec in payload["runs"]:
        assert rec["best_objective"] <= rec["start_objective"]


def test_run_hpv_set_count(capsys):
    code = run(["verify", "hpv", "--ring", "z:3:2", "--set", "units"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "ParseError"


# ---------------------------------------------------------------------------
# bad inputs end in a typed error or a usage error, never in a traceback


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "ratios", "--ring", "z:5:2", "--sizes", "4", "--trials", "0"],
        ["graph", "mixing", "--ring", "z:3:2", "--d", "3", "--trials", "-3"],
        # no trial drawn is no check made
        ["graph", "mixing", "--ring", "z:3:2", "--d", "3", "--trials", "0"],
        ["search", "extremal", "--ring", "z:5:2", "--sizes", "4", "--iters", "-5"],
        # over MAX_TRIALS: refused before anything is allocated per trial
        ["graph", "mixing", "--ring", "z:3:1", "--d", "2", "--trials", str(10**15)],
        ["scan", "ratios", "--ring", "z:5:2", "--sizes", "4", "--trials", str(10**12)],
        ["search", "extremal", "--ring", "z:5:2", "--sizes", "4", "--iters", str(10**12)],
    ],
)
def test_run_rejects_bad_counts(argv, capsys):
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "BadSize"


def _refuse(*args):
    raise AssertionError("a trial or chain ran before every size and count was checked")


@pytest.mark.parametrize(
    "argv,reached",
    [
        # 2 sizes x 60 000 trials, and 50 000 sizes x 10^5 trials or iterations
        (["scan", "ratios", "--ring", "z:3:2", "--sizes", "2,2", "--trials", "60000"],
         "classify_regime"),
        (["scan", "ratios", "--ring", "z:3:2", "--sizes", ",".join(["2"] * 50000),
          "--trials", "100000"], "classify_regime"),
        (["search", "extremal", "--ring", "z:5:2", "--sizes", "4,4", "--iters", "60000"],
         "_search_chain"),
        (["search", "extremal", "--ring", "z:5:2", "--sizes", ",".join(["4"] * 50000),
          "--iters", "100000"], "_search_chain"),
    ],
    ids=["scan-2-sizes", "scan-50000-sizes", "search-2-sizes", "search-50000-sizes"],
)
def test_run_caps_trials_over_all_sizes(argv, reached, capsys, monkeypatch):
    monkeypatch.setattr(valring.verify, reached, _refuse)
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "BadSize"


def test_run_search_checks_every_size_before_the_first_chain(capsys, monkeypatch):
    monkeypatch.setattr(valring.verify, "_search_chain", _refuse)
    assert run(["search", "extremal", "--ring", "z:5:2", "--sizes", "4,99"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "BadSize"


@pytest.mark.parametrize("theorem", ["thm1", "thm2"])
def test_run_verify_rejects_set_without_units(theorem, capsys):
    assert run(["verify", theorem, "--ring", "z:3:2", "--set", "0,3", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotUnits"


def _verify_bad_arity(theorem, n, capsys):
    argv = ["verify", theorem, "--ring", "z:5:2", "--set", "1,2,3", "--n", n]
    assert run(argv) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "BadArity"
    return error["message"]


@pytest.mark.parametrize("theorem", ["thm1", "thm2"])
def test_run_verify_rejects_huge_n(theorem, capsys):
    assert _verify_bad_arity(theorem, "1000000000", capsys) == "need 2 <= n <= 4, got 1000000000"
    assert _verify_bad_arity(theorem, "0", capsys) == "need 2 <= n <= 4, got 0"


@pytest.mark.parametrize("theorem", ["thm1", "thm2"])
def test_run_verify_checks_n_before_building_sets(theorem, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a set was built before n was checked")

    monkeypatch.setattr(valring.sets, "sumset", refuse)
    monkeypatch.setattr(valring.sets, "square_set", refuse)
    _verify_bad_arity(theorem, "1000000000", capsys)


# a constant <= 0 makes its regime band vacuous; 1e-400 parses to 0.0
@pytest.mark.parametrize("value", ["nan", "inf", "x", "0", "-1", "1e-400"])
def test_run_rejects_bad_constants(value, capsys):
    argv = ["classify", "--ring", "z:3:2", "--set", "units", "--constants", f"1,1,{value}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ParseError" in captured.err


@pytest.mark.parametrize("command", [
    ["classify", "--ring", "z:3:2", "--set", "1"],
    ["scan", "ratios", "--ring", "z:3:2", "--sizes", "2"],
])
def test_run_rejects_constants_that_overflow_a_threshold(command, capsys):
    assert run(command + ["--constants", "1e308,1e308,1e308"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "TooLarge"


# Oversize specs, each with the functions it must not reach: the size cap
# is checked first, so primality, factoring and the closed form never run.
_RING_WORK = ("ring.is_prime", "ring.factor_prime_power", "cli.factor_prime_power")


@pytest.mark.parametrize("argv,untouched", [
    (["ring", "info", "--ring", "z:3:10000"], _RING_WORK),
    (["ring", "info", "--ring", "z:3:10000000"], _RING_WORK),
    (["ring", "info", "--ring", "f:3:10000000"], _RING_WORK),
    (["ring", "info", "--ring", "z:100000000000031:1"], _RING_WORK),
    (["ring", "info", "--ring", "z:1000000000039:1"], _RING_WORK),
    (["ring", "info", "--ring", "f:100000000000031:1"], _RING_WORK),
    (["graph", "build", "--ring", "z:3:2", "--d", "10000000"], ("graph.class_count",)),
    # |A|^2 past MAX_FOLD_CELLS: refused before the sumsets of the fold sets
    (["verify", "thm1", "--ring", "z:65521:1", "--set", "units", "--n", "2"], ("sets.sumset",)),
    (["verify", "thm2", "--ring", "z:3:10", "--set", "units"], ("sets.sumset",)),
    # every command that builds A+A refuses |A|^2 past MAX_FOLD_CELLS the same way
    (["classify", "--ring", "z:3:10", "--set", "units"], ("sets.sumset",)),
    (["scan", "ratios", "--ring", "z:3:10", "--sizes", "2,39366"], ("sets.sumset",)),
    (["search", "extremal", "--ring", "z:3:10", "--sizes", "39366"], ("sets.sumset",)),
    # constants that overflow a float threshold: refused before A+A is built
    (["classify", "--ring", "z:3:2", "--set", "units", "--constants", "1e308,1e308,1e308"],
     ("sets.sumset",)),
    # the class count at d = 5 * 10**6 has millions of digits: build_graph
    # refuses it from a clipped count instead
    (["graph", "spectrum", "--ring", "z:3:2", "--d", "5000000"], ("graph.class_count",)),
])
def test_run_rejects_oversize_specs_before_any_work(argv, untouched, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("expensive work ran before the size cap was checked")

    for dotted in untouched:
        module, name = dotted.split(".")
        monkeypatch.setattr(getattr(valring, module), name, refuse)
    assert run(argv) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "TooLarge"
    assert len(error["message"]) < 100


def test_ring_cache_keys_on_what_it_builds(monkeypatch):
    ring = make_ring(3, 1, 2)
    assert parse_ring("z:3:2") is ring
    assert parse_ring("f:9:2") is make_ring(3, 2, 2, "fqtr")
    monkeypatch.setattr(valring.ring, "MAX_RING_SIZE", 10**6)  # the cap is not in the key
    assert make_ring(3, 1, 2) is ring


def test_one_graph_per_ring_and_d(capsys):
    build_graph.cache_clear()
    assert run(["graph", "spectrum", "--ring", "z:5:2", "--d", "3"]) == 0
    capsys.readouterr()
    assert run(["verify", "thm1", "--ring", "z:5:2", "--set", "1,2,3", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["embed"]["mode"] == "graph"
    assert build_graph.cache_info().misses == 1


@pytest.mark.parametrize("command", [["scan", "ratios"], ["search", "extremal"]])
def test_run_rejects_empty_sizes(command, capsys):
    assert run(command + ["--ring", "z:5:2", "--sizes", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ParseError" in captured.err


_INT = st.integers(-3, 4).map(str)
_CONSTANT = st.sampled_from(["1", "0.5", "0", "-2", "1e308", "nan", "inf", "-inf"])


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from([
        ["scan", "ratios"], ["search", "extremal"], ["graph", "mixing"],
        ["classify"], ["verify", "thm1"], ["verify", "thm2"],
    ]))
    argv = command + ["--ring", draw(st.sampled_from(["z:3:2", "z:5:1", "f:9:1"]))]
    group = command[0]
    if group in ("scan", "search"):
        argv += ["--sizes", ",".join(draw(st.lists(_INT, min_size=1, max_size=3)))]
        argv += ["--seed", draw(_INT)]
    if group in ("scan", "graph"):
        argv += ["--trials", draw(_INT)]
    if group == "search":
        argv += ["--iters", draw(_INT)]
    if group == "graph":
        argv += ["--d", draw(_INT), "--seed", draw(_INT)]
    if group in ("classify", "verify"):
        argv += ["--set", draw(st.sampled_from(["units", "1,2", "0,3", "0", "random:2:1", "random:2:-1"]))]
    if group == "verify":
        # n = 4 is left out: its direct routes over f:9:1 count ~10^7 pairs
        argv += ["--n", str(draw(st.integers(-3, 3)))]
    if group in ("scan", "classify"):
        argv += ["--constants", ",".join(draw(st.lists(_CONSTANT, min_size=3, max_size=3)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=30)
@given(_fuzz_argv())
def test_run_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert "Traceback" not in err.getvalue()


def _probe(argv):
    """Run scripts/extremal_probe.py's main on argv; return its exit code."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / "extremal_probe.py"
    spec = importlib.util.spec_from_file_location("extremal_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        return module.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv,error",
    [
        pytest.param(["--ring", "z:4:1", "--sizes", "4"], "NonPrime",
                     id="extremal_probe-argv4-1"),
        pytest.param(["--ring", "z:5:2", "--sizes", "4,99"], "BadSize",
                     id="extremal_probe-argv5-1"),
        pytest.param(["--ring", "z:5:2", "--sizes", "4,x"], None, id="extremal_probe-argv6-2"),
    ],
)
def test_survey_scripts_exit_without_a_traceback(argv, error, capsys):
    # the probe passes its options to `valring search extremal`: a refused input
    # is the command's JSON error document and exit 1, a malformed one exit 2
    code = _probe(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if error:
        assert code == 1
        assert json.loads(captured.out)["error"]["type"] == error
    else:
        assert code == 2 and captured.out == ""
        assert "ParseError" in captured.err


@pytest.mark.parametrize("option", [["--format", "csv"], ["--out", "/nonexistent/x.json"]])
def test_probe_keeps_its_payloads_on_stdout(option, capsys):
    # a user's --format or --out is overridden: the probe parses JSON from stdout
    assert _probe(["--ring", "z:5:2", "--sizes", "4,6", "--iters", "50", *option]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "ring z:5:2, 50 iterations, seed 0"
    assert [row.split()[0] for row in rows[2:]] == ["4", "6"]


def test_probe_help_says_out_and_format_are_fixed(capsys):
    # the help is the command's, which lists --out and --format
    assert _probe(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: valring search extremal")
    fixed = "\n--out and --format are fixed to JSON on stdout, which the probe reads.\n"
    assert help_text.endswith(fixed)
