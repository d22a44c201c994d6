"""Every `valring ...` line of the README's CLI block runs cleanly, its
options table matches the command table, and its Library block gives the
values its comments state."""

import ast
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from valring.cli import _COMMANDS, run

_README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines():
    text = _README.read_text()
    block = text[text.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("valring ")]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_readme_has_cli_examples():
    assert len(_cli_lines()) >= 10


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_example_runs(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(shlex.split(line)[1:])
    assert code == 0
    json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_readme_options_table_matches_the_commands():
    text = _README.read_text()
    table = text[text.index("| command | options (default) |") :].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        commands, options = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            listed[command] = set(re.findall(r"`(--[a-z-]+)`", options))
    assert listed == {command: set(spec[1]) for command, spec in _COMMANDS.items()}


def test_readme_library_example_holds():
    text = _README.read_text()
    block = text[text.index("## Library") :]
    source = re.search(r"```python\n(.*?)```", block, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    stated = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        # an expression line states its value first in its comment: "# 8", "# True: ..."
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        expected = ast.literal_eval(comment.split()[0].rstrip(":"))
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(stmt)
        stated.append(expected)
    assert stated == [8, 32, True]
