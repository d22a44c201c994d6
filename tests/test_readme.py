"""Every `valring ...` line of the README's CLI block runs cleanly."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from valring.cli import run

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
