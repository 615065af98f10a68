"""The README's examples, replayed: every ``$ flc ...`` line runs through
``cli.main`` in-process and must print exactly the lines shown under it,
and the Library snippet runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from flc.cli import main

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", _README, re.M | re.S)


def _cli_examples():
    """(command, output lines) for each ``$ `` line of the sh blocks."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.rstrip("\n").split("\n")
            examples.append((command, output))
    return examples


_EXAMPLES = _cli_examples()


def test_readme_examples_are_all_found():
    assert len(_EXAMPLES) == 7  # update when the README gains or loses one


@pytest.mark.parametrize("command, output", _EXAMPLES, ids=[c for c, _ in _EXAMPLES])
def test_readme_cli_example(capsys, command, output):
    program, *argv = shlex.split(command)
    assert program == "flc"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == output


def test_readme_library_snippet(capsys):
    (snippet,) = _blocks("python")
    exec(snippet, {})
    assert capsys.readouterr().out == "16\n"  # print(dimension(spec))
