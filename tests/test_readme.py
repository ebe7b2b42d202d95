"""The README's CLI examples print the values they are annotated with."""

import re
import shlex
from pathlib import Path

import pytest

from slinv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _annotated_examples():
    """(argv, value) for every `slinv ... # -> value` line of the CLI block, optional [flags] dropped."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        command, arrow, value = line.partition("# ->")
        if arrow:
            program, *argv = shlex.split(re.sub(r"\[[^\]]*\]", "", command))
            assert program == "slinv"
            examples.append((argv, value.strip()))
    return examples


EXAMPLES = _annotated_examples()


def test_readme_annotates_twelve_examples():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("argv, value", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_prints_its_value(capsys, argv, value):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == value
