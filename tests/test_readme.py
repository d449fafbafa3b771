"""Every ``q2rep ...`` example in the README's CLI section must run and exit 0."""

import shlex
from pathlib import Path

import pytest

from q2rep.cli import main

README = Path(__file__).parents[1] / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines() if line.strip().startswith("q2rep ")]


def test_readme_has_cli_examples():
    examples = cli_examples()
    assert len(examples) >= 7
    assert {shlex.split(line)[1] for line in examples} >= {
        "verify", "check-realization", "rep", "spectrum", "sweep"
    }


@pytest.mark.parametrize("line", cli_examples())
def test_readme_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0, line
    assert capsys.readouterr().out
