"""The README's examples run as written."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from raytheta.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [shlex.split(line, comments=True) for line in _block("CLI", "sh").splitlines() if line.strip()]


def test_cli_block_is_all_raytheta_commands():
    assert len(CLI_LINES) >= 10
    assert all(argv[0] == "raytheta" for argv in CLI_LINES)


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers that parser registers, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_block_shows_every_subcommand_and_dump_kind():
    # a subcommand or dump kind the README never runs ships undocumented
    commands = _subcommands(build_parser())
    assert {argv[1] for argv in CLI_LINES} >= set(commands)
    assert {argv[2] for argv in CLI_LINES if argv[1] == "dump"} >= set(_subcommands(commands["dump"]))


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(argv[1:3]) for argv in CLI_LINES])
def test_readme_cli_line_exits_zero(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
